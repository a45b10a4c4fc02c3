package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swiftsim/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// (a simulation or a sweep) share op; parent is the enclosing span's id
// (0 at the op's root).
type span struct {
	id, parent, op int64
	name           string
	start, end     time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so children can name their parent before the
// parent span ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, op int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, start: start, end: end})
	t.mu.Unlock()
}

// record records a finished span that has no children.
func (t *tracer) record(parent, op int64, name string, start, end time.Time) {
	t.add(t.newID(), parent, op, name, start, end)
}

// writeChrome writes the spans as Chrome trace-event JSON: one row (tid)
// per op, microsecond timestamps from the tracer's start, span id and
// parent id as arguments.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	evs := make([]obs.Event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, obs.Event{
			Name: s.name, Cat: "perfbench", Ph: obs.PhaseSpan,
			Ts:  uint64(s.start.Sub(t.t0).Microseconds()),
			Dur: uint64(s.end.Sub(s.start).Microseconds()),
			Pid: 1, Tid: int32(s.op),
			Arg1Name: "id", Arg1: uint64(s.id),
			Arg2Name: "parent", Arg2: uint64(s.parent),
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteChromeTrace(w, evs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuShares reads a CPU profile with `go tool pprof -top -files` and
// returns each package's share of flat (self) samples, keyed as packageOf
// names them ("engine", "cache", "runtime", "crypto/sha256", ...), plus the
// engine barrier's own file under "engine/barrier.go".
func cpuShares(profPath, root string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-files",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profPath).Output()
	if err != nil {
		return map[string]float64{}, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseShares(string(out), root), nil
}

// parseShares sums the flat% column of `pprof -top -files` output by
// package; root is the module's directory.
func parseShares(out, root string) map[string]float64 {
	shares := make(map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue // the header row
		}
		file := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		shares[packageOf(file, root)] += pct / 100
		if filepath.Base(file) == "barrier.go" && filepath.Base(filepath.Dir(file)) == "engine" {
			shares["engine/barrier.go"] += pct / 100
		}
	}
	return shares
}

// packageOf maps a source file to the layer it belongs to: a package of
// the module in root by its directory name, a standard-library package by
// its import path ("runtime", "crypto/sha256"), or "other".
func packageOf(file, root string) string {
	file = filepath.ToSlash(file)
	prefix := filepath.ToSlash(root) + "/internal/"
	if rest, ok := strings.CutPrefix(file, prefix); ok {
		if j := strings.IndexByte(rest, '/'); j > 0 {
			return rest[:j]
		}
	}
	if i := strings.LastIndex(file, "/src/"); i >= 0 {
		return path.Dir(file[i+len("/src/"):])
	}
	return "other"
}

func writeShares(path string, shares map[string]float64) error {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %s\n", "package", "self CPU share")
	for _, n := range names {
		fmt.Fprintf(&b, "%-20s %6.2f%%\n", n, 100*shares[n])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
