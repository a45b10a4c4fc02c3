package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// tinySizing shrinks every workload so a run takes well under a second.
func tinySizing() sizing {
	sz := defaultSizing()
	sz.detailedApps = []string{"GEMM", "HOTSPOT", "SM"}
	sz.detailedScales = []float64{0.1, 0.2}
	sz.sweepApps = []string{"GEMM", "HOTSPOT", "SM", "BFS", "NW", "SRAD"}
	sz.sweepGPUs = []string{"RTX2080Ti", "RTX3060"}
	sz.sweepScales = []float64{0.1}
	sz.sweepRate = 10
	sz.probeCells = 2
	sz.setupReps = 2
	sz.sweepSetupReps = 2
	return sz
}

var (
	tinyOnce   sync.Once
	tinyOracle *oracle
	tinyErr    error
)

// pinnedTiny pins the tiny menu once per test binary; each caller gets
// its own copy so it may corrupt it.
func pinnedTiny(t *testing.T) *oracle {
	t.Helper()
	tinyOnce.Do(func() { tinyOracle, tinyErr = pinOracle(tinySizing()) })
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	o := &oracle{CanonicalVersion: tinyOracle.CanonicalVersion, Cells: append([]pin(nil), tinyOracle.Cells...)}
	o.reindex()
	return o
}

func tinyRun(t *testing.T, name string, traced bool, o *oracle) *report {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := runBenchmark(runConfig{
		workload: name, seed: 7, dur: 600 * time.Millisecond, traced: traced,
		root: root, runDir: filepath.Join(dir, "run"), outDir: filepath.Join(dir, "out"),
		sizing: tinySizing(), oracle: o, log: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

var workloads = []string{"detailed", "detailed-sharded", "sweep"}

// TestEveryMetricEmitted: each workload reports every end-to-end metric
// untraced and every per-layer metric traced, with no failed op.
func TestEveryMetricEmitted(t *testing.T) {
	o := pinnedTiny(t)
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			rep := tinyRun(t, name, traced, o)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := rep.metrics[d.name]; !ok || rep.units[d.name] != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", name, traced, d.name, rep.units[d.name], d.unit)
				}
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", name, traced, rep.failed, rep.attempted)
			}
		}
	}
}

// TestWrongDigestFails: a pinned digest that does not match the program's
// output shows up as failed ops.
func TestWrongDigestFails(t *testing.T) {
	for _, name := range workloads {
		o := pinnedTiny(t)
		for i := range o.Cells {
			o.Cells[i].Digest = "0" + o.Cells[i].Digest[1:]
		}
		o.reindex()
		rep := tinyRun(t, name, false, o)
		if rep.failed == 0 || rep.output()["correct"] != false {
			t.Errorf("%s: corrupted oracle gave %d failed of %d", name, rep.failed, rep.attempted)
		}
	}
}

// TestSameSeedSameCounters: the per-layer work counters repeat exactly for
// a fixed seed.
func TestSameSeedSameCounters(t *testing.T) {
	o := pinnedTiny(t)
	for _, name := range workloads {
		counts := func() map[string]float64 {
			rep := tinyRun(t, name, true, o)
			m := make(map[string]float64)
			for _, c := range workCounters {
				m[c] = rep.metrics[c]
			}
			return m
		}
		a, b := counts(), counts()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counters differ across runs of one seed:\n%v\n%v", name, a, b)
		}
		if a["sim.ticked_cycles"] == 0 {
			t.Errorf("%s: no ticked cycles counted", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, g, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := b.PerLayer[i]; g.Name != d.name || g.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, g, d)
		}
	}
}

func TestParseShares(t *testing.T) {
	out := `      flat  flat%   sum%        cum   cum%
     130ms  50.00% 50.00%      130ms  4.96%  /src/repo/internal/engine/barrier.go (inline)
      65ms 25.00% 75.00%       90ms  3.44%  /src/repo/internal/cache/cache.go
      39ms 15.00% 90.00%       90ms  3.44%  /usr/local/go/src/runtime/malloc.go
      26ms 10.00% 100.0%       90ms  3.44%  /opt/x.go
`
	got := parseShares(out, "/src/repo")
	want := map[string]float64{"engine": 0.5, "engine/barrier.go": 0.5, "cache": 0.25, "runtime": 0.15, "other": 0.1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseShares = %v, want %v", got, want)
	}
}
