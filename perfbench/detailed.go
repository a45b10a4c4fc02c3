package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/regress"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// detailedWL is the closed loop of Detailed simulations, serial
// (threads 1, workload "detailed") or sharded ("detailed-sharded"). One op
// parses a freshly written .sgt trace, runs sim.Run, renders the result
// canonically and checks it against the oracle. Ops run in passes: each
// pass simulates every app of the mix once, in a seeded order and at a
// seeded scale, and a run always ends on a pass boundary.
type detailedWL struct {
	cfg     runConfig
	threads int
	gpu     config.GPU
	cells   []detailedCell // every (app, scale) of the mix
	byApp   [][]int        // cells of each app, one per scale
	nextOp  int64

	// set by setup
	dir     string
	genMs   float64 // mean generation time per app, last set-up
	writeMs float64 // total .sgt write time, last set-up
	written int64   // total .sgt bytes
}

type detailedCell struct {
	pin  *pin
	path string
	size int64
}

func newDetailed(cfg runConfig, threads int) (*detailedWL, error) {
	sz := cfg.sizing
	gpu, ok := config.Preset(sz.detailedGPU)
	if !ok {
		return nil, fmt.Errorf("unknown GPU preset %q", sz.detailedGPU)
	}
	w := &detailedWL{cfg: cfg, threads: threads, gpu: gpu}
	for _, app := range sz.detailedApps {
		var idx []int
		for _, scale := range sz.detailedScales {
			p, err := cfg.oracle.lookup(cellKey{Sim: sim.Detailed.String(), App: app, GPU: gpu.Name, Scale: scale})
			if err != nil {
				return nil, err
			}
			idx = append(idx, len(w.cells))
			w.cells = append(w.cells, detailedCell{pin: p})
		}
		w.byApp = append(w.byApp, idx)
	}
	return w, nil
}

// setup generates every (app, scale) of the mix with its generator
// (bypassing workload.Generate's in-process memo, so each set-up pays
// generation) and writes it as an .sgt file.
func (w *detailedWL) setup(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w.dir = dir
	var gen, write time.Duration
	w.written = 0
	for i := range w.cells {
		c := &w.cells[i]
		spec, ok := workload.ByName(c.pin.App)
		if !ok {
			return fmt.Errorf("unknown app %q", c.pin.App)
		}
		t0 := time.Now()
		app := spec.Generate(c.pin.Scale)
		t1 := time.Now()
		c.path = filepath.Join(dir, fmt.Sprintf("%s-%g.sgt", c.pin.App, c.pin.Scale))
		if err := trace.WriteFile(c.path, app); err != nil {
			return err
		}
		gen += t1.Sub(t0)
		write += time.Since(t1)
		fi, err := os.Stat(c.path)
		if err != nil {
			return err
		}
		c.size = fi.Size()
		w.written += c.size
	}
	w.genMs = ms(gen) / float64(len(w.cells))
	w.writeMs = ms(write)
	return nil
}

func (w *detailedWL) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// detailedAcc accumulates the per-layer figures of one phase.
type detailedAcc struct {
	readTime, simWall, canonTime time.Duration
	readBytes                    int64
	ticked                       uint64
	ops                          int
	first                        map[string]uint64 // work counters of the first pass
}

func (w *detailedWL) run(dur time.Duration, tr *tracer) (*phase, error) {
	p := newPhase()
	acc := &detailedAcc{first: make(map[string]uint64)}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < dur; pass++ {
		t0 := time.Now()
		// Pass k draws from its own stream, so what pass k runs does not
		// depend on how many passes an earlier phase fitted in.
		rng := rand.New(rand.NewPCG(w.cfg.seed, uint64(pass)))
		for _, a := range rng.Perm(len(w.byApp)) {
			scales := w.byApp[a]
			w.op(&w.cells[scales[rng.IntN(len(scales))]], p, acc, tr, pass)
		}
		p.win(pass).wall = time.Since(t0)
	}
	p.wall = time.Since(start)
	w.layers(p, acc)
	return p, nil
}

// op runs one simulation end to end and checks it.
func (w *detailedWL) op(c *detailedCell, p *phase, acc *detailedAcc, tr *tracer, pass int) {
	op := w.nextOp
	w.nextOp++
	p.attempted++
	root := tr.newID()
	t0 := time.Now()
	app, err := trace.ReadFile(c.path)
	t1 := time.Now()
	tr.record(root, op, "trace.read", t0, t1)
	if err != nil {
		p.fail(w.cfg.log, "%s: %v", c.pin.App, err)
		return
	}
	res, err := sim.Run(app, w.gpu, sim.Options{Kind: sim.Detailed, EngineThreads: w.threads})
	t2 := time.Now()
	tr.record(root, op, "sim.run", t1, t2)
	if err != nil {
		p.fail(w.cfg.log, "%s: %v", c.pin.App, err)
		return
	}
	got := digest(regress.Canonical(res))
	t3 := time.Now()
	tr.record(root, op, "regress.canonical", t2, t3)
	tr.add(root, 0, op, "op "+c.pin.App, t0, t3)
	if got != c.pin.Digest {
		p.fail(w.cfg.log, "%s scale %g: canonical digest %s, pinned %s", c.pin.App, c.pin.Scale, got, c.pin.Digest)
		return
	}
	lat := t3.Sub(t0)
	p.done(pass, lat, w.cfg.sizing.detailedLimit, float64(res.Cycles)/1000)
	p.byApp[c.pin.App] = append(p.byApp[c.pin.App], lat.Seconds())
	p.errPct = append(p.errPct, cycleErrPct(res.Cycles, c.pin))

	acc.readTime += t1.Sub(t0)
	acc.readBytes += c.size
	acc.simWall += res.Wall
	acc.canonTime += t3.Sub(t2)
	acc.ticked += res.TickedCycles
	acc.ops++
	if pass == 0 {
		m := res.Metrics
		for name, v := range map[string]uint64{
			"sim.ticked_cycles":  res.TickedCycles,
			"sim.skipped_cycles": res.SkippedCycles,
			"sm.issued":          m["sm.issued"],
			"sm.stall":           m["sm.stall"],
			"l1.hit":             m["l1.hit"],
			"l1.miss":            m["l1.miss"],
			"l1.mshr_merge":      m["l1.mshr_merge"],
			"l2.hit":             m["l2.hit"],
			"l2.miss":            m["l2.miss"],
			"noc.request":        m["noc.request"],
			"noc.stall":          m["noc.stall"],
			"dram.read":          m["dram.read"],
			"dram.write":         m["dram.write"],
			"dram.row_hit":       m["dram.row_hit"],
			"dram.row_miss":      m["dram.row_miss"],
		} {
			acc.first[name] += v
		}
	}
}

// layers turns a phase's accumulators into per-layer metrics.
func (w *detailedWL) layers(p *phase, acc *detailedAcc) {
	l, f := p.layer, acc.first
	n := float64(acc.ops)
	l["trace.read_ms_per_mb"] = ratio(ms(acc.readTime), float64(acc.readBytes)/1e6)
	l["trace.write_ms_per_mb"] = ratio(w.writeMs, float64(w.written)/1e6)
	l["workload.generate_ms"] = w.genMs // per generated app
	l["sim.wall_ms"] = ratio(ms(acc.simWall), n)
	l["engine.ns_per_ticked_cycle"] = ratio(float64(acc.simWall.Nanoseconds()), float64(acc.ticked))
	l["regress.canonical_ms"] = ratio(ms(acc.canonTime), n)
	setCounters(l, f)
}

// setCounters derives the simulator's per-layer work counters from summed
// result metrics (shared by both workloads).
func setCounters(l map[string]float64, f map[string]uint64) {
	c := func(name string) float64 { return float64(f[name]) }
	for _, name := range []string{
		"sim.ticked_cycles", "sim.skipped_cycles", "sm.issued", "sm.stall",
		"l1.mshr_merge", "noc.request", "noc.stall", "dram.read", "dram.write",
	} {
		l[name] = c(name)
	}
	l["sim.skip_ratio"] = ratio(c("sim.skipped_cycles"), c("sim.ticked_cycles")+c("sim.skipped_cycles"))
	l["l1.access"] = c("l1.hit") + c("l1.miss")
	l["l1.hit_ratio"] = ratio(c("l1.hit"), l["l1.access"])
	l["l2.access"] = c("l2.hit") + c("l2.miss")
	l["l2.hit_ratio"] = ratio(c("l2.hit"), l["l2.access"])
	l["dram.row_hit_ratio"] = ratio(c("dram.row_hit"), c("dram.row_hit")+c("dram.row_miss"))
}

// probe checkpoints the snapshot app and restores it, checking both runs
// against the oracle. A Detailed run has no quiescent kernel boundary
// after its first at this commit (sim takes the designed skip-or-fail
// path), so the checkpoint is taken at the first boundary, before kernel
// 0, and holds the whole assembled state. Encode and restore cost are not
// visible from outside sim.Run, so they are read as differences of median
// wall times against plain runs of the same app:
//
//	snap.encode_ms  = wall(run with SnapshotTo) - wall(plain run)
//	snap.restore_ms = wall(run from RestoreFrom) - wall(plain run)
func (w *detailedWL) probe(p *phase, tr *tracer) error {
	c := &w.cells[w.byApp[0][0]]
	for i := range w.cells {
		if w.cells[i].pin.App == w.cfg.sizing.snapApp {
			c = &w.cells[i]
		}
	}
	app, err := trace.ReadFile(c.path)
	if err != nil {
		return err
	}
	base := sim.Options{Kind: sim.Detailed, EngineThreads: w.threads}
	check := func(name string, opts sim.Options) (*sim.Result, bool) {
		op := w.nextOp
		w.nextOp++
		p.attempted++
		t0 := time.Now()
		res, err := sim.Run(app, w.gpu, opts)
		tr.record(0, op, name, t0, time.Now())
		if err != nil {
			p.fail(w.cfg.log, "%s %s: %v", name, c.pin.App, err)
			return nil, false
		}
		if got := digest(regress.Canonical(res)); got != c.pin.Digest {
			p.fail(w.cfg.log, "%s %s: canonical digest %s, pinned %s", name, c.pin.App, got, c.pin.Digest)
			return nil, false
		}
		return res, true
	}
	const reps = 5
	var plain, withSnap, restored []float64
	for i := 0; i < reps; i++ {
		res, ok := check("snap.plain", base)
		if !ok {
			return nil
		}
		plain = append(plain, ms(res.Wall))

		var buf bytes.Buffer
		opts := base
		opts.SnapshotTo = &buf
		if res, ok = check("snap.encode", opts); !ok {
			return nil
		}
		withSnap = append(withSnap, ms(res.Wall))
		p.layer["snap.bytes"] = float64(buf.Len())

		opts = base
		opts.RestoreFrom = bytes.NewReader(buf.Bytes())
		if res, ok = check("snap.restore", opts); !ok {
			return nil
		}
		restored = append(restored, ms(res.Wall))
	}
	mp := quantile(plain, 0.5)
	p.layer["snap.encode_ms"] = quantile(withSnap, 0.5) - mp
	p.layer["snap.restore_ms"] = quantile(restored, 0.5) - mp
	return nil
}
