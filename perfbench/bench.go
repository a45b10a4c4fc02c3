package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	root     string // absolute path of the repository checkout
	runDir   string // scratch inputs, removed when the run ends
	outDir   string // run records, span files and CPU profiles
	sizing   sizing
	oracle   *oracle
	log      io.Writer
}

// sizing fixes the inputs every workload draws from. The oracle pins
// every cell these menus allow, so changing a menu means re-pinning.
type sizing struct {
	// detailed and detailed-sharded: the fixed app mix on one GPU; the
	// seed picks each app's scale from detailedScales.
	detailedApps   []string
	detailedScales []float64
	detailedGPU    string
	detailedLimit  time.Duration // latency limit of one op
	shardThreads   int           // EngineThreads of detailed-sharded (clamped to nproc)
	snapApp        string        // app of the traced checkpoint/restore

	// sweep: cells are app × GPU × scale, Swift-Sim-Memory.
	sweepApps   []string
	sweepGPUs   []string
	sweepScales []float64
	sweepRate   float64       // submissions per second (open loop)
	repeatEvery int           // every repeatEvery-th sweep repeats an earlier one
	sweepLimit  time.Duration // latency limit, due time to final event
	drainWait   time.Duration // how long finished submissions may take to drain
	probeCells  int           // cells timed layer by layer in the traced run
	probeScale  float64       // their scale, outside sweepScales so they are cold

	// set-ups per run of the closed loops and of the open loop; setup_s
	// is their median
	setupReps, sweepSetupReps int
}

// workloadRunner is one named traffic mix.
type workloadRunner interface {
	// setup builds the inputs and the system under test; teardown undoes
	// it. The benchmark sets up several times and measures the last.
	setup(dir string) error
	teardown()
	// run measures one stretch of about dur; tr is nil when untraced.
	run(dur time.Duration, tr *tracer) (*phase, error)
	// probe times the layers a traced run cannot see from outside the
	// system (traced runs only, after run); it adds to p.
	probe(p *phase, tr *tracer) error
}

// phase is what one measured stretch produced.
type phase struct {
	wall      time.Duration
	attempted int
	failed    int
	lat       []time.Duration
	kcycles   float64
	errPct    []float64
	// windows slice the phase: one per pass of a closed loop, one for the
	// whole open loop. Rates are reported as medians over windows, so a
	// slow stretch of the host moves one pass rather than the whole figure.
	windows []*window
	// byApp holds a closed loop's latencies (seconds) per app. Its latency
	// percentiles are taken over the apps' median latencies: a pass holds
	// one op of each app, so a percentile over raw ops would sit on the
	// edge between two apps' latencies and jump with every slow op.
	byApp map[string][]float64
	// layer holds per-layer metric values by name (perLayer names).
	layer map[string]float64
}

// window is one slice of a phase.
type window struct {
	wall    time.Duration
	kcycles float64
	lat     []float64 // seconds
	good    int       // ops that succeeded within the latency limit
}

func newPhase() *phase {
	return &phase{layer: make(map[string]float64), byApp: make(map[string][]float64)}
}

// win returns window i, growing the list as needed.
func (p *phase) win(i int) *window {
	for len(p.windows) <= i {
		p.windows = append(p.windows, &window{})
	}
	return p.windows[i]
}

// done records one successful op in the phase and in window i; it counts
// towards goodput if it took no longer than limit.
func (p *phase) done(i int, lat, limit time.Duration, kcycles float64) {
	p.lat = append(p.lat, lat)
	p.kcycles += kcycles
	w := p.win(i)
	w.lat = append(w.lat, lat.Seconds())
	w.kcycles += kcycles
	if lat <= limit {
		w.good++
	}
}

// fail counts one failed op and logs why.
func (p *phase) fail(log io.Writer, format string, args ...any) {
	p.failed++
	fmt.Fprintf(log, "perfbench: op failed: "+format+"\n", args...)
}

func newWorkload(cfg runConfig) (workloadRunner, error) {
	switch cfg.workload {
	case "detailed":
		return newDetailed(cfg, 1)
	case "detailed-sharded":
		return newDetailed(cfg, min(cfg.sizing.shardThreads, runtime.NumCPU()))
	case "sweep":
		return newSweep(cfg, rand.New(rand.NewPCG(cfg.seed, 0x5eed)))
	}
	return nil, fmt.Errorf("unknown workload %q (want detailed | detailed-sharded | sweep)", cfg.workload)
}

// report is a finished run.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	units             map[string]string
}

func (r *report) output() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for name, v := range r.metrics {
		ms[name] = map[string]any{"value": v, "unit": r.units[name]}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

func runBenchmark(cfg runConfig) (*report, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var setups []float64
	reps := cfg.sizing.setupReps
	if cfg.workload == "sweep" {
		reps = cfg.sizing.sweepSetupReps
	}
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(filepath.Join(cfg.runDir, fmt.Sprintf("setup%d", i))); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	if !cfg.traced {
		heap := startHeapSampler()
		p, err := w.run(cfg.dur, nil)
		peak := heap.stop()
		if err != nil {
			return nil, err
		}
		for i, win := range p.windows {
			fmt.Fprintf(cfg.log, "perfbench: window %d: %d ops, %.1f kcycles/s, p50 %.4fs, p90 %.4fs\n",
				i, len(win.lat), ratio(win.kcycles, win.wall.Seconds()), quantile(win.lat, 0.5), quantile(win.lat, 0.9))
		}
		return endToEndReport(p, quantile(setups, 0.5), peak), nil
	}

	// Traced: an untraced half, then a traced half with spans and a CPU
	// profile; the difference between the two is the tracing overhead.
	plain, err := w.run(cfg.dur/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	profPath := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", cfg.workload, cfg.seed))
	before := readRuntime()
	stopProf, err := startCPUProfile(profPath)
	if err != nil {
		return nil, err
	}
	p, err := w.run(cfg.dur/2, tr)
	stopProf()
	after := readRuntime()
	if err != nil {
		return nil, err
	}
	heapPath := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.heap.pprof", cfg.workload, cfg.seed))
	if err := writeHeapProfile(heapPath); err != nil {
		return nil, err
	}
	ops := p.attempted
	if err := w.probe(p, tr); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(spanPath); err != nil {
		return nil, err
	}
	shares, err := cpuShares(profPath, cfg.root)
	if err != nil {
		// The per-package split needs `go tool pprof`; without it the
		// shares read 0 and the run says so.
		fmt.Fprintln(cfg.log, "perfbench: warning: per-package CPU shares unavailable:", err)
	}
	sharePath := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.cpu_by_package.txt", cfg.workload, cfg.seed))
	if err := writeShares(sharePath, shares); err != nil {
		return nil, err
	}

	l := p.layer
	for pkg, name := range map[string]string{
		"trace": "trace.cpu_share", "reuse": "reuse.cpu_share", "engine": "engine.cpu_share",
		"smcore": "smcore.cpu_share", "cache": "cache.cpu_share", "noc": "noc.cpu_share",
		"dram": "dram.cpu_share", "service": "service.cpu_share", "runtime": "runtime.cpu_share",
	} {
		l[name] = shares[pkg]
	}
	l["engine.barrier_cpu_share"] = shares["engine/barrier.go"]
	l["go.mallocs_per_op"] = ratio(after.mallocs-before.mallocs, float64(ops))
	l["go.alloc_mb_per_op"] = ratio((after.allocBytes-before.allocBytes)/1e6, float64(ops))
	l["go.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	l["obs.trace_overhead_frac"] = traceOverhead(cfg.workload, plain, p)
	attempted := plain.attempted + p.attempted
	failed := plain.failed + p.failed
	l["ops_failed_frac"] = ratio(float64(failed), float64(attempted))

	rep := &report{attempted: attempted, failed: failed, metrics: map[string]float64{}, units: map[string]string{}}
	for _, d := range perLayer {
		rep.metrics[d.name] = l[d.name]
		rep.units[d.name] = d.unit
	}
	return rep, nil
}

// traceOverhead compares the traced half with the untraced one: the
// relative loss of simulation throughput for the closed loops, the
// relative growth of median latency for the open loop.
func traceOverhead(name string, plain, traced *phase) float64 {
	if name == "sweep" {
		a, b := quantile(seconds(plain.lat), 0.5), quantile(seconds(traced.lat), 0.5)
		return ratio(b-a, a)
	}
	a := ratio(plain.kcycles, plain.wall.Seconds())
	b := ratio(traced.kcycles, traced.wall.Seconds())
	return ratio(a-b, a)
}

func endToEndReport(p *phase, setup, peakHeap float64) *report {
	var rate, good, lat []float64
	for _, w := range p.windows {
		if len(w.lat) > 0 {
			rate = append(rate, ratio(w.kcycles, w.wall.Seconds()))
			good = append(good, ratio(float64(w.good), w.wall.Seconds()))
			lat = append(lat, w.lat...)
		}
	}
	if len(p.byApp) > 0 {
		lat = lat[:0]
		for _, l := range p.byApp {
			lat = append(lat, quantile(l, 0.5))
		}
	}
	ok := p.attempted - p.failed
	vals := map[string]float64{
		"sim_kcycles_per_s":   quantile(rate, 0.5),
		"sweep_p50_s":         quantile(lat, 0.5),
		"sweep_p90_s":         quantile(lat, 0.9),
		"sweep_goodput_per_s": quantile(good, 0.5),
		"peak_heap_mb":        peakHeap / 1e6,
		"setup_s":             setup,
		"ops_ok_frac":         ratio(float64(ok), float64(p.attempted)),
		"cycle_err_pct":       mean(p.errPct),
	}
	rep := &report{attempted: p.attempted, failed: p.failed, metrics: vals, units: map[string]string{}}
	for _, d := range endToEnd {
		rep.units[d.name] = d.unit
	}
	return rep
}

// heapSampler records the peak live heap while it runs: the heap the
// most recent GC marked reachable, which is what the program holds on to
// (the allocated-but-unswept heap between GCs depends on GC timing).
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  float64
}

const heapSamplePeriod = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := float64(sample[0].Value.Uint64()); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return h.peak
}

// runtimeCounters are cumulative Go runtime counters.
type runtimeCounters struct {
	mallocs, allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		mallocs:    float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// writeHeapProfile records what the live heap holds at the end of the
// traced half (`go tool pprof -sample_index=inuse_space`).
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // make the in-use figures current
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}, nil
}
