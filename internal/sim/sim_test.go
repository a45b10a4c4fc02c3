package sim

import (
	"context"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// smallGPU shrinks the 2080 Ti so integration tests run fast.
func smallGPU() config.GPU {
	g := config.RTX2080Ti()
	g.NumSMs = 8
	g.MemPartitions = 4
	return g
}

func mustApp(t *testing.T, name string, scale float64) *trace.App {
	t.Helper()
	app, err := workload.Generate(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestAllKindsCompleteAndAgreeOnWork(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "PATHFINDER", 0.2)
	var results []*Result
	for _, kind := range []Kind{Detailed, Basic, Memory} {
		res, err := Run(app, gpu, Options{Kind: kind})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Cycles == 0 {
			t.Errorf("%v: zero cycles", kind)
		}
		results = append(results, res)
	}
	// Every configuration must issue exactly the trace's instructions.
	want := uint64(app.Insts())
	for _, r := range results {
		if r.Instructions != want {
			t.Errorf("%v: issued %d instructions, want %d", r.Kind, r.Instructions, want)
		}
	}
}

func TestKindsPredictSimilarCycles(t *testing.T) {
	// The paper's claim: hybrid simplification degrades accuracy only
	// mildly. The three configurations must agree within 2x on total
	// cycles (they usually agree much closer).
	gpu := smallGPU()
	for _, name := range []string{"HOTSPOT", "SM", "BFS"} {
		app := mustApp(t, name, 0.15)
		var cycles [3]uint64
		for i, kind := range []Kind{Detailed, Basic, Memory} {
			res, err := Run(app, gpu, Options{Kind: kind})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, kind, err)
			}
			cycles[i] = res.Cycles
		}
		for i := 1; i < 3; i++ {
			ratio := float64(cycles[i]) / float64(cycles[0])
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s: %v predicts %d cycles vs Detailed %d (ratio %.2f)",
					name, []Kind{Detailed, Basic, Memory}[i], cycles[i], cycles[0], ratio)
			}
		}
	}
}

func TestMemorySkipsMoreCycles(t *testing.T) {
	// Swift-Sim-Memory must fast-forward far more of simulated time than
	// the Detailed baseline on a memory-bound app — that is where its
	// speedup comes from.
	gpu := smallGPU()
	app := mustApp(t, "SM", 0.15)
	det, err := Run(app, gpu, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Run(app, gpu, Options{Kind: Memory})
	if err != nil {
		t.Fatal(err)
	}
	detFrac := float64(det.SkippedCycles) / float64(det.TickedCycles+det.SkippedCycles)
	memFrac := float64(mem.SkippedCycles) / float64(mem.TickedCycles+mem.SkippedCycles)
	if memFrac <= detFrac {
		t.Errorf("Memory skipped fraction %.3f not above Detailed %.3f", memFrac, detFrac)
	}
	if mem.TickedCycles >= det.TickedCycles {
		t.Errorf("Memory ticked %d cycles, Detailed %d; hybrid should tick fewer",
			mem.TickedCycles, det.TickedCycles)
	}
}

func TestInventoryReflectsHybridization(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "GAUSSIAN", 0.1)
	countKinds := func(inv []engine.ModuleInfo) (ca, an int) {
		for _, m := range inv {
			if m.Kind == engine.Analytical {
				an++
			} else {
				ca++
			}
		}
		return
	}
	det, err := Run(app, gpu, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	if _, an := countKinds(det.Inventory); an != 0 {
		t.Errorf("Detailed inventory contains %d analytical modules", an)
	}
	bas, err := Run(app, gpu, Options{Kind: Basic})
	if err != nil {
		t.Fatal(err)
	}
	if _, an := countKinds(bas.Inventory); an == 0 {
		t.Error("Basic inventory contains no analytical modules")
	}
	memr, err := Run(app, gpu, Options{Kind: Memory})
	if err != nil {
		t.Fatal(err)
	}
	_, anBasic := countKinds(bas.Inventory)
	_, anMem := countKinds(memr.Inventory)
	if anMem <= anBasic {
		t.Errorf("Memory (%d analytical) not more hybridized than Basic (%d)", anMem, anBasic)
	}
}

func TestHitRateSources(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "MVT", 0.15)
	a, err := Run(app, gpu, Options{Kind: Memory, HitRates: FunctionalCaches})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(app, gpu, Options{Kind: Memory, HitRates: ReuseDistance})
	if err != nil {
		t.Fatal(err)
	}
	// Different hit-rate sources give different but same-magnitude
	// predictions.
	ratio := float64(a.Cycles) / float64(b.Cycles)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("hit-rate sources disagree wildly: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestRunRejectsInvalidInputs(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "LU", 0.1)
	bad := gpu
	bad.NumSMs = 0
	if _, err := Run(app, bad, Options{}); err == nil {
		t.Error("invalid GPU accepted")
	}
	badApp := &trace.App{Name: "x"}
	if _, err := Run(badApp, gpu, Options{}); err == nil {
		t.Error("invalid app accepted")
	}
	for _, opts := range []Options{
		{Kind: Kind(9)},
		{Kind: Memory, HitRates: HitRateSource(7)},
		{Sampling: Sampling{Enabled: true, BlockFraction: 1.5}},
		{Sampling: Sampling{Enabled: true}, SnapshotTo: io.Discard},
	} {
		if _, err := Run(app, gpu, opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%+v: want ErrInvalidOptions, got %v", opts, err)
		}
	}
}

func TestDeterministicCycles(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "SSSP", 0.15)
	for _, kind := range []Kind{Detailed, Basic, Memory} {
		a, err := Run(app, gpu, Options{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(app, gpu, Options{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles {
			t.Errorf("%v: nondeterministic cycles %d vs %d", kind, a.Cycles, b.Cycles)
		}
	}
}

func TestLatencyScaleIncreasesCycles(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "SRAD", 0.1)
	base, err := Run(app, gpu, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Run(app, gpu, Options{Kind: Detailed, LatencyScale: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Cycles <= base.Cycles {
		t.Errorf("scaled run %d cycles not above base %d", scaled.Cycles, base.Cycles)
	}
}

func TestExtraKernelOverhead(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "GRU", 0.1)
	base, err := Run(app, gpu, Options{Kind: Basic})
	if err != nil {
		t.Fatal(err)
	}
	withOv, err := Run(app, gpu, Options{Kind: Basic, ExtraKernelOverhead: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := uint64(len(app.Kernels)) * 10_000
	got := withOv.Cycles - base.Cycles
	if got != wantExtra {
		t.Errorf("overhead delta = %d, want %d", got, wantExtra)
	}
}

func TestKindString(t *testing.T) {
	if Detailed.String() != "Detailed" || Basic.String() != "Swift-Sim-Basic" ||
		Memory.String() != "Swift-Sim-Memory" {
		t.Error("Kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind must stringify")
	}
}

func TestSchedulerPolicyExploration(t *testing.T) {
	// The paper's §III-D scenario: exploring a new warp scheduler with
	// everything else analytical. All policies must complete and give
	// plausible (nonzero, same-work) results on Swift-Sim-Memory.
	gpu := smallGPU()
	app := mustApp(t, "BACKPROP", 0.15)
	want := uint64(app.Insts())
	cycles := map[config.SchedPolicy]uint64{}
	for _, pol := range []config.SchedPolicy{config.GTO, config.LRR, config.OldestFirst} {
		g := gpu
		g.SM.Scheduler = pol
		res, err := Run(app, g, Options{Kind: Memory})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Instructions != want {
			t.Errorf("%v: issued %d, want %d", pol, res.Instructions, want)
		}
		cycles[pol] = res.Cycles
	}
	t.Logf("scheduler exploration cycles: %v", cycles)
}

func TestNoCTopologyExploration(t *testing.T) {
	// Swapping the interconnect module (crossbar vs ring) is a one-key
	// configuration change; both topologies complete all work, and the
	// ring's longer hop paths cost cycles on NoC-heavy workloads.
	app := mustApp(t, "SM", 0.15)
	xbar := smallGPU()
	ring := smallGPU()
	ring.NoCTopology = "ring"
	rx, err := Run(app, xbar, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(app, ring, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Instructions != rx.Instructions {
		t.Errorf("instruction counts differ: ring %d vs crossbar %d", rr.Instructions, rx.Instructions)
	}
	// The topologies trade fixed traversal (crossbar) against
	// distance-dependent hops (ring): timing must differ, in either
	// direction (small rings beat a 12-cycle crossbar; large ones lose).
	if rr.Cycles == rx.Cycles {
		t.Errorf("ring and crossbar predict identical cycles (%d); topology had no effect", rr.Cycles)
	}
	if rr.Metrics["noc.hops"] == 0 {
		t.Error("ring recorded no hop traffic")
	}
}

func TestBadTopologyRejected(t *testing.T) {
	gpu := smallGPU()
	gpu.NoCTopology = "torus"
	app := mustApp(t, "WC", 0.1)
	if _, err := Run(app, gpu, Options{Kind: Detailed}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestBlockSampling(t *testing.T) {
	// Sampled simulation of a homogeneous workload extrapolates close to
	// the full run at a fraction of the simulated work.
	// Enough blocks for several waves on a 4-SM GPU, so the tail past the
	// first wave is longer than one sample window and sampling has
	// something to skip.
	gpu := smallGPU()
	gpu.NumSMs = 4
	gpu.MemPartitions = 2
	app := mustApp(t, "SM", 4)
	full, err := Run(app, gpu, Options{Kind: Basic})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(app, gpu, Options{Kind: Basic, Sampling: Sampling{Enabled: true, BlockFraction: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if !sampled.Sampled || full.Sampled {
		t.Error("Sampled flags wrong")
	}
	if sampled.TickedCycles >= full.TickedCycles {
		t.Errorf("sampling ticked %d cycles, full %d", sampled.TickedCycles, full.TickedCycles)
	}
	ratio := float64(sampled.Cycles) / float64(full.Cycles)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("extrapolated %d vs full %d (ratio %.2f) out of tolerance",
			sampled.Cycles, full.Cycles, ratio)
	}
	if len(sampled.KernelCycles) != len(app.Kernels) {
		t.Errorf("KernelCycles has %d entries, want %d", len(sampled.KernelCycles), len(app.Kernels))
	}
}

func TestKernelCyclesSumToTotal(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "GRU", 0.15)
	res, err := Run(app, gpu, Options{Kind: Memory, ExtraKernelOverhead: 100})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, kc := range res.KernelCycles {
		sum += kc
	}
	want := sum + uint64(len(app.Kernels))*100
	if res.Cycles != want {
		t.Errorf("Cycles = %d, want kernel sum + overhead = %d", res.Cycles, want)
	}
}

func TestSamplingComposesWithMemoryKind(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "ADI", 0.3)
	res, err := Run(app, gpu, Options{Kind: Memory, Sampling: Sampling{Enabled: true, BlockFraction: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || !res.Sampled {
		t.Fatalf("sampled Memory run: %+v", res.Cycles)
	}
}

func TestMaxCyclesMaxUint64DoesNotWrap(t *testing.T) {
	// Regression: eng.Cycle()+MaxCycles wrapped for kernels after the
	// first, turning an "unlimited" budget into an instant timeout.
	gpu := smallGPU()
	app := mustApp(t, "GRU", 0.1) // multi-kernel: cycle > 0 at kernel 2
	if len(app.Kernels) < 2 {
		t.Fatal("need a multi-kernel app for the wrap case")
	}
	res, err := Run(app, gpu, Options{Kind: Basic, MaxCycles: math.MaxUint64})
	if err != nil {
		t.Fatalf("MaxCycles=MaxUint64 run failed: %v", err)
	}
	if res.Cycles == 0 {
		t.Error("zero cycles")
	}
}

func TestUnschedulableKernelRejectedAtAssembly(t *testing.T) {
	// A kernel whose single-block register footprint exceeds the SM's
	// register file can never be scheduled. This used to surface as an
	// engine deadlock (or warp-slot panic) deep inside the run; it must
	// now be a clear validation error before simulation starts.
	gpu := smallGPU()
	// Generated traces are memoized and shared; clone before mutating.
	shared := mustApp(t, "BFS", 0.1)
	bad := *shared.Kernels[0]
	bad.RegsPerThread = gpu.SM.Registers // one thread busts the file
	app := &trace.App{Name: shared.Name, Suite: shared.Suite, Kernels: []*trace.Kernel{&bad}}
	_, err := Run(app, gpu, Options{Kind: Basic})
	if err == nil {
		t.Fatal("unschedulable kernel accepted")
	}
	if !strings.Contains(err.Error(), "can never be scheduled") {
		t.Errorf("error does not identify unschedulability: %v", err)
	}
	if !strings.Contains(err.Error(), app.Kernels[0].Name) {
		t.Errorf("error does not identify the kernel: %v", err)
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "BFS", 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, app, gpu, Options{Kind: Basic})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if !errors.Is(err, engine.ErrCanceled) {
		t.Errorf("err = %v, want engine.ErrCanceled in chain", err)
	}
}

func TestRunCtxDeadline(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "SM", 0.3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunCtx(ctx, app, gpu, Options{Kind: Detailed})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; engine context polling is broken", elapsed)
	}
}

func TestL2HybridConfiguration(t *testing.T) {
	// The fourth hybridization point: cycle-accurate L1 over an
	// analytical below-L1 backend. It must complete all work, sit
	// between Basic and Memory in hybridization, and predict cycles in
	// the same band.
	gpu := smallGPU()
	app := mustApp(t, "SM", 0.15)
	basic, err := Run(app, gpu, Options{Kind: Basic})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Run(app, gpu, Options{Kind: L2Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Instructions != basic.Instructions {
		t.Errorf("instructions %d vs %d", hyb.Instructions, basic.Instructions)
	}
	ratio := float64(hyb.Cycles) / float64(basic.Cycles)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("L2Hybrid %d cycles vs Basic %d (ratio %.2f)", hyb.Cycles, basic.Cycles, ratio)
	}
	// Its inventory has analytical modules (the backend + ALUs) and
	// cycle-accurate L1s.
	an, l1 := 0, 0
	for _, m := range hyb.Inventory {
		if m.Kind == engine.Analytical {
			an++
		}
		if m.Name == "l1" {
			l1++
		}
	}
	if an == 0 || l1 != gpu.NumSMs {
		t.Errorf("inventory: %d analytical, %d l1 modules (want >0, %d)", an, l1, gpu.NumSMs)
	}
	if hyb.Kind.String() != "Swift-Sim-L2" {
		t.Errorf("Kind = %q", hyb.Kind.String())
	}
	// L2 backend counters flow into the metrics.
	if hyb.Metrics["membackend.l2_hit"]+hyb.Metrics["membackend.l2_miss"] == 0 {
		t.Error("backend saw no traffic")
	}
}
