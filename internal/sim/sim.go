// Package sim assembles complete GPU performance simulators out of the
// Swift-Sim modules, reproducing the three configurations the paper
// evaluates:
//
//   - Detailed: the fully cycle-accurate baseline in the Accel-Sim class —
//     cycle-accurate warp scheduling, ALU pipelines, LD/ST units, sectored
//     L1/L2 caches with MSHRs, a crossbar NoC, and partitioned DRAM, all
//     ticked every cycle.
//   - Swift-Sim-Basic: the ALU pipelines are replaced by the analytical
//     model of §III-D1; the memory hierarchy stays cycle-accurate.
//   - Swift-Sim-Memory: Basic, plus the entire memory path (LD/ST unit,
//     L1, NoC, L2, DRAM) replaced by the Eq. 1 analytical model of
//     §III-D2 driven by reuse-distance/cache-simulation hit rates.
//
// Every configuration shares the identical Block Scheduler and Warp
// Scheduler & Dispatch modules, demonstrating the paper's claim that
// modules behind fixed interfaces can be swapped freely.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"swiftsim/internal/analytic"
	"swiftsim/internal/cache"
	"swiftsim/internal/config"
	"swiftsim/internal/dram"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/noc"
	"swiftsim/internal/obs"
	"swiftsim/internal/reuse"
	"swiftsim/internal/smcore"
	"swiftsim/internal/snap"
	"swiftsim/internal/trace"
)

// Kind selects a simulator configuration.
type Kind int

const (
	// Detailed is the fully cycle-accurate baseline (Accel-Sim class).
	Detailed Kind = iota
	// Basic is Swift-Sim-Basic: analytical ALUs, cycle-accurate memory.
	Basic
	// Memory is Swift-Sim-Memory: analytical ALUs and analytical memory.
	Memory
	// L2Hybrid keeps the LD/ST units and the L1 cycle-accurate but
	// replaces everything below the L1 (NoC, L2, DRAM) with the
	// analytical Backend — a third hybridization point, at the mem.Port
	// boundary, showing that any subset of modules can be simplified.
	L2Hybrid
)

// String returns the configuration name used in reports.
func (k Kind) String() string {
	switch k {
	case Detailed:
		return "Detailed"
	case Basic:
		return "Swift-Sim-Basic"
	case Memory:
		return "Swift-Sim-Memory"
	case L2Hybrid:
		return "Swift-Sim-L2"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// HitRateSource selects where Swift-Sim-Memory's Eq. 1 rates come from.
type HitRateSource int

const (
	// FunctionalCaches extracts rates with timeless sectored caches
	// (supports every replacement policy).
	FunctionalCaches HitRateSource = iota
	// ReuseDistance extracts rates with LRU stack-distance theory.
	ReuseDistance
)

// Options configures a simulation run. The JSON form carries every field
// that can affect results (the service ships it to remote workers); the
// process-local hooks and checkpoint streams do not serialize.
type Options struct {
	// Kind selects the simulator configuration.
	Kind Kind `json:"kind"`
	// HitRates selects Swift-Sim-Memory's hit-rate source.
	HitRates HitRateSource `json:"hit_rates,omitempty"`
	// MaxCycles bounds simulated time per kernel (0 = default guard of
	// one billion cycles).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// LatencyScale multiplies memory/unit latencies; the golden hardware
	// model uses it (>1) to represent undisclosed real-hardware timing.
	// 0 means 1.0.
	LatencyScale float64 `json:"latency_scale,omitempty"`
	// ExtraKernelOverhead adds fixed cycles per kernel launch (golden
	// model: driver/launch overhead no performance simulator models).
	ExtraKernelOverhead uint64 `json:"extra_kernel_overhead,omitempty"`
	// Scheduler optionally installs a custom warp-scheduling policy
	// (smcore.Picker) per sub-core in place of the configured built-in —
	// the paper's new-scheduler exploration hook. Works with every Kind.
	Scheduler func(smID, sub int) smcore.Picker `json:"-"`
	// EngineThreads is the intra-simulation parallelism degree: the number
	// of engine shards SMs (with their private L1s and units) are ticked
	// on concurrently, synchronized at a deterministic per-cycle barrier.
	// 0 or 1 keeps the fully serial engine. The effective shard count is
	// clamped to NumSMs, and the Memory configuration always runs serially
	// (its analytical memory models share order-dependent bandwidth
	// meters — and it has no per-SM cycle-accurate state worth sharding).
	// Results are byte-identical at every value.
	EngineThreads int `json:"engine_threads,omitempty"`
	// EpochCycles is the relaxed-sync epoch length. In parallel assemblies
	// (EngineThreads >= 2 and a Kind with sharded state) a value k > 1 lets
	// every shard run k consecutive local cycles between barriers, with
	// L1→interconnect traffic carried through bounded-staleness queues (see
	// boundary.go) so no module ever observes a value from its future.
	// 0 or 1 keeps the exact barrier-per-cycle protocol and byte-identical
	// results; k > 1 trades a bounded, per-preset-quantified metric drift
	// for fewer barriers. For a given (configuration, k) results are still
	// bit-reproducible at every thread count. Serial assemblies (including
	// Memory, which always runs serially) ignore it.
	EpochCycles int `json:"epoch_cycles,omitempty"`
	// SnapshotAt, together with SnapshotTo, checkpoints the run at the
	// first quiescent kernel boundary at or after this cycle (0 = the
	// first boundary); the run then continues normally.
	SnapshotAt uint64 `json:"-"`
	// SnapshotTo receives the versioned binary checkpoint (internal/snap
	// format). nil disables snapshotting. If no kernel boundary at or
	// after SnapshotAt is quiescent before the run ends, the run fails
	// with a structured error rather than silently writing nothing.
	SnapshotTo io.Writer `json:"-"`
	// RestoreFrom, when non-nil, resumes the run from a checkpoint written
	// by SnapshotTo: already-simulated kernels are skipped and all module
	// state (warmed L2, DRAM row state, scheduler counters, metrics) is
	// restored. The checkpoint's Identity must equal this run's, or the
	// restore fails with ErrSnapshotMismatch; EngineThreads may differ
	// freely as long as the effective epoch length does not.
	RestoreFrom io.Reader `json:"-"`
	// Sampling enables the sampled execution mode: kernel-launch
	// memoization with analytical replay plus representative-block (CTA)
	// sampling with Eq. 1-style extrapolation — see sample.go. Opt-in and
	// deterministic (bit-reproducible at every thread count for fixed
	// options); accuracy drift is bounded by the per-preset envelopes in
	// internal/regress. Composes with every Kind and with
	// EngineThreads/EpochCycles; incompatible with snapshot/restore (a
	// replayed launch has no simulated state to checkpoint).
	Sampling Sampling `json:"sampling"`
	// Trace is the observability handle (internal/obs). nil (or a tracer
	// below the relevant level) records nothing; with tracing on, the
	// engine, SMs, caches, NoC and DRAM emit spans and counter samples
	// into it. Tracing never changes simulation results or metrics.
	Trace *obs.Tracer `json:"-"`
}

// ErrInvalidOptions reports Options outside their domain: an unknown Kind
// or HitRates value, out-of-range sampling parameters, or sampling combined
// with snapshot/restore.
var ErrInvalidOptions = errors.New("sim: invalid options")

// Validate checks opts against their domain. RunCtx calls it before doing
// any work; callers that receive options from outside the process (the
// service's wire jobs) call it to refuse a job up front.
func (o Options) Validate() error {
	if o.Kind < Detailed || o.Kind > L2Hybrid {
		return fmt.Errorf("%w: unknown simulator kind %d", ErrInvalidOptions, int(o.Kind))
	}
	if o.HitRates != FunctionalCaches && o.HitRates != ReuseDistance {
		return fmt.Errorf("%w: unknown hit-rate source %d", ErrInvalidOptions, int(o.HitRates))
	}
	if !o.Sampling.Enabled {
		return nil
	}
	if err := o.Sampling.validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	if o.SnapshotTo != nil || o.RestoreFrom != nil {
		return fmt.Errorf("%w: sampled mode cannot be combined with snapshot/restore: a replayed launch has no simulated state to checkpoint", ErrInvalidOptions)
	}
	return nil
}

// Result is the outcome of simulating one application.
type Result struct {
	// App and GPUName identify the run.
	App     string
	GPUName string
	// Kind is the simulator configuration used.
	Kind Kind
	// Cycles is the predicted total execution time in GPU cycles.
	Cycles uint64
	// Wall is the host wall-clock time of the simulation (including
	// hit-rate extraction for Swift-Sim-Memory, as the paper's §IV
	// methodology counts it).
	Wall time.Duration
	// ProfileWall is the portion of Wall spent extracting hit rates for
	// Swift-Sim-Memory (zero for other Kinds, and near-zero when the
	// profile came from the memoization cache). Reports can subtract it
	// from Wall to separate modeling cost from simulation cost.
	ProfileWall time.Duration
	// Instructions is the number of warp instructions issued.
	Instructions uint64
	// KernelCycles records each kernel's (possibly extrapolated)
	// duration, in launch order.
	KernelCycles []uint64
	// Sampled reports whether block-level sampling was applied.
	Sampled bool
	// TickedCycles and SkippedCycles decompose simulated time into
	// cycles evaluated tick-by-tick vs fast-forwarded.
	TickedCycles  uint64
	SkippedCycles uint64
	// Metrics is the final counter snapshot from the Metrics Gatherer.
	Metrics map[string]uint64
	// Inventory lists every module with its modeling kind.
	Inventory []engine.ModuleInfo
}

// gpuAssembly holds one wired simulator instance.
type gpuAssembly struct {
	eng         *engine.Engine
	g           *metrics.Gatherer
	bs          *smcore.BlockScheduler
	l1s         []*cache.Timed
	sms         []*smcore.SM
	kernelIndex int
	// drain folds the per-shard metric shadows into g (nil when serial).
	// It runs before every probe sample and before the final snapshot, so
	// observed counters are identical to a serial run's.
	drain func()
}

// Run simulates app on gpu under opts and returns the result.
func Run(app *trace.App, gpu config.GPU, opts Options) (*Result, error) {
	return RunCtx(context.Background(), app, gpu, opts)
}

// RunCtx is Run with cooperative cancellation: the context is threaded into
// the simulation engine, which polls it every few thousand scheduler
// iterations. Canceling the context (or passing one with a deadline) stops
// the run promptly with an error wrapping engine.ErrCanceled and ctx.Err().
func RunCtx(ctx context.Context, app *trace.App, gpu config.GPU, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", app.Name, err)
	}
	if err := gpu.Validate(); err != nil {
		return nil, err
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	// Assembly-time schedulability validation: a kernel whose blocks can
	// never become resident used to surface as an engine deadlock (or a
	// warp-slot panic) deep inside the run; reject it up front instead.
	for ki, k := range app.Kernels {
		if err := smcore.ValidateKernel(gpu.SM, k); err != nil {
			return nil, fmt.Errorf("sim: %s kernel %d: %w", app.Name, ki, err)
		}
	}
	start := time.Now()

	// Only checkpointing runs pay for the identity hash. A checkpoint that
	// belongs to a different run is refused here, before any profiling or
	// assembly work.
	var id [32]byte
	var restore *snap.Reader
	if opts.SnapshotTo != nil || opts.RestoreFrom != nil {
		id = Identity(app, gpu, opts)
	}
	if opts.RestoreFrom != nil {
		r, err := openSnapshot(opts.RestoreFrom, id)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: restore: %w", app.Name, err)
		}
		restore = r
	}

	// Sampled execution mode (sample.go): representative-block subsets per
	// launch plus launch memoization. The representative app also drives
	// hit-rate profiling, so Swift-Sim-Memory's profiling cost shrinks with
	// the sample too.
	var smp *sampler
	if opts.Sampling.Enabled {
		smp, app = newSampler(app, gpu, opts.Sampling)
	}

	var prof *reuse.Profile
	var profileWall time.Duration
	if opts.Kind == Memory {
		// Hit-rate extraction is part of Swift-Sim-Memory's cost; it is
		// memoized across runs of the same trace and geometry.
		pStart := time.Now()
		prof = profileCached(app, gpu, opts.HitRates)
		profileWall = time.Since(pStart)
	}

	a, err := assemble(gpu, opts, prof)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", app.Name, err)
	}
	if smp != nil {
		smp.install(a)
	}
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1_000_000_000
	}

	tr := opts.Trace
	var ktid int32
	if tr.Enabled(obs.KernelLevel) {
		tr.NameProcess(app.Name)
		ktid = tr.RegisterTrack("kernels")
	}

	var overhead, extrapolated uint64
	kernelCycles := make([]uint64, 0, len(app.Kernels))
	firstKernel := 0
	if restore != nil {
		st, err := readSnapshot(a, restore, len(app.Kernels))
		if err != nil {
			return nil, fmt.Errorf("sim: %s: restore: %w", app.Name, err)
		}
		firstKernel = st.nextKernel
		kernelCycles = append(kernelCycles, st.kernelCycles...)
		extrapolated = st.extrapolated
		overhead = st.overhead
	}
	snapshotPending := opts.SnapshotTo != nil
	for ki := firstKernel; ki < len(app.Kernels); ki++ {
		k := app.Kernels[ki]
		if snapshotPending && a.eng.Cycle() >= opts.SnapshotAt {
			taken, err := writeSnapshot(a, opts.SnapshotTo, id, ki, kernelCycles, extrapolated, overhead)
			if err != nil {
				return nil, fmt.Errorf("sim: %s: snapshot: %w", app.Name, err)
			}
			snapshotPending = !taken
		}
		a.kernelIndex = ki
		if smp != nil {
			if kc, ok := smp.tryReplay(ctx, a, ki, maxCycles); ok {
				// Memoized launch: time advanced analytically, counters
				// gained the recorded delta, nothing was simulated.
				kernelCycles = append(kernelCycles, kc)
				extrapolated += kc
				overhead += opts.ExtraKernelOverhead
				if tr.Enabled(obs.KernelLevel) {
					tr.Emit(obs.Event{Name: k.Name, Cat: "kernel-replay", Ph: obs.PhaseSpan,
						Ts: a.eng.Cycle() - kc, Dur: kc, Tid: ktid,
						Arg1Name: "blocks", Arg1: uint64(len(k.Blocks)),
						Arg2Name: "index", Arg2: uint64(ki)})
				}
				continue
			}
			smp.beginLaunch(a, ki)
		}
		// Kernel-boundary L1 invalidation (non-coherent GPU L1s are
		// flushed between kernels); the L2 persists.
		for _, l1 := range a.l1s {
			l1.Invalidate()
		}
		kStart := a.eng.Cycle()
		a.bs.LaunchKernel(k)
		// The per-kernel budget is relative to the current cycle; clamp
		// the absolute limit so MaxCycles near math.MaxUint64 cannot wrap
		// into the past and turn the budget into an instant timeout.
		limit := kStart + maxCycles
		if limit < kStart {
			limit = math.MaxUint64
		}
		if _, err := a.eng.RunCtx(ctx, a.bs.KernelDone, limit); err != nil {
			return nil, fmt.Errorf("sim: %s kernel %d (%s): %w", app.Name, ki, k.Name, err)
		}
		if err := a.bs.Err(); err != nil {
			return nil, fmt.Errorf("sim: %s kernel %d (%s): %w", app.Name, ki, k.Name, err)
		}
		kc := a.eng.Cycle() - kStart
		if smp != nil {
			kc = smp.endLaunch(a, ki, a.eng.Cycle()-kStart)
		}
		kernelCycles = append(kernelCycles, kc)
		extrapolated += kc
		overhead += opts.ExtraKernelOverhead
		if tr.Enabled(obs.KernelLevel) {
			tr.Emit(obs.Event{Name: k.Name, Cat: "kernel", Ph: obs.PhaseSpan,
				Ts: kStart, Dur: a.eng.Cycle() - kStart, Tid: ktid,
				Arg1Name: "blocks", Arg1: uint64(len(k.Blocks)),
				Arg2Name: "index", Arg2: uint64(ki)})
		}
	}
	if snapshotPending {
		// Final boundary: the end of the run. Covers SnapshotAt values in
		// the last kernel and earlier boundaries skipped as non-quiescent.
		if a.eng.Cycle() < opts.SnapshotAt {
			return nil, fmt.Errorf("sim: %s: snapshot at cycle %d never taken: the run ended at cycle %d",
				app.Name, opts.SnapshotAt, a.eng.Cycle())
		}
		taken, err := writeSnapshot(a, opts.SnapshotTo, id, len(app.Kernels), kernelCycles, extrapolated, overhead)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: snapshot: %w", app.Name, err)
		}
		if !taken {
			return nil, fmt.Errorf("sim: %s: no quiescent kernel boundary at or after cycle %d to snapshot",
				app.Name, opts.SnapshotAt)
		}
	}
	if tr.Enabled(obs.ModuleLevel) {
		for _, sm := range a.sms {
			sm.FlushTrace(a.eng.Cycle())
		}
	}

	if a.drain != nil {
		a.drain()
	}
	total := extrapolated + overhead
	a.g.Set("gpu.cycles", total)
	return &Result{
		App:           app.Name,
		GPUName:       gpu.Name,
		Kind:          opts.Kind,
		Cycles:        total,
		Wall:          time.Since(start),
		ProfileWall:   profileWall,
		Instructions:  a.g.Value("sm.issued"),
		KernelCycles:  kernelCycles,
		Sampled:       smp != nil,
		TickedCycles:  a.eng.TickedCycles(),
		SkippedCycles: a.eng.SkippedCycles(),
		Metrics:       a.g.Snapshot(),
		Inventory:     a.eng.Inventory(),
	}, nil
}

// scaleLat applies the golden model's latency scale.
func scaleLat(l int, scale float64) int {
	if scale <= 0 {
		return l
	}
	v := int(float64(l) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// shardCount returns the number of engine shards the assembly distributes
// SMs over: EngineThreads clamped to NumSMs, and 1 for serial runs and for
// the Memory configuration, which has no shardable cycle-accurate state
// (its analytical models share order-dependent bandwidth meters).
func shardCount(gpu config.GPU, opts Options) int {
	n := min(opts.EngineThreads, gpu.NumSMs)
	if n < 2 || opts.Kind == Memory {
		return 1
	}
	return n
}

// effectiveEpoch returns the relaxed-sync epoch length the assembly runs:
// EpochCycles in a parallel assembly, else 1 (exact mode). Serial
// assemblies silently run exact — the CLIs reject that combination up
// front (cliutil.ValidateModes).
func effectiveEpoch(gpu config.GPU, opts Options) int {
	if opts.EpochCycles < 2 || shardCount(gpu, opts) < 2 {
		return 1
	}
	return opts.EpochCycles
}

// assemble wires one simulator instance per opts.Kind. Unsatisfiable unit
// or warp-slot configurations are reported as errors here, at assembly
// time, rather than as panics mid-simulation.
func assemble(gpu config.GPU, opts Options, prof *reuse.Profile) (*gpuAssembly, error) {
	eng := engine.New()
	g := metrics.New()
	a := &gpuAssembly{eng: eng, g: g}
	eng.SetTracer(opts.Trace)
	traceModule := opts.Trace.Enabled(obs.ModuleLevel)

	// Intra-simulation parallelism: SMs (and their private L1s/units) are
	// distributed over nShards engine shards; the shared modules (block
	// scheduler, NoC, L2, DRAM) stay serial.
	nShards := shardCount(gpu, opts)
	shardOf := func(smID int) int { return smID % nShards }
	var shadows []*metrics.Gatherer
	ctxFor := func(smID int) engine.Context { return eng }
	gFor := func(smID int) *metrics.Gatherer { return g }
	if nShards > 1 {
		eng.SetParallel(nShards)
		shadows = make([]*metrics.Gatherer, nShards)
		for s := range shadows {
			shadows[s] = metrics.New()
		}
		ctxFor = func(smID int) engine.Context { return eng.ShardContext(shardOf(smID)) }
		gFor = func(smID int) *metrics.Gatherer { return shadows[shardOf(smID)] }
		a.drain = func() {
			for _, s := range shadows {
				g.Absorb(s)
			}
		}
		eng.SetPreSample(a.drain)
	}

	// Relaxed-sync epochs engage only in parallel assemblies; an epoch
	// boundary (boundary.go) then carries each L1's downstream traffic,
	// because PreTick drains run inside the concurrent shard pass instead
	// of a serial pre-phase.
	epochK := effectiveEpoch(gpu, opts)
	var boundary *epochBoundary
	if epochK > 1 {
		eng.SetEpoch(epochK)
	}

	scale := opts.LatencyScale
	smCfg := gpu.SM
	if scale > 0 {
		smCfg.IntLatency = scaleLat(smCfg.IntLatency, scale)
		smCfg.SPLatency = scaleLat(smCfg.SPLatency, scale)
		smCfg.DPLatency = scaleLat(smCfg.DPLatency, scale)
		smCfg.SFULatency = scaleLat(smCfg.SFULatency, scale)
		smCfg.SharedMemLatency = scaleLat(smCfg.SharedMemLatency, scale)
	}

	// Memory hierarchy (all configurations except Memory, which models
	// the entire path analytically): one L1 per SM in front of either
	// the cycle-accurate NoC/L2/DRAM or the analytical Backend.
	var l1For func(smID int) mem.Port
	if opts.Kind == L2Hybrid {
		backend := analytic.NewBackend("membackend", eng, gpu, g)
		eng.AddModule(backend)
		l1cfg := gpu.L1
		l1cfg.HitLatency = scaleLat(l1cfg.HitLatency, scale)
		if epochK > 1 {
			boundary = newEpochBoundary("epochq", backend, g)
		}
		l1s := make([]*cache.Timed, gpu.NumSMs)
		for i := range l1s {
			var down mem.Port = backend
			if boundary != nil {
				down = boundary.port(i, ctxFor(i))
			}
			l1s[i] = cache.NewTimed("l1", l1cfg, mem.LevelL1, ctxFor(i), down, gFor(i))
			l1s[i].SetTracer(opts.Trace)
		}
		a.l1s = l1s
		l1For = func(smID int) mem.Port { return l1s[smID] }
		if traceModule {
			l1w := metrics.NewWindow(g.Counter("l1.hit"), g.Counter("l1.miss"))
			eng.AddProbe("l1_hit_permille", l1w.DeltaPermille)
		}
		defer func() {
			for i, l1 := range l1s {
				if nShards > 1 {
					eng.RegisterSharded(l1, shardOf(i))
				} else {
					eng.Register(l1)
				}
			}
			if boundary != nil {
				eng.Register(boundary)
			}
		}()
	} else if opts.Kind != Memory {
		l2cfg := gpu.L2
		l2cfg.HitLatency = scaleLat(l2cfg.HitLatency, scale)
		dramLat := scaleLat(gpu.DRAMLatency, scale)

		targets := make([]mem.Port, gpu.MemPartitions)
		var l2s []*cache.Timed
		var drams []*dram.Partition
		for p := 0; p < gpu.MemPartitions; p++ {
			dp := dram.New("dram", eng, gpu.DRAMBanksPerPartition, dramLat, gpu.DRAMRowHitLatency, g)
			l2 := cache.NewTimed("l2", l2cfg, mem.LevelL2, eng, dp, g)
			dp.SetTracer(opts.Trace)
			l2.SetTracer(opts.Trace)
			drams = append(drams, dp)
			l2s = append(l2s, l2)
			targets[p] = l2
		}
		lineBytes := uint64(gpu.L2.LineBytes)
		parts := uint64(gpu.MemPartitions)
		// XOR-hashed slice interleaving, as on real GPUs and Accel-Sim:
		// plain modulo would send power-of-two strides to one partition
		// (partition camping) and serialize the whole memory system.
		mapAddr := func(addr uint64) int {
			line := addr / lineBytes
			line ^= line >> 7
			line ^= line >> 13
			return int(line % parts)
		}
		var interconnect interface {
			mem.Port
			engine.Ticker
			SetTracer(*obs.Tracer)
			Occupancy() int
		}
		if gpu.NoCTopology == "ring" {
			// NoCLatency is the crossbar's end-to-end traversal; a
			// ring pays per hop, so the per-hop cost is derived from
			// it (≈2 cycles per hop for the default 12).
			hop := scaleLat(gpu.NoCLatency, scale) / 6
			if hop < 1 {
				hop = 1
			}
			interconnect = noc.NewRing("noc", eng, gpu.NumSMs, targets, mapAddr,
				uint64(hop), 2*gpu.MemPartitions, g)
		} else {
			// Per-destination throughput in sector-sized messages. Custom
			// configs can make the quotient zero (flit narrower than a
			// sector); clamp to 1 so the crossbar still drains. Validate()
			// rejects non-positive NoCFlitBytes, but assemblies built from
			// hand-rolled config.GPU values skip validation.
			flitsPerSector := gpu.NoCFlitBytes / gpu.L1.SectorBytes
			if flitsPerSector < 1 {
				flitsPerSector = 1
			}
			interconnect = noc.NewCrossbar("noc", eng, targets, mapAddr,
				uint64(scaleLat(gpu.NoCLatency, scale)), flitsPerSector, g)
		}

		interconnect.SetTracer(opts.Trace)

		l1cfg := gpu.L1
		l1cfg.HitLatency = scaleLat(l1cfg.HitLatency, scale)
		if epochK > 1 {
			boundary = newEpochBoundary("epochq", interconnect, g)
		}
		l1s := make([]*cache.Timed, gpu.NumSMs)
		for i := range l1s {
			var down mem.Port = interconnect
			if boundary != nil {
				down = boundary.port(i, ctxFor(i))
			}
			l1s[i] = cache.NewTimed("l1", l1cfg, mem.LevelL1, ctxFor(i), down, gFor(i))
			l1s[i].SetTracer(opts.Trace)
		}
		a.l1s = l1s
		l1For = func(smID int) mem.Port { return l1s[smID] }

		if traceModule {
			l1w := metrics.NewWindow(g.Counter("l1.hit"), g.Counter("l1.miss"))
			l2w := metrics.NewWindow(g.Counter("l2.hit"), g.Counter("l2.miss"))
			eng.AddProbe("l1_hit_permille", l1w.DeltaPermille)
			eng.AddProbe("l2_hit_permille", l2w.DeltaPermille)
			eng.AddProbe("noc_occupancy", func() uint64 { return uint64(interconnect.Occupancy()) })
			eng.AddProbe("dram_queue", func() uint64 {
				n := 0
				for _, dp := range drams {
					n += dp.QueueDepth()
				}
				return uint64(n)
			})
		}

		// Build SMs below, then register memory modules after them so
		// issue happens before same-cycle memory processing. The sharded
		// entries (SMs, then L1s) form a contiguous registration range;
		// the shared interconnect/L2/DRAM stay serial after it.
		defer func() {
			for i, l1 := range l1s {
				if nShards > 1 {
					eng.RegisterSharded(l1, shardOf(i))
				} else {
					eng.Register(l1)
				}
			}
			// The boundary ticks after the L1s and before the NoC, so
			// released traffic enters the interconnect the same cycle it
			// would have in exact mode's serial drain pre-phase.
			if boundary != nil {
				eng.Register(boundary)
			}
			eng.Register(interconnect)
			for _, l2 := range l2s {
				eng.Register(l2)
			}
			for _, dp := range drams {
				eng.Register(dp)
			}
		}()
	}

	// Execution units per configuration. In parallel mode each shard gets
	// its own provider instance bound to its shard context and metric
	// shadow; an SM's shard assignment is fixed, so intra-SM unit sharing
	// (the DP:0.5x pairs) is unaffected by the delegation.
	var units smcore.UnitSet
	switch opts.Kind {
	case Detailed:
		if nShards > 1 {
			sets := make([]smcore.UnitSet, nShards)
			for s := range sets {
				sets[s] = smcore.NewCycleAccurateUnits(smCfg, eng.ShardContext(s), shadows[s], gpu.L1.SectorBytes, l1For)
			}
			units = smcore.UnitSet{
				ALU: func(smID, sub int, class trace.OpClass) smcore.Unit {
					return sets[shardOf(smID)].ALU(smID, sub, class)
				},
				LDST: func(smID, sub int) smcore.Unit {
					return sets[shardOf(smID)].LDST(smID, sub)
				},
				ICache: func(smID, sub int) *smcore.ICache {
					return sets[shardOf(smID)].ICache(smID, sub)
				},
				ModelFrontEnd: true,
			}
		} else {
			units = smcore.NewCycleAccurateUnits(smCfg, eng, g, gpu.L1.SectorBytes, l1For)
		}
	case Basic, L2Hybrid:
		if nShards > 1 {
			alus := make([]func(smID, sub int, class trace.OpClass) smcore.Unit, nShards)
			ldsts := make([]func(smID, sub int) smcore.Unit, nShards)
			for s := range alus {
				alus[s] = analyticalALUs(smCfg, eng, eng.ShardContext(s), shadows[s])
				ldsts[s] = smcore.NewCycleAccurateUnits(smCfg, eng.ShardContext(s), shadows[s], gpu.L1.SectorBytes, l1For).LDST
			}
			units = smcore.UnitSet{
				ALU: func(smID, sub int, class trace.OpClass) smcore.Unit {
					return alus[shardOf(smID)](smID, sub, class)
				},
				LDST: func(smID, sub int) smcore.Unit {
					return ldsts[shardOf(smID)](smID, sub)
				},
			}
		} else {
			units = smcore.UnitSet{
				ALU:  analyticalALUs(smCfg, eng, eng, g),
				LDST: smcore.NewCycleAccurateUnits(smCfg, eng, g, gpu.L1.SectorBytes, l1For).LDST,
			}
		}
	case Memory:
		// Eq. 1's level latencies are end-to-end from the core: an L2
		// hit pays the L1 lookup, the NoC round trip and the L2 access;
		// a DRAM access additionally pays the DRAM latency. The DRAM
		// channel meter is rated from the detailed model's bank
		// occupancy (≈16 cycles per sector across banks×partitions);
		// each SM also has an L1-port meter at the banked L1's rate.
		l1Hit := scaleLat(gpu.L1.HitLatency, scale)
		l2End := l1Hit + 2*scaleLat(gpu.NoCLatency, scale) + scaleLat(gpu.L2.HitLatency, scale)
		dramEnd := l2End + scaleLat(gpu.DRAMLatency, scale)
		dramRate := 24.0 / float64(gpu.DRAMBanksPerPartition*gpu.MemPartitions)
		meter := analytic.NewBandwidthMeterRate(dramRate)
		nocMeter := analytic.NewBandwidthMeterRate(1 / float64(gpu.MemPartitions))
		l1Meters := make(map[int]*analytic.BandwidthMeter)
		params := analytic.MemModelParams{
			Profile:          prof,
			KernelIndex:      &a.kernelIndex,
			L1Latency:        l1Hit,
			L2Latency:        l2End,
			DRAMLatency:      dramEnd,
			SharedMemLatency: smCfg.SharedMemLatency,
			SectorBytes:      gpu.L1.SectorBytes,
			Lanes:            smCfg.LDSTLanes,
			DRAM:             meter,
			NoC:              nocMeter,
			DivergeCost:      20,
		}
		mshrMeters := make(map[int]*analytic.BandwidthMeter)
		units = smcore.UnitSet{
			ALU: analyticalALUs(smCfg, eng, eng, g),
			LDST: func(smID, sub int) smcore.Unit {
				p := params
				if m, ok := l1Meters[smID]; ok {
					p.L1Port = m
				} else {
					p.L1Port = analytic.NewBandwidthMeterRate(1 / float64(gpu.L1.Banks*gpu.L1.Throughput))
					l1Meters[smID] = p.L1Port
				}
				if m, ok := mshrMeters[smID]; ok {
					p.MSHR = m
				} else {
					p.MSHR = analytic.NewBandwidthMeterRate(1)
					mshrMeters[smID] = p.MSHR
				}
				p.MSHREntries = gpu.L1.MSHREntries
				u := analytic.NewMemModel("mem", eng, p, g)
				eng.AddModule(u)
				return u
			},
		}
	}

	units.Scheduler = opts.Scheduler

	// SMs and the Block Scheduler.
	sms := make([]*smcore.SM, gpu.NumSMs)
	var bs *smcore.BlockScheduler
	onBlockDone := func(sm *smcore.SM) { bs.BlockDone(sm) }
	for i := range sms {
		sm, err := smcore.NewSM(i, smCfg, ctxFor(i), units, gFor(i), onBlockDone)
		if err != nil {
			return nil, err
		}
		sm.SetTracer(opts.Trace)
		sms[i] = sm
	}
	a.sms = sms
	if traceModule {
		// "Active" means holding resident blocks — a memory-stalled SM is
		// still occupied. Busy() would report the idle-aware issue state
		// and zero out the timeline during long stalls.
		eng.AddProbe("active_sms", func() uint64 {
			n := 0
			for _, sm := range sms {
				if sm.ResidentBlocks() > 0 {
					n++
				}
			}
			return uint64(n)
		})
	}
	bs = smcore.NewBlockScheduler(sms, g)
	a.bs = bs
	eng.Register(bs)
	for i, sm := range sms {
		if nShards > 1 {
			eng.RegisterSharded(sm, shardOf(i))
		} else {
			eng.Register(sm)
		}
	}
	return a, nil
}

// analyticalALUs returns the ALU provider of the hybrid configurations:
// one ALUModel per sub-core per class, with DP shared per sub-core pair
// when the configuration is "DP:0.5x" — identical structure to the
// cycle-accurate provider, different modeling. ctx is the engine context
// the models schedule completions through (a shard context in parallel
// assemblies); eng is only used for the module inventory.
func analyticalALUs(cfg config.SM, eng *engine.Engine, ctx engine.Context, g *metrics.Gatherer) func(smID, sub int, class trace.OpClass) smcore.Unit {
	type dpKey struct{ sm, pair int }
	sharedDP := make(map[dpKey]*analytic.ALUModel)
	mk := func(name string, lat, lanes int) *analytic.ALUModel {
		u := analytic.NewALUModel(name, ctx, lat, cfg.IssueInterval(lanes), g)
		eng.AddModule(u)
		return u
	}
	return func(smID, sub int, class trace.OpClass) smcore.Unit {
		switch class {
		case trace.OpInt:
			return mk("alu.INT", cfg.IntLatency, cfg.IntLanes)
		case trace.OpSP:
			return mk("alu.SP", cfg.SPLatency, cfg.SPLanes)
		case trace.OpSFU:
			return mk("alu.SFU", cfg.SFULatency, cfg.SFULanes)
		default: // OpDP
			if !cfg.DPLanesHalf {
				return mk("alu.DP", cfg.DPLatency, cfg.DPLanes)
			}
			key := dpKey{smID, sub / 2}
			if u, ok := sharedDP[key]; ok {
				return u
			}
			u := mk("alu.DP", cfg.DPLatency, cfg.DPLanes)
			sharedDP[key] = u
			return u
		}
	}
}
