package sim

import (
	"crypto/sha256"
	"fmt"

	"swiftsim/internal/config"
	"swiftsim/internal/trace"
)

// Identity returns the run identity of simulating app on gpu under opts:
// a SHA-256 over everything that shapes the run's results. It is the one
// definition of "the same run" — the checkpoint identity section and the
// service's result-cache key both use it.
//
// It folds in the full GPU configuration (config.Marshal), the trace
// content (trace.ContentHash, so a re-parsed or re-generated copy of the
// same workload matches) and the result-affecting options as the run uses
// them: the epoch length is the effective one (effectiveEpoch: 0 and 1 are
// both exact mode, and serial and Memory assemblies always run exact) and
// sampling goes through Sampling.Effective. EngineThreads counts only
// through the effective epoch — at a fixed epoch length results are
// byte-identical at every shard count. The process-local Scheduler and
// Trace hooks are left out: a tracer never changes results, and a custom
// scheduler is a function the caller must keep stable.
func Identity(app *trace.App, gpu config.GPU, opts Options) [32]byte {
	h := sha256.New()
	h.Write(config.Marshal(gpu))
	th := trace.ContentHash(app)
	h.Write(th[:])
	sm := opts.Sampling.Effective()
	fmt.Fprintf(h, "kind=%d hitrates=%d maxcycles=%d latencyscale=%g overhead=%d epoch=%d\n",
		opts.Kind, opts.HitRates, opts.MaxCycles, opts.LatencyScale,
		opts.ExtraKernelOverhead, effectiveEpoch(gpu, opts))
	fmt.Fprintf(h, "sampling enabled=%t frac=%g stride=%d seed=%d\n",
		sm.Enabled, sm.BlockFraction, sm.ReplayStride, sm.Seed)
	var id [32]byte
	h.Sum(id[:0])
	return id
}
