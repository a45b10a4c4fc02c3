// Package service is the long-running sweep service behind cmd/swiftsimd:
// clients submit sweep specifications (applications × GPU presets ×
// simulator kinds), poll or stream per-job progress, and fetch results as
// the byte-stable canonical metric renderings of internal/regress.
//
// Three properties distinguish it from a one-shot cmd/sweep run:
//
//   - Persistent caching: every job's canonical result is stored on disk
//     keyed by (code version, GPU config, trace content hash, simulator
//     options) — see key.go — so a repeated submission is served without
//     simulating, across restarts. In-process, identical concurrent jobs
//     are single-flighted: one simulates, the rest wait for its value.
//   - Admission control: the total number of queued-plus-running jobs is
//     bounded by Config.QueueDepth. A submission that would exceed it is
//     shed immediately (ErrQueueFull → HTTP 429) instead of building an
//     unbounded backlog.
//   - Graceful drain: Close stops admissions (ErrDraining → HTTP 503),
//     lets queued sweeps finish, and hard-cancels in-flight simulations
//     only when its context expires.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/obs"
	"swiftsim/internal/regress"
	"swiftsim/internal/runner"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// Config tunes a Service.
type Config struct {
	// CacheDir is the persistent result cache directory ("" disables
	// persistence is not supported — the daemon always has one; tests use
	// t.TempDir()).
	CacheDir string
	// QueueDepth bounds queued-plus-running jobs across all sweeps
	// (0 = 64). A submission whose jobs would exceed it is rejected with
	// ErrQueueFull; a single sweep larger than the whole depth can never
	// be admitted.
	QueueDepth int
	// Workers is the number of sweeps executed concurrently (0 = 1).
	// Parallelism *within* a sweep is Threads.
	Workers int
	// Threads is the per-sweep worker-pool size handed to runner.Run
	// (0 = NumCPU).
	Threads int
	// MaxJobTimeout caps (and defaults) the per-job wall-clock budget a
	// spec may request (0 = no cap, no default).
	MaxJobTimeout time.Duration
	// EngineThreads is the daemon-wide default engine shard count for
	// specs that leave engine_threads unset (0 or 1 = serial engine).
	EngineThreads int
	// EpochCycles is the daemon-wide default relaxed-sync epoch length
	// for specs that leave epoch_cycles unset (0 or 1 = exact mode). A
	// value > 1 requires EngineThreads > 1; New rejects the contradiction.
	EpochCycles int
	// Sampling is the daemon-wide default sampled-execution mode for
	// specs that leave `sample` unset. Sampled results legitimately
	// differ from exact ones, so the effective sampling parameters are
	// part of every job's cache key.
	Sampling SamplingDefaults
	// Trace is the daemon-wide observability handle (nil records
	// nothing). Each sweep gets its own block of trace pids and the
	// recorder is flushed after every finished sweep.
	Trace *obs.Tracer
	// Remote, when enabled, switches job execution to the distributed
	// plane: cache misses are published to the lease-based job board and
	// executed by swiftsim-worker processes pulling over HTTP, instead of
	// simulated in this process.
	Remote RemoteConfig
}

// RemoteConfig tunes the distributed execution plane (lease.go).
type RemoteConfig struct {
	// Enabled turns remote execution on. With it off, the worker and
	// store endpoints still serve (a warm worker fleet can register
	// early) but jobs always run in-process.
	Enabled bool
	// LeaseTTL is how long a claimed job stays owned without a heartbeat
	// before it is requeued to another worker (0 = 10s).
	LeaseTTL time.Duration
	// MaxAttempts bounds how many leases a job may burn through before
	// it fails terminally (0 = 3).
	MaxAttempts int
}

// SamplingDefaults is the daemon-wide sampled-execution default applied to
// specs that do not set `sample` themselves (an alias of sim.Sampling; see
// its fields for semantics).
type SamplingDefaults = sim.Sampling

// Sentinel errors mapped to HTTP statuses by http.go.
var (
	// ErrQueueFull sheds a submission that would exceed QueueDepth (429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects submissions after Close began (503).
	ErrDraining = errors.New("service: draining, not accepting sweeps")
	// ErrNotFound reports an unknown sweep id (404).
	ErrNotFound = errors.New("service: no such sweep")
)

// Spec is a sweep submission. Zero-valued fields get defaults: all
// catalog applications, the three GPU presets, the memory simulator,
// scale 0.25.
type Spec struct {
	Apps  []string `json:"apps,omitempty"`
	GPUs  []string `json:"gpus,omitempty"`
	Sims  []string `json:"sims,omitempty"`
	Scale float64  `json:"scale,omitempty"`
	// JobTimeout is a Go duration string ("30s"); clamped to the
	// service's MaxJobTimeout.
	JobTimeout string `json:"job_timeout,omitempty"`
	// FailFast cancels the sweep's remaining jobs after its first
	// failure; never-started jobs finish as "skipped".
	FailFast bool `json:"fail_fast,omitempty"`
	// EngineThreads shards each simulation's engine (0 = the daemon's
	// -engine-threads default). Results are byte-identical at every shard
	// count, so it does not enter the cache key.
	EngineThreads int `json:"engine_threads,omitempty"`
	// EpochCycles is the relaxed-sync epoch length (0 = the daemon's
	// -epoch-cycles default; 1 = exact per-cycle barrier). A value > 1
	// requires engine_threads > 1 and legitimately shifts results, so it
	// is part of the cache key.
	EpochCycles int `json:"epoch_cycles,omitempty"`
	// Sample runs every job of the sweep in sampled execution mode:
	// repeated kernel launches replay a recorded outcome and each launch
	// simulates only a representative block subset, with the remainder
	// extrapolated analytically. Sampled cycles legitimately differ from
	// exact ones, so the effective sampling parameters are part of the
	// cache key. When unset, the daemon's -sample default applies (and
	// the tuning fields below must be zero).
	Sample bool `json:"sample,omitempty"`
	// SampleFrac is the fraction of post-first-wave blocks to simulate
	// per launch, in (0,1); 0 = the simulator default.
	SampleFrac float64 `json:"sample_frac,omitempty"`
	// SampleStride re-simulates every Nth repeated launch; 0 = the
	// simulator default, 1 disables launch replay.
	SampleStride int `json:"sample_stride,omitempty"`
	// SampleSeed drives the representative-block selection; equal seeds
	// (and parameters) give bit-identical sampled results.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
}

// Job states reported in statuses and progress events.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	StateSkipped = "skipped"
)

// JobStatus is the externally visible state of one job of a sweep.
type JobStatus struct {
	App   string `json:"app"`
	GPU   string `json:"gpu"`
	Sim   string `json:"sim"`
	State string `json:"state"`
	// Cached reports the job was served without simulating here: from
	// the persistent cache or by joining another sweep's identical job.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Event is one line of a sweep's progress stream. Type "job" events carry
// a job transition; the single trailing "sweep" event carries the final
// tally.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "job" | "sweep"
	// Job fields (Type "job").
	Job    int    `json:"job,omitempty"`
	App    string `json:"app,omitempty"`
	GPU    string `json:"gpu,omitempty"`
	Sim    string `json:"sim,omitempty"`
	State  string `json:"state,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Tally fields (Type "sweep", and maintained on job events too).
	Done   int `json:"done,omitempty"`
	Failed int `json:"failed,omitempty"`
	Total  int `json:"total,omitempty"`
}

// Status is a sweep's poll response.
type Status struct {
	ID     string      `json:"id"`
	Done   bool        `json:"done"`
	Total  int         `json:"total"`
	Ok     int         `json:"ok"`
	Failed int         `json:"failed"`
	Cached int         `json:"cached"`
	Jobs   []JobStatus `json:"jobs"`
}

// job is one resolved (app, gpu, sim) cell of a sweep.
type job struct {
	app  *trace.App
	gpu  config.GPU
	opts sim.Options
	sim  string // report name (sim.Kind.String())
	key  string
}

// Sweep is one submitted sweep. All mutable state is guarded by mu;
// waiters block on cond (broadcast on every event and at completion).
type Sweep struct {
	id         string
	jobs       []job
	jobTimeout time.Duration
	failFast   bool
	// engineThreads is the sweep's effective engine shard count; the
	// runner shrinks its job pool by it so the thread budget holds.
	engineThreads int

	mu     sync.Mutex
	cond   *sync.Cond
	status []JobStatus
	events []Event
	result [][]byte // canonical bytes per succeeded job
	okJobs int
	failed int
	done   bool
}

// ID returns the sweep's identifier.
func (sw *Sweep) ID() string { return sw.id }

// Service is the sweep service. Create with New, serve over HTTP with
// NewHandler, stop with Close.
type Service struct {
	cfg   Config
	cache *Cache
	store *Store // the cache's blob store, served over /v1/store
	board *board // the lease-based job board (always present; used when cfg.Remote.Enabled)

	ctx    context.Context // canceled only by hard drain
	cancel context.CancelFunc
	queue  chan *Sweep
	wg     sync.WaitGroup

	mu       sync.Mutex
	sweeps   map[string]*Sweep
	nextID   int
	nextPid  int
	pending  int // queued + running jobs, the admission-control gauge
	shed     uint64
	draining bool

	// execHook, when set (tests only), runs at the top of each sweep's
	// execution — before any job starts — so tests can hold a worker in
	// a known state.
	execHook func(*Sweep)
}

// Stats is the service-wide observability snapshot.
type Stats struct {
	Cache       CacheStats `json:"cache"`
	Store       StoreStats `json:"store"`
	Remote      BoardStats `json:"remote"`
	PendingJobs int        `json:"pending_jobs"`
	Sweeps      int        `json:"sweeps"`
	Shed        uint64     `json:"shed"`
}

// New starts a Service with cfg's worker pool running.
func New(cfg Config) (*Service, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.EngineThreads < 0 || cfg.EpochCycles < 0 {
		return nil, fmt.Errorf("service: negative engine defaults (engine_threads %d, epoch_cycles %d)", cfg.EngineThreads, cfg.EpochCycles)
	}
	if cfg.EpochCycles > 1 && cfg.EngineThreads <= 1 {
		return nil, fmt.Errorf("service: default epoch_cycles %d needs a parallel engine: set EngineThreads > 1", cfg.EpochCycles)
	}
	if err := validateSampling(cfg.Sampling); err != nil {
		return nil, fmt.Errorf("service: default sampling: %w", err)
	}
	if cfg.Remote.LeaseTTL < 0 || cfg.Remote.MaxAttempts < 0 {
		return nil, fmt.Errorf("service: negative remote tuning (lease_ttl %v, max_attempts %d)", cfg.Remote.LeaseTTL, cfg.Remote.MaxAttempts)
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:    cfg,
		cache:  cache,
		store:  cache.BlobStore(),
		board:  newBoard(cfg.Remote.LeaseTTL, cfg.Remote.MaxAttempts),
		ctx:    ctx,
		cancel: cancel,
		// Admission caps total jobs at QueueDepth and every sweep has at
		// least one job, so at most QueueDepth sweeps are ever queued —
		// the send in Submit can never block.
		queue:  make(chan *Sweep, cfg.QueueDepth),
		sweeps: make(map[string]*Sweep),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit validates and admits a sweep, returning it queued. The sweep
// runs asynchronously; follow it with Status / WaitEvents / Results.
func (s *Service) Submit(spec Spec) (*Sweep, error) {
	jobs, timeout, engineThreads, err := s.resolve(spec)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.pending+len(jobs) > s.cfg.QueueDepth {
		s.shed++
		pending := s.pending
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d job(s) pending, %d submitted, depth %d",
			ErrQueueFull, pending, len(jobs), s.cfg.QueueDepth)
	}
	s.pending += len(jobs)
	s.nextID++
	sw := &Sweep{
		id:            fmt.Sprintf("s%d", s.nextID),
		jobs:          jobs,
		jobTimeout:    timeout,
		failFast:      spec.FailFast,
		engineThreads: engineThreads,
		status:        make([]JobStatus, len(jobs)),
		result:        make([][]byte, len(jobs)),
	}
	sw.cond = sync.NewCond(&sw.mu)
	for i, jb := range jobs {
		sw.status[i] = JobStatus{App: jb.app.Name, GPU: jb.gpu.Name, Sim: jb.sim, State: StatePending}
	}
	s.sweeps[sw.id] = sw
	// The send stays under the lock: it can never block (see the queue's
	// capacity invariant in New), and serializing it with Close's
	// draining flip makes a send on the closed queue impossible.
	s.queue <- sw
	s.mu.Unlock()
	return sw, nil
}

// resolve expands a spec into its jobs (GPUs outermost, then apps, then
// sims — the deterministic order of the regression corpus) and validates
// every name up front so admission is all-or-nothing. The third return is
// the sweep's effective engine shard count for the runner's pool split.
func (s *Service) resolve(spec Spec) ([]job, time.Duration, int, error) {
	appNames := spec.Apps
	if len(appNames) == 0 {
		appNames = workload.Names()
	}
	gpuNames := spec.GPUs
	if len(gpuNames) == 0 {
		gpuNames = config.PresetNames()
	}
	simNames := spec.Sims
	if len(simNames) == 0 {
		simNames = []string{"memory"}
	}
	scale := spec.Scale
	if scale == 0 {
		scale = 0.25
	}
	if scale < 0 {
		return nil, 0, 0, fmt.Errorf("service: negative scale %g", scale)
	}

	if spec.EngineThreads < 0 {
		return nil, 0, 0, fmt.Errorf("service: negative engine_threads %d", spec.EngineThreads)
	}
	if spec.EpochCycles < 0 {
		return nil, 0, 0, fmt.Errorf("service: negative epoch_cycles %d", spec.EpochCycles)
	}
	engineThreads := spec.EngineThreads
	if engineThreads == 0 {
		engineThreads = s.cfg.EngineThreads
	}
	epoch := spec.EpochCycles
	if epoch == 0 {
		epoch = s.cfg.EpochCycles
	}
	// The effective pair is validated, not the raw spec: a spec asking for
	// engine_threads 1 against a daemon whose default epoch is relaxed
	// would otherwise silently run an epoch the simulator ignores.
	if epoch > 1 && engineThreads <= 1 {
		return nil, 0, 0, fmt.Errorf("service: epoch_cycles %d needs a parallel engine: set engine_threads > 1 (or drop epoch_cycles for the exact run)", epoch)
	}

	sampling := sim.Sampling(s.cfg.Sampling)
	if spec.Sample {
		sampling = sim.Sampling{
			Enabled:       true,
			BlockFraction: spec.SampleFrac,
			ReplayStride:  spec.SampleStride,
			Seed:          spec.SampleSeed,
		}
	} else if spec.SampleFrac != 0 || spec.SampleStride != 0 || spec.SampleSeed != 0 {
		// Tuning fields without the mode switch would be silently dead
		// settings; reject the contradiction like the CLIs do.
		return nil, 0, 0, fmt.Errorf("service: sample_frac/sample_stride/sample_seed have no effect without sample")
	}
	if err := validateSampling(sampling); err != nil {
		return nil, 0, 0, fmt.Errorf("service: %w", err)
	}

	var timeout time.Duration
	if spec.JobTimeout != "" {
		d, err := time.ParseDuration(spec.JobTimeout)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("service: job_timeout: %w", err)
		}
		if d < 0 {
			return nil, 0, 0, fmt.Errorf("service: negative job_timeout %v", d)
		}
		timeout = d
	}
	if max := s.cfg.MaxJobTimeout; max > 0 && (timeout == 0 || timeout > max) {
		timeout = max
	}

	apps := make([]*trace.App, len(appNames))
	for i, name := range appNames {
		app, err := workload.Generate(name, scale)
		if err != nil {
			return nil, 0, 0, err
		}
		apps[i] = app
	}
	gpus := make([]config.GPU, len(gpuNames))
	for i, name := range gpuNames {
		g, ok := config.Preset(name)
		if !ok {
			return nil, 0, 0, fmt.Errorf("service: unknown GPU preset %q (want one of %v)", name, config.PresetNames())
		}
		gpus[i] = g
	}
	kinds := make([]sim.Kind, len(simNames))
	for i, name := range simNames {
		k, err := parseKind(name)
		if err != nil {
			return nil, 0, 0, err
		}
		kinds[i] = k
	}

	var jobs []job
	for _, g := range gpus {
		for _, a := range apps {
			for _, k := range kinds {
				opts := sim.Options{Kind: k, EngineThreads: engineThreads, EpochCycles: epoch, Sampling: sampling}
				jobs = append(jobs, job{
					app: a, gpu: g, opts: opts, sim: k.String(),
					key: jobKey(a, g, opts),
				})
			}
		}
	}
	return jobs, timeout, engineThreads, nil
}

// validateSampling bounds an enabled sampling configuration (disabled
// sampling is always valid; tuning fields are checked against the mode
// switch by the caller).
func validateSampling(sm sim.Sampling) error {
	if !sm.Enabled {
		return nil
	}
	if sm.BlockFraction < 0 || sm.BlockFraction >= 1 {
		return fmt.Errorf("sample_frac must be in (0,1) (0 = simulator default), got %g", sm.BlockFraction)
	}
	if sm.ReplayStride < 0 {
		return fmt.Errorf("sample_stride must be >= 0 (0 = simulator default, 1 = no replay), got %d", sm.ReplayStride)
	}
	return nil
}

// parseKind maps the spec's simulator spelling (the cmd/explore -sim
// vocabulary) to a sim.Kind.
func parseKind(name string) (sim.Kind, error) {
	switch name {
	case "detailed":
		return sim.Detailed, nil
	case "basic":
		return sim.Basic, nil
	case "memory":
		return sim.Memory, nil
	case "l2":
		return sim.L2Hybrid, nil
	default:
		return 0, fmt.Errorf("service: unknown simulator %q (want detailed|basic|memory|l2)", name)
	}
}

// Sweep looks a sweep up by id.
func (s *Service) Sweep(id string) (*Sweep, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return sw, nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Cache:       s.cache.Stats(),
		Store:       s.store.Stats(),
		Remote:      s.board.Stats(),
		PendingJobs: s.pending,
		Sweeps:      len(s.sweeps),
		Shed:        s.shed,
	}
}

// Close drains the service: admissions stop immediately, queued and
// running sweeps are given until ctx expires to finish, then in-flight
// simulations are hard-canceled (their jobs fail with context.Canceled
// and the sweeps still complete). Close returns when all workers exited.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: Close called twice")
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.board.Close(nil)
		return nil
	case <-ctx.Done():
		s.cancel() // hard drain: cancel in-flight simulations
		// Resolving the board's outstanding jobs is what unblocks sweeps
		// waiting on remote leases, so it happens before waiting for the
		// workers to exit.
		s.board.Close(context.Canceled)
		<-done
		return ctx.Err()
	}
}

// worker executes queued sweeps until the queue closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for sw := range s.queue {
		s.runSweep(sw)
	}
}

// runSweep executes one sweep: claim every job against the cache, run the
// owned misses on a runner pool, then collect jobs that joined another
// claimant's flight.
func (s *Service) runSweep(sw *Sweep) {
	if hook := s.execHook; hook != nil {
		hook(sw)
	}

	// The sweep's trace pids: a disjoint block per sweep, derived from
	// the daemon tracer (pid 0 stays the daemon's own row).
	var tr *obs.Tracer
	if s.cfg.Trace != nil {
		s.mu.Lock()
		base := s.nextPid + 1
		s.nextPid += len(sw.jobs) + 1
		s.mu.Unlock()
		tr = s.cfg.Trace.WithPid(base)
	}

	// Phase 1: claim. Owned misses go to the runner; flights owned by
	// someone else are collected in phase 3.
	type joined struct {
		idx    int
		flight *Flight
	}
	var misses []int
	flights := make(map[int]*Flight)
	var joins []joined
	for i := range sw.jobs {
		val, hit, owner, f := s.cache.Claim(sw.jobs[i].key)
		switch {
		case hit:
			s.finishJob(sw, i, val, nil, true)
		case owner:
			misses = append(misses, i)
			flights[i] = f
		default:
			joins = append(joins, joined{idx: i, flight: f})
		}
	}

	// Phase 2: simulate the misses — remotely on the lease plane when
	// configured, else on the in-process runner pool. Either way every
	// owned flight is resolved exactly once.
	if len(misses) > 0 && s.cfg.Remote.Enabled {
		s.runRemote(sw, misses, flights)
	} else if len(misses) > 0 {
		jobs := make([]runner.Job, len(misses))
		for k, i := range misses {
			jobs[k] = runner.Job{App: sw.jobs[i].app, GPU: sw.jobs[i].gpu, Opts: sw.jobs[i].opts}
		}
		runner.Run(jobs, s.cfg.Threads, runner.Options{
			Ctx:        s.ctx,
			JobTimeout: sw.jobTimeout,
			FailFast:   sw.failFast,
			Trace:      tr,
			// Each job's sim.Options already carries the sweep's effective
			// EngineThreads/EpochCycles; passing EngineThreads here shrinks
			// the runner's job pool so the thread budget stays bounded.
			EngineThreads: sw.engineThreads,
			OnStart: func(k int) {
				s.startJob(sw, misses[k])
			},
			OnProgress: func(p runner.Progress) {
				i := misses[p.JobIndex]
				if p.Err != nil {
					s.cache.Fail(flights[i], p.Err)
					s.finishJob(sw, i, nil, p.Err, false)
					return
				}
				data := regress.Canonical(p.Result)
				// A failed disk write only costs persistence; the value
				// still serves this sweep and its joiners.
				_ = s.cache.Fulfill(flights[i], data)
				s.finishJob(sw, i, data, nil, false)
			},
		})
	}

	// Phase 3: collect joined flights. Owners always resolve their
	// flights (even for skipped jobs), so these waits terminate; s.ctx
	// guards against a hard drain racing an owner.
	for _, j := range joins {
		val, err := j.flight.Wait(s.ctx)
		s.finishJob(sw, j.idx, val, err, err == nil)
	}

	sw.mu.Lock()
	sw.done = true
	sw.appendEventLocked(Event{
		Type: "sweep", Done: sw.okJobs + sw.failed, Failed: sw.failed, Total: len(sw.jobs),
	})
	sw.mu.Unlock()

	// Flushing keeps a streaming trace file current between sweeps; a
	// flush error is non-fatal here and resurfaces at daemon Close.
	_ = tr.Flush()
}

// runRemote executes a sweep's cache misses on the distributed plane:
// each job's inputs (trace, GPU config) are published to the blob store,
// the job is posted to the lease board, and remote workers claim,
// simulate and publish canonical results by hash. Worker loss surfaces
// as lease expiry and requeue (lease.go); the call returns when every
// miss reached a terminal state.
func (s *Service) runRemote(sw *Sweep, misses []int, flights map[int]*Flight) {
	var wg sync.WaitGroup
	var failOnce sync.Once
	keys := make([]string, len(misses))
	for k, i := range misses {
		keys[k] = sw.jobs[i].key
	}
	// FailFast: terminally skip the sweep's other board jobs. Cancel
	// ignores keys that already resolved, and a leased job's worker
	// learns on its next heartbeat.
	cancelRest := func() {
		for _, key := range keys {
			s.board.Cancel(key, fmt.Errorf("%w: fail-fast after another job's failure", runner.ErrJobSkipped))
		}
	}
	for _, i := range misses {
		jb := &sw.jobs[i]
		wire, err := s.publishJob(jb, sw.jobTimeout)
		if err != nil {
			s.cache.Fail(flights[i], err)
			s.finishJob(sw, i, nil, err, false)
			continue
		}
		flight := flights[i]
		idx := i
		wg.Add(1)
		s.board.Enqueue(&boardJob{
			key:     jb.key,
			wire:    wire,
			onStart: func(string) { s.startJob(sw, idx) },
			done: func(val []byte, err error) {
				defer wg.Done()
				if err != nil {
					s.cache.Fail(flight, err)
					s.finishJob(sw, idx, nil, err, false)
					if sw.failFast {
						failOnce.Do(cancelRest)
					}
					return
				}
				// A failed ref write only costs persistence, as in the
				// local path; the blob itself is already in the store.
				_ = s.cache.Fulfill(flight, val)
				s.finishJob(sw, idx, val, nil, false)
			},
		})
	}
	wg.Wait()
}

// publishJob uploads one job's inputs into the blob store and builds its
// wire descriptor (lease fields are stamped at claim time).
func (s *Service) publishJob(jb *job, timeout time.Duration) (WireJob, error) {
	var buf bytes.Buffer
	if err := trace.Write(&buf, jb.app); err != nil {
		return WireJob{}, fmt.Errorf("serializing trace: %w", err)
	}
	traceHash, err := s.store.Put(buf.Bytes())
	if err != nil {
		return WireJob{}, fmt.Errorf("publishing trace blob: %w", err)
	}
	confHash, err := s.store.Put(config.Marshal(jb.gpu))
	if err != nil {
		return WireJob{}, fmt.Errorf("publishing config blob: %w", err)
	}
	timeoutMS := timeout.Milliseconds()
	if timeout > 0 && timeoutMS == 0 {
		// A sub-millisecond budget must stay a budget: truncating it to 0
		// would read as "no timeout" on the worker.
		timeoutMS = 1
	}
	return WireJob{
		Key: jb.key, App: jb.app.Name, GPU: jb.gpu.Name, Sim: jb.sim,
		TraceBlob: traceHash, ConfigBlob: confHash,
		Opts:      jb.opts,
		TimeoutMS: timeoutMS,
	}, nil
}

// startJob transitions a job to running and emits its event.
func (s *Service) startJob(sw *Sweep, i int) {
	sw.mu.Lock()
	sw.status[i].State = StateRunning
	st := sw.status[i]
	sw.appendEventLocked(Event{
		Type: "job", Job: i, App: st.App, GPU: st.GPU, Sim: st.Sim,
		State: StateRunning,
		Done:  sw.okJobs + sw.failed, Failed: sw.failed, Total: len(sw.jobs),
	})
	sw.mu.Unlock()
}

// finishJob records a job's terminal state, stores its canonical result,
// emits its event and returns its admission-control slot.
func (s *Service) finishJob(sw *Sweep, i int, val []byte, err error, cached bool) {
	sw.mu.Lock()
	st := &sw.status[i]
	st.Cached = cached
	switch {
	case err == nil:
		st.State = StateDone
		sw.result[i] = val
		sw.okJobs++
	case errors.Is(err, runner.ErrJobSkipped):
		st.State = StateSkipped
		st.Error = err.Error()
		sw.failed++
	default:
		st.State = StateFailed
		st.Error = err.Error()
		sw.failed++
	}
	ev := Event{
		Type: "job", Job: i, App: st.App, GPU: st.GPU, Sim: st.Sim,
		State: st.State, Cached: st.Cached, Error: st.Error,
		Done: sw.okJobs + sw.failed, Failed: sw.failed, Total: len(sw.jobs),
	}
	sw.appendEventLocked(ev)
	sw.mu.Unlock()

	s.mu.Lock()
	s.pending--
	s.mu.Unlock()
}

// appendEventLocked stamps, stores and broadcasts an event. Callers hold
// sw.mu.
func (sw *Sweep) appendEventLocked(ev Event) {
	ev.Seq = len(sw.events)
	sw.events = append(sw.events, ev)
	sw.cond.Broadcast()
}

// Status snapshots the sweep.
func (sw *Sweep) Status() Status {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := Status{
		ID: sw.id, Done: sw.done, Total: len(sw.jobs),
		Ok: sw.okJobs, Failed: sw.failed,
		Jobs: append([]JobStatus(nil), sw.status...),
	}
	for _, j := range st.Jobs {
		if j.Cached {
			st.Cached++
		}
	}
	return st
}

// WaitEvents blocks until the sweep has events beyond offset `from` (or
// is done, or ctx expires) and returns them plus whether the sweep is
// complete. A finished sweep returns its remaining events immediately;
// (nil, true, nil) means the stream is exhausted.
func (sw *Sweep) WaitEvents(ctx context.Context, from int) ([]Event, bool, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for len(sw.events) <= from && !sw.done {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		// Wake the cond wait when ctx is canceled: cond has no native
		// context support, so a watcher broadcasts on expiry.
		stop := context.AfterFunc(ctx, func() {
			sw.mu.Lock()
			defer sw.mu.Unlock()
			sw.cond.Broadcast()
		})
		sw.cond.Wait()
		stop()
	}
	if from > len(sw.events) {
		from = len(sw.events)
	}
	return append([]Event(nil), sw.events[from:]...), sw.done, nil
}

// Results renders the sweep's results: the canonical metric blocks of its
// succeeded jobs concatenated in job order. The bytes are deliberately
// free of anything run-dependent (cache hits, timings), so two identical
// submissions produce byte-identical bodies — the property the cache
// relies on and the end-to-end tests pin. An unfinished sweep has no
// results yet.
func (sw *Sweep) Results() ([]byte, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.done {
		return nil, fmt.Errorf("service: sweep %s still running", sw.id)
	}
	var out []byte
	for _, r := range sw.result {
		out = append(out, r...)
	}
	return out, nil
}
