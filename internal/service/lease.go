package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"swiftsim/internal/sim"
)

// This file is the daemon side of the distributed execution plane: a job
// board that hands simulation jobs to remote swiftsim-worker processes
// under time-bounded leases.
//
// Lease state machine (per job):
//
//	pending ──claim──▶ leased ──fulfill/fail──▶ done
//	   ▲                  │
//	   └──lease expiry────┘   (attempts++, until the retry budget;
//	                           exhausting it is a terminal failure)
//
// Ownership is a lease, not a fact: a worker owns a job only while its
// heartbeats keep the lease's deadline in the future. A worker that dies
// mid-job simply stops heartbeating; the reaper requeues the job and
// another worker picks it up. Every grant carries a fencing token — the
// job's monotonically increasing grant counter — and a fulfill must
// present the token of the grant it is completing, so a presumed-dead
// worker's late result for an already-requeued job is rejected instead
// of double-committing (exactly-once result commitment; the bytes are
// identical by construction, but the accounting must fire once).
//
// The board holds no simulation state. Jobs reference their inputs
// (trace, GPU config) as content hashes into the Store and workers
// publish results the same way, so the wire format is a few hundred
// bytes per job regardless of trace size.

// Default lease plane tuning (overridable via RemoteConfig).
const (
	defaultLeaseTTL     = 10 * time.Second
	defaultLeaseRetries = 3
)

// Lease plane sentinel errors (HTTP mapping in http.go).
var (
	// ErrStaleLease rejects a fulfill/fail for a lease that is no longer
	// current — expired and requeued, canceled, superseded by a newer
	// grant, or already resolved (409).
	ErrStaleLease = errors.New("service: stale lease")
	// ErrUnknownWorker rejects requests from unregistered worker ids (404).
	ErrUnknownWorker = errors.New("service: unknown worker")
	// ErrRetriesExhausted fails a job whose every lease expired without a
	// result.
	ErrRetriesExhausted = errors.New("service: job retry budget exhausted (worker leases kept expiring)")
	// errBoardClosed resolves jobs still outstanding when the board shuts
	// down.
	errBoardClosed = errors.New("service: job board closed")
)

// WireJob is the job descriptor a worker receives from a successful
// claim: the job's identity, its lease, and content-hash references to
// its inputs. The worker fetches the blobs from GET /v1/store/{hash},
// simulates, publishes the canonical result bytes via POST /v1/store and
// commits with POST /v1/leases/{id}/result.
type WireJob struct {
	// Key is the job's cache key — its identity across the plane.
	Key string `json:"key"`
	// LeaseID and Token identify this grant. Token is the fencing token:
	// it increments on every grant of the job, and a commit must present
	// the token it was granted with.
	LeaseID string `json:"lease_id"`
	Token   uint64 `json:"token"`
	// Attempt counts prior expired leases of this job.
	Attempt int `json:"attempt"`
	// App/GPU/Sim label the job for logs and traces.
	App string `json:"app"`
	GPU string `json:"gpu"`
	Sim string `json:"sim"`
	// TraceBlob and ConfigBlob are store hashes of the application trace
	// (trace.Write serialization) and the GPU configuration
	// (config.Marshal serialization).
	TraceBlob  string `json:"trace_blob"`
	ConfigBlob string `json:"config_blob"`
	// Opts carries the simulator options; only the result-affecting
	// fields serialize (the process-local hooks are tagged out).
	Opts sim.Options `json:"opts"`
	// TimeoutMS bounds the job's wall-clock time on the worker (0 = none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// LeaseTTLMS is the lease duration; the worker must heartbeat well
	// within it (the register response suggests a cadence).
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// BoardStats is the lease plane's observability snapshot.
type BoardStats struct {
	// Workers is the number of registered workers; Pending and Leased
	// count jobs waiting for a claim and jobs under a live lease.
	Workers int `json:"workers"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Expired counts leases the reaper requeued; Stale counts rejected
	// late commits (fencing violations); Exhausted counts jobs failed on
	// the retry budget.
	Expired   uint64 `json:"expired"`
	Stale     uint64 `json:"stale"`
	Exhausted uint64 `json:"exhausted"`
}

// boardJob is one job on the board. Its immutable wire template is
// stamped with lease fields at each grant; done fires exactly once.
type boardJob struct {
	key     string
	wire    WireJob // template: lease fields zero
	attempt int
	token   uint64 // fencing counter, incremented at each grant
	state   string // pending | leased | done
	lease   *lease // current grant when leased

	// onStart fires at most once per grant (a requeued job "starts"
	// again); done fires exactly once with the job's terminal outcome.
	// Both are invoked outside the board lock.
	onStart func(worker string)
	done    func(val []byte, err error)
}

// lease is one live grant of a job to a worker.
type lease struct {
	id       string
	job      *boardJob
	worker   string
	token    uint64
	deadline time.Time
}

// boardWorker is a registered worker process.
type boardWorker struct {
	id       string
	name     string
	lastSeen time.Time
}

// board is the lease-granting job dispatcher. All state is guarded by
// mu; long-poll claims block on cond (broadcast whenever the queue gains
// a job or the board closes).
type board struct {
	ttl      time.Duration
	maxTries int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*boardJob // pending, FIFO; requeues go to the front
	jobs    map[string]*boardJob
	leases  map[string]*lease
	workers map[string]*boardWorker
	nextID  int
	stats   BoardStats
	closed  bool

	stopReaper chan struct{}
	reaperDone chan struct{}
}

// newBoard starts a board and its lease reaper.
func newBoard(ttl time.Duration, maxTries int) *board {
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	if maxTries <= 0 {
		maxTries = defaultLeaseRetries
	}
	b := &board{
		ttl:        ttl,
		maxTries:   maxTries,
		jobs:       make(map[string]*boardJob),
		leases:     make(map[string]*lease),
		workers:    make(map[string]*boardWorker),
		stopReaper: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	go b.reaper()
	return b
}

// reaper periodically requeues jobs whose lease deadline passed. The
// interval divides the TTL so an expiry is noticed within a fraction of
// it, with a floor for very short test TTLs.
func (b *board) reaper() {
	defer close(b.reaperDone)
	interval := b.ttl / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-b.stopReaper:
			return
		case now := <-tick.C:
			b.reap(now)
		}
	}
}

// reap requeues (or terminally fails) every job whose lease expired
// before now. Terminal done callbacks run outside the lock.
func (b *board) reap(now time.Time) {
	var failed []*boardJob
	b.mu.Lock()
	for id, l := range b.leases {
		if !l.deadline.Before(now) {
			continue
		}
		delete(b.leases, id)
		j := l.job
		j.lease = nil
		j.attempt++
		b.stats.Expired++
		if j.attempt >= b.maxTries {
			j.state = "done"
			b.stats.Exhausted++
			delete(b.jobs, j.key)
			failed = append(failed, j)
			continue
		}
		// Requeue at the front: an interrupted job has already waited a
		// full lease, so it should not requeue behind a long backlog.
		j.state = "pending"
		b.queue = append([]*boardJob{j}, b.queue...)
	}
	if len(b.queue) > 0 {
		b.cond.Broadcast()
	}
	b.mu.Unlock()
	for _, j := range failed {
		j.done(nil, fmt.Errorf("%w: job %s gave out %d lease(s), none fulfilled", ErrRetriesExhausted, j.key, j.attempt))
	}
}

// Register adds a worker and returns its id.
func (b *board) Register(name string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := fmt.Sprintf("w%d", b.nextID)
	b.workers[id] = &boardWorker{id: id, name: name, lastSeen: time.Now()}
	return id
}

// Enqueue posts a job to the board. The job's done callback will fire
// exactly once, from a board goroutine or an HTTP handler.
func (b *board) Enqueue(j *boardJob) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		j.done(nil, errBoardClosed)
		return
	}
	j.state = "pending"
	b.jobs[j.key] = j
	b.queue = append(b.queue, j)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Claim blocks until a job is available (granting a fresh lease on it)
// or ctx expires. The bool result distinguishes "no job before the wait
// ran out" (false, nil error) from unknown workers and board shutdown.
func (b *board) Claim(ctx context.Context, workerID string) (WireJob, bool, error) {
	b.mu.Lock()
	w, ok := b.workers[workerID]
	if !ok {
		b.mu.Unlock()
		return WireJob{}, false, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
	}
	for len(b.queue) == 0 && !b.closed {
		if ctx.Err() != nil {
			b.mu.Unlock()
			return WireJob{}, false, nil
		}
		stop := context.AfterFunc(ctx, func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			b.cond.Broadcast()
		})
		b.cond.Wait()
		stop()
	}
	if b.closed {
		b.mu.Unlock()
		return WireJob{}, false, errBoardClosed
	}
	j := b.queue[0]
	b.queue = b.queue[1:]
	t := time.Now()
	w.lastSeen = t
	j.token++
	j.state = "leased"
	b.nextID++
	l := &lease{
		id: fmt.Sprintf("l%d", b.nextID), job: j, worker: workerID,
		token: j.token, deadline: t.Add(b.ttl),
	}
	j.lease = l
	b.leases[l.id] = l
	wire := j.wire
	wire.LeaseID, wire.Token, wire.Attempt, wire.LeaseTTLMS = l.id, l.token, j.attempt, b.ttl.Milliseconds()
	onStart := j.onStart
	b.mu.Unlock()
	if onStart != nil {
		onStart(workerID)
	}
	return wire, true, nil
}

// Heartbeat renews the given leases for workerID and reports which of
// them are no longer current (expired and requeued, canceled, or
// resolved) so the worker can abandon the corresponding jobs.
func (b *board) Heartbeat(workerID string, leaseIDs []string) (renewed, lost []string, err error) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	w, ok := b.workers[workerID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
	}
	w.lastSeen = now
	for _, id := range leaseIDs {
		l, ok := b.leases[id]
		if !ok || l.worker != workerID {
			lost = append(lost, id)
			continue
		}
		l.deadline = now.Add(b.ttl)
		renewed = append(renewed, id)
	}
	return renewed, lost, nil
}

// resolveLease validates a commit attempt against the fencing rules and,
// when valid, marks the job done. It returns the job for the caller to
// fire done on (outside the lock).
func (b *board) resolveLease(leaseID string, token uint64) (*boardJob, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	l, ok := b.leases[leaseID]
	if !ok || l.token != token || l.job.state != "leased" || l.job.lease != l {
		b.stats.Stale++
		return nil, fmt.Errorf("%w: lease %s token %d is not the current grant", ErrStaleLease, leaseID, token)
	}
	delete(b.leases, leaseID)
	j := l.job
	j.state = "done"
	j.lease = nil
	delete(b.jobs, j.key)
	return j, nil
}

// Fulfill commits a worker's result for its lease. Exactly-once: the
// first valid commit wins; anything else is ErrStaleLease.
func (b *board) Fulfill(leaseID string, token uint64, val []byte) error {
	j, err := b.resolveLease(leaseID, token)
	if err != nil {
		return err
	}
	j.done(val, nil)
	return nil
}

// Fail commits a worker-reported job failure (a simulation error, not a
// worker death — those surface as lease expiries). Failures are
// deterministic re-simulation errors, so they are terminal rather than
// requeued.
func (b *board) Fail(leaseID string, token uint64, msg string) error {
	j, err := b.resolveLease(leaseID, token)
	if err != nil {
		return err
	}
	j.done(nil, fmt.Errorf("worker %s: %s", leaseID, msg))
	return nil
}

// Cancel terminally resolves a job (FailFast skips) with err. A pending
// job is dequeued; a leased job's lease is invalidated so the worker's
// eventual commit is rejected and its next heartbeat reports the lease
// lost. Unknown keys (already resolved) are ignored.
func (b *board) Cancel(key string, err error) {
	b.mu.Lock()
	j, ok := b.jobs[key]
	if !ok {
		b.mu.Unlock()
		return
	}
	delete(b.jobs, key)
	if j.state == "pending" {
		for i, q := range b.queue {
			if q == j {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				break
			}
		}
	}
	if j.lease != nil {
		delete(b.leases, j.lease.id)
		j.lease = nil
	}
	j.state = "done"
	b.mu.Unlock()
	j.done(nil, err)
}

// Close shuts the board down: claims unblock, every unresolved job is
// failed with errBoardClosed (wrapping cause when non-nil), and the
// reaper exits. Idempotent.
func (b *board) Close(cause error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	err := errBoardClosed
	if cause != nil {
		err = fmt.Errorf("%w: %w", errBoardClosed, cause)
	}
	var unresolved []*boardJob
	for _, j := range b.jobs {
		if j.state != "done" {
			j.state = "done"
			unresolved = append(unresolved, j)
		}
	}
	b.jobs = make(map[string]*boardJob)
	b.queue = nil
	b.leases = make(map[string]*lease)
	b.cond.Broadcast()
	b.mu.Unlock()
	close(b.stopReaper)
	<-b.reaperDone
	for _, j := range unresolved {
		j.done(nil, err)
	}
}

// Stats snapshots the board counters.
func (b *board) Stats() BoardStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.Workers = len(b.workers)
	st.Pending = len(b.queue)
	st.Leased = len(b.leases)
	return st
}
