package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/regress"
	"swiftsim/internal/runner"
	"swiftsim/internal/trace"
)

// Worker is the client side of the distributed execution plane: the
// loop behind cmd/swiftsim-worker. It registers with a swiftsimd
// daemon, long-polls for job leases, fetches each job's inputs from the
// content-addressed store (verifying their hashes locally), simulates
// on the in-process runner — reusing its panic isolation, per-job
// deadline and Progress.Result plumbing — and publishes the canonical
// result bytes back by hash.
//
// Correctness never depends on the worker: results are canonical and
// byte-stable, so any worker (or the daemon re-running locally)
// produces identical bytes for a job key; the lease protocol only
// decides who does the work and commits it first. A worker that dies
// simply stops heartbeating and its leases expire.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	base   string

	id             string
	leaseTTL       time.Duration
	heartbeatEvery time.Duration

	mu     sync.Mutex
	active map[string]context.CancelFunc // lease id → job cancel
	stats  WorkerStats

	blobMu    sync.Mutex
	blobs     map[string][]byte
	blobOrder []string

	// execHook, when set (tests only), runs after a job is claimed and
	// before its simulation — fault-injection tests hold a worker here
	// and kill it mid-job.
	execHook func(WireJob)
}

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// BaseURL is the daemon, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Name labels the worker in daemon-side accounting (defaults to
	// "worker").
	Name string
	// Jobs is the number of jobs executed concurrently (0 = 1).
	Jobs int
	// EngineThreads, when > 0, overrides each job's engine shard count
	// for this host. Safe by construction: results are byte-identical at
	// every shard count, so the override never changes what is
	// published.
	EngineThreads int
	// PollWait is the long-poll duration per claim request (0 = 25s).
	PollWait time.Duration
	// Client is the HTTP client (nil = a default with a timeout safely
	// above PollWait).
	Client *http.Client
}

// WorkerStats counts a worker's outcomes since Run started.
type WorkerStats struct {
	Claimed uint64 `json:"claimed"`
	Done    uint64 `json:"done"`
	Failed  uint64 `json:"failed"`
	// Lost counts leases the daemon revoked under this worker — expired
	// before a commit landed, or canceled — including commits rejected
	// by the fencing check.
	Lost uint64 `json:"lost"`
}

// maxWorkerBlobMemo bounds the worker's input-blob memo (trace and
// config blobs repeat across the jobs of a sweep).
const maxWorkerBlobMemo = 32

// NewWorker creates a Worker; Run starts it.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 25 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.PollWait + 30*time.Second}
	}
	return &Worker{
		cfg:    cfg,
		client: client,
		base:   strings.TrimRight(cfg.BaseURL, "/"),
		active: make(map[string]context.CancelFunc),
		blobs:  make(map[string][]byte),
	}
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Run registers and executes jobs until ctx is canceled (returning nil)
// or registration definitively fails (returning the error). Transient
// connection failures — the daemon not up yet, a daemon restart — are
// retried with a jittered backoff.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.heartbeatLoop(ctx) }()
	for i := 0; i < w.cfg.Jobs; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); w.claimLoop(ctx) }()
	}
	wg.Wait()
	return nil
}

// register obtains a worker id and the lease cadence, retrying
// transport errors until ctx expires.
func (w *Worker) register(ctx context.Context) error {
	var retry sleeper
	for {
		var resp struct {
			ID         string `json:"id"`
			LeaseTTLMS int64  `json:"lease_ttl_ms"`
			HeartbeatM int64  `json:"heartbeat_ms"`
		}
		code, err := w.postJSON(ctx, "/v1/workers", map[string]string{"name": w.cfg.Name}, &resp)
		switch {
		case err == nil && code == http.StatusOK && resp.ID != "":
			w.id = resp.ID
			w.leaseTTL = time.Duration(resp.LeaseTTLMS) * time.Millisecond
			w.heartbeatEvery = time.Duration(resp.HeartbeatM) * time.Millisecond
			if w.heartbeatEvery <= 0 {
				w.heartbeatEvery = w.leaseTTL / 3
			}
			if w.heartbeatEvery <= 0 {
				w.heartbeatEvery = time.Second
			}
			return nil
		case err == nil:
			// The daemon answered and said no: not a transient condition.
			return fmt.Errorf("service: worker registration rejected: HTTP %d", code)
		}
		if !retry.sleep(ctx, backoff()) {
			return fmt.Errorf("service: worker registration: %w (last error: %v)", ctx.Err(), err)
		}
	}
}

// backoff is a jittered retry delay; the jitter keeps a fleet that lost
// its daemon from reconnecting in lockstep.
func backoff() time.Duration {
	return 250*time.Millisecond + time.Duration(rand.IntN(500))*time.Millisecond
}

// sleeper is a reusable context-aware delay for retry loops. time.After
// allocates a fresh timer per attempt and keeps it live in the runtime
// until it fires even after the select has moved on — a worker whose
// daemon is down retries for the whole outage, churning timers the
// whole time. One sleeper per loop reuses a single timer instead.
type sleeper struct {
	t *time.Timer
}

// sleep waits for d or until ctx is done, reporting whether the full
// delay elapsed (false = canceled). Under this module's pre-1.23 timer
// semantics the cancel path must Stop the timer and drain the fired
// token if Stop lost the race, or the next Reset would return
// immediately off the stale token.
func (s *sleeper) sleep(ctx context.Context, d time.Duration) bool {
	if s.t == nil {
		s.t = time.NewTimer(d)
	} else {
		s.t.Reset(d)
	}
	select {
	case <-s.t.C:
		return true
	case <-ctx.Done():
		if !s.t.Stop() {
			<-s.t.C
		}
		return false
	}
}

// heartbeatLoop renews the worker's active leases on the daemon's
// cadence and cancels jobs whose lease the daemon revoked.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	tick := time.NewTicker(w.heartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		w.mu.Lock()
		leases := make([]string, 0, len(w.active))
		for id := range w.active {
			leases = append(leases, id)
		}
		w.mu.Unlock()
		var resp struct {
			Renewed []string `json:"renewed"`
			Lost    []string `json:"lost"`
		}
		code, err := w.postJSON(ctx, "/v1/workers/"+w.id+"/heartbeat", map[string]any{"leases": leases}, &resp)
		if err != nil || code != http.StatusOK {
			continue // transient; the next tick retries well within the TTL
		}
		for _, id := range resp.Lost {
			w.mu.Lock()
			cancel := w.active[id]
			if cancel != nil {
				w.stats.Lost++
			}
			w.mu.Unlock()
			if cancel != nil {
				cancel() // the job is no longer ours: stop burning cycles on it
			}
		}
	}
}

// claimLoop long-polls for jobs and executes them one at a time.
func (w *Worker) claimLoop(ctx context.Context) {
	var retry sleeper
	for ctx.Err() == nil {
		job, ok, err := w.claim(ctx)
		if err != nil {
			if !retry.sleep(ctx, backoff()) {
				return
			}
			continue
		}
		if !ok {
			continue // long poll ran out; poll again
		}
		w.mu.Lock()
		w.stats.Claimed++
		w.mu.Unlock()
		w.execute(ctx, job)
	}
}

// claim issues one long-poll claim request.
func (w *Worker) claim(ctx context.Context) (WireJob, bool, error) {
	url := fmt.Sprintf("%s/v1/workers/%s/claim?wait=%s", w.base, w.id, w.cfg.PollWait)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return WireJob{}, false, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return WireJob{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		io.Copy(io.Discard, resp.Body)
		return WireJob{}, false, nil
	case http.StatusOK:
		job, err := decodeWireJob(resp.Body)
		if err != nil {
			return WireJob{}, false, err
		}
		return job, true, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return WireJob{}, false, fmt.Errorf("claim: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
}

// decodeWireJob decodes a claim response body. The options are checked
// later, by runJob, so a job with bad options fails through the lease
// protocol like any other job error instead of looping on the claim.
func decodeWireJob(r io.Reader) (WireJob, error) {
	var job WireJob
	if err := json.NewDecoder(r).Decode(&job); err != nil {
		return WireJob{}, fmt.Errorf("decoding claim: %w", err)
	}
	return job, nil
}

// execute runs one leased job end to end. A failure to even assemble the
// job (unfetchable blobs, bad options) is reported like a simulation
// error; a canceled context (worker shutdown or revoked lease) is
// reported to no one — the lease protocol handles our disappearance.
func (w *Worker) execute(ctx context.Context, job WireJob) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.active[job.LeaseID] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.active, job.LeaseID)
		w.mu.Unlock()
	}()

	if hook := w.execHook; hook != nil {
		hook(job)
	}

	val, err := w.runJob(jctx, job)
	if jctx.Err() != nil {
		// Dying (or fenced off): report nothing and let the lease speak.
		return
	}
	if err != nil {
		w.count(func(s *WorkerStats) { s.Failed++ })
		w.report(ctx, "/v1/leases/"+job.LeaseID+"/error",
			map[string]any{"token": job.Token, "error": err.Error()})
		return
	}
	hash, err := w.publish(ctx, val)
	if err != nil {
		w.count(func(s *WorkerStats) { s.Failed++ })
		w.report(ctx, "/v1/leases/"+job.LeaseID+"/error",
			map[string]any{"token": job.Token, "error": fmt.Sprintf("publishing result: %v", err)})
		return
	}
	w.count(func(s *WorkerStats) { s.Done++ })
	w.report(ctx, "/v1/leases/"+job.LeaseID+"/result",
		map[string]any{"token": job.Token, "result": hash})
}

// runJob fetches, assembles and simulates one job, returning its
// canonical result bytes.
func (w *Worker) runJob(ctx context.Context, job WireJob) ([]byte, error) {
	// Refuse out-of-domain options before fetching anything.
	opts := job.Opts
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if w.cfg.EngineThreads > 0 {
		opts.EngineThreads = w.cfg.EngineThreads
	}
	traceData, err := w.fetchBlob(ctx, job.TraceBlob)
	if err != nil {
		return nil, fmt.Errorf("trace blob: %w", err)
	}
	confData, err := w.fetchBlob(ctx, job.ConfigBlob)
	if err != nil {
		return nil, fmt.Errorf("config blob: %w", err)
	}
	app, err := trace.Read(bytes.NewReader(traceData))
	if err != nil {
		return nil, fmt.Errorf("parsing trace: %w", err)
	}
	gpu, err := config.Parse(bytes.NewReader(confData))
	if err != nil {
		return nil, fmt.Errorf("parsing config: %w", err)
	}

	// The runner brings panic isolation, the per-job deadline and the
	// Progress.Result hook — the same guarantees local execution has.
	var out []byte
	var jobErr error
	runner.Run([]runner.Job{{App: app, GPU: gpu, Opts: opts}}, 1, runner.Options{
		Ctx:        ctx,
		JobTimeout: time.Duration(job.TimeoutMS) * time.Millisecond,
		OnProgress: func(p runner.Progress) {
			if p.Err != nil {
				jobErr = p.Err
				return
			}
			out = regress.Canonical(p.Result)
		},
	})
	if jobErr != nil {
		return nil, jobErr
	}
	return out, nil
}

// fetchBlob gets a blob from the daemon's store, verifying its content
// hash locally — the wire and the daemon's disk are both untrusted.
func (w *Worker) fetchBlob(ctx context.Context, hash string) ([]byte, error) {
	w.blobMu.Lock()
	if data, ok := w.blobs[hash]; ok {
		w.blobMu.Unlock()
		return data, nil
	}
	w.blobMu.Unlock()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/store/"+hash, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching %s: HTTP %d", hash, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
	if err != nil {
		return nil, err
	}
	if BlobHash(data) != hash {
		return nil, fmt.Errorf("%w: fetched %s", ErrBlobCorrupt, hash)
	}

	w.blobMu.Lock()
	if _, ok := w.blobs[hash]; !ok {
		if len(w.blobOrder) >= maxWorkerBlobMemo {
			delete(w.blobs, w.blobOrder[0])
			w.blobOrder = w.blobOrder[1:]
		}
		w.blobs[hash] = data
		w.blobOrder = append(w.blobOrder, hash)
	}
	w.blobMu.Unlock()
	return data, nil
}

// publish uploads the canonical result bytes and returns their hash.
func (w *Worker) publish(ctx context.Context, data []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/store", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		Hash string `json:"hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("store publish: HTTP %d (%v)", resp.StatusCode, err)
	}
	return body.Hash, nil
}

// report posts a commit (result or error) for a lease. A 409 means the
// lease is stale — the job was requeued or canceled while we worked; the
// work is discarded and only a counter moves.
func (w *Worker) report(ctx context.Context, path string, body map[string]any) {
	code, err := w.postJSON(ctx, path, body, nil)
	if err == nil && code == http.StatusConflict {
		w.count(func(s *WorkerStats) { s.Lost++ })
	}
}

// count mutates the stats under the lock.
func (w *Worker) count(f func(*WorkerStats)) {
	w.mu.Lock()
	f(&w.stats)
	w.mu.Unlock()
}

// postJSON posts a JSON body and decodes a JSON response into out (when
// non-nil and the response is 200). It returns the status code; err is
// transport-level only.
func (w *Worker) postJSON(ctx context.Context, path string, body any, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
