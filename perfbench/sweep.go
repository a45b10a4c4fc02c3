package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/regress"
	"swiftsim/internal/service"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// sweepWL is the open loop of sweep submissions: a daemon handler with
// the remote execution plane enabled and one in-process worker, served on
// loopback. Submissions go out on a fixed schedule over one keep-alive
// client connection; each sweep is timed from when it was due to its final
// "sweep" event. Each sweep is one cell (app, GPU preset, scale). Every
// repeatEvery-th sweep repeats an earlier one and is served from the
// result cache; the rest draw cells never submitted before in this
// process.
type sweepWL struct {
	cfg    runConfig
	rng    *rand.Rand
	fresh  []*pin // the seeded stream of never-submitted cells
	next   int    // next fresh cell
	sent   int    // sweeps submitted so far, across phases
	issued []*pin // fresh cells already submitted (repeat pool)
	probes []*pin // cold cells for the traced-run layer probe
	nextOp int64

	// set by setup
	dir        string
	svc        *service.Service
	srv        *http.Server
	srvDone    chan error
	base       string
	client     *http.Client
	worker     *service.Worker
	stopWorker context.CancelFunc
	workerDone chan error
}

func newSweep(cfg runConfig, rng *rand.Rand) (*sweepWL, error) {
	sz := cfg.sizing
	lookup := func(keys []cellKey) ([]*pin, error) {
		var pins []*pin
		for _, k := range keys {
			p, err := cfg.oracle.lookup(k)
			if err != nil {
				return nil, err
			}
			pins = append(pins, p)
		}
		return pins, nil
	}
	probes, err := lookup(probeMenu(sz))
	if err != nil {
		return nil, err
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	var keys []cellKey
	for _, k := range menuCells(sz) {
		if k.Sim == sim.Memory.String() && k.Scale != sz.probeScale {
			keys = append(keys, k)
		}
	}
	cells, err := lookup(keys)
	if err != nil {
		return nil, err
	}
	// A run at the committed rate and length draws the whole menu, so
	// seeds differ in order and repeats, not in which cells are simulated.
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return &sweepWL{cfg: cfg, rng: rng, fresh: cells, probes: probes[:sz.probeCells]}, nil
}

func (w *sweepWL) setup(dir string) error {
	w.dir = dir
	svc, err := service.New(service.Config{
		CacheDir:      filepath.Join(dir, "cache"),
		MaxJobTimeout: time.Minute,
		Remote:        service.RemoteConfig{Enabled: true},
	})
	if err != nil {
		return err
	}
	w.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: service.NewHandler(svc)}
	w.srvDone = make(chan error, 1)
	go func() { w.srvDone <- w.srv.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	// The load generator's one connection.
	w.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}

	ctx, cancel := context.WithCancel(context.Background())
	w.stopWorker = cancel
	w.worker = service.NewWorker(service.WorkerConfig{BaseURL: w.base, Name: "perfbench"})
	w.workerDone = make(chan error, 1)
	go func() { w.workerDone <- w.worker.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Remote.Workers == 0 {
		if time.Now().After(deadline) {
			return errors.New("worker did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (w *sweepWL) teardown() {
	if w.stopWorker != nil {
		w.stopWorker()
		<-w.workerDone
		w.stopWorker = nil
	}
	if w.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.svc.Close(ctx) // a forced drain only matters to a failed run
		cancel()
		w.svc = nil
	}
	if w.srv != nil {
		w.srv.Close()
		<-w.srvDone
		w.srv = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// inflight is one accepted sweep, filled in by its watcher.
type inflight struct {
	op       int64
	root     int64 // span id of the op
	cell     *pin
	id       string
	due      time.Time
	accepted time.Time // 202 received
	running  time.Time // first "running" job event (zero if all cached)
	doneAt   time.Time // final "sweep" event
	status   service.Status
	err      error
}

// sweepAcc accumulates the per-layer figures of one phase.
type sweepAcc struct {
	admit, queue, lag []float64 // ms
	counters          map[string]uint64
}

func (w *sweepWL) run(dur time.Duration, tr *tracer) (*phase, error) {
	sz := w.cfg.sizing
	p := newPhase()
	acc := &sweepAcc{counters: make(map[string]uint64)}
	n := max(1, int(math.Round(sz.sweepRate*dur.Seconds())))
	interval := time.Duration(float64(time.Second) / sz.sweepRate)
	statsBefore, workerBefore := w.svc.Stats(), w.worker.Stats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *inflight, n) // one send per accepted sweep
	var wg sync.WaitGroup
	pending := 0
	var drain *time.Timer // armed once every sweep has been submitted
	defer func() {
		if drain != nil {
			drain.Stop()
		}
	}()
	start := time.Now()
	for i := 0; i < n || pending > 0; {
		var due, drained <-chan time.Time
		var dueTimer *time.Timer
		if i < n {
			dueTimer = time.NewTimer(time.Until(start.Add(time.Duration(i) * interval)))
			due = dueTimer.C
		} else {
			if drain == nil {
				drain = time.NewTimer(sz.drainWait)
			}
			drained = drain.C
		}
		select {
		case f := <-done:
			pending--
			w.finish(f, p, acc, tr)
		case <-drained:
			// Unfinished sweeps fail; their watchers return on cancel.
			cancel()
		case <-due:
			f := w.submit(w.nextCell(w.sent), start.Add(time.Duration(i)*interval), p, acc, tr)
			w.sent++
			i++
			if f != nil {
				pending++
				wg.Add(1)
				go w.watch(ctx, f, done, &wg)
			}
		}
		if dueTimer != nil {
			dueTimer.Stop()
		}
	}
	p.wall = time.Since(start)
	wg.Wait()
	// The open loop reports over the whole run: one window.
	p.win(0).wall = p.wall

	statsAfter, workerAfter := w.svc.Stats(), w.worker.Stats()
	l := p.layer
	l["service.admit_p50_ms"] = quantile(acc.admit, 0.5)
	l["service.admit_p90_ms"] = quantile(acc.admit, 0.9)
	l["service.queue_wait_ms"] = quantile(acc.queue, 0.5)
	l["loadgen.lag_p99_ms"] = quantile(acc.lag, 0.99)
	hits := float64(statsAfter.Cache.Hits - statsBefore.Cache.Hits)
	misses := float64(statsAfter.Cache.Misses - statsBefore.Cache.Misses)
	l["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["service.shed"] = float64(statsAfter.Shed - statsBefore.Shed)
	l["lease.claimed"] = float64(workerAfter.Claimed - workerBefore.Claimed)
	l["lease.expired"] = float64(statsAfter.Remote.Expired - statsBefore.Remote.Expired)
	l["lease.stale"] = float64(statsAfter.Remote.Stale - statsBefore.Remote.Stale)
	l["worker.failed"] = float64(workerAfter.Failed - workerBefore.Failed)
	l["worker.lost"] = float64(workerAfter.Lost - workerBefore.Lost)
	l["store.puts"] = float64(statsAfter.Store.Puts - statsBefore.Store.Puts)
	l["store.gets"] = float64(statsAfter.Store.Gets - statsBefore.Store.Gets)
	setCounters(l, acc.counters)
	return p, nil
}

// nextCell draws the cell of the i-th sweep: every repeatEvery-th sweep
// repeats a seeded choice of the earlier ones (as do all once the fresh
// stream is spent), the others take the next fresh cell.
func (w *sweepWL) nextCell(i int) *pin {
	repeat := (i+1)%w.cfg.sizing.repeatEvery == 0
	if len(w.issued) > 0 && (repeat || w.next == len(w.fresh)) {
		return w.issued[w.rng.IntN(len(w.issued))]
	}
	s := w.fresh[w.next]
	w.next++
	w.issued = append(w.issued, s)
	return s
}

// submit posts one sweep; it returns nil when the sweep was not accepted
// (counted as a failed op).
func (w *sweepWL) submit(c *pin, due time.Time, p *phase, acc *sweepAcc, tr *tracer) *inflight {
	f := &inflight{op: w.nextOp, root: tr.newID(), cell: c, due: due}
	w.nextOp++
	p.attempted++
	body, err := json.Marshal(service.Spec{Apps: []string{c.App}, GPUs: []string{c.GPU}, Scale: c.Scale})
	if err != nil {
		p.fail(w.cfg.log, "encoding spec: %v", err)
		return nil
	}
	sent := time.Now()
	acc.lag = append(acc.lag, ms(sent.Sub(due)))
	tr.record(f.root, f.op, "loadgen.lag", due, sent)
	resp, err := w.client.Post(w.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		p.fail(w.cfg.log, "submitting sweep: %v", err)
		return nil
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	f.accepted = time.Now()
	tr.record(f.root, f.op, "service.admit", sent, f.accepted)
	acc.admit = append(acc.admit, ms(f.accepted.Sub(sent)))
	if err != nil || resp.StatusCode != http.StatusAccepted {
		p.fail(w.cfg.log, "submitting sweep: HTTP %d: %s %v", resp.StatusCode, bytes.TrimSpace(reply), err)
		return nil
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil {
		p.fail(w.cfg.log, "decoding submit reply: %v", err)
		return nil
	}
	f.id = ack.ID
	return f
}

// watch follows one sweep's events in-process until its final event (or
// ctx ends) and hands it back on done.
func (w *sweepWL) watch(ctx context.Context, f *inflight, done chan<- *inflight, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() { done <- f }()
	sw, err := w.svc.Sweep(f.id)
	if err != nil {
		f.err = err
		return
	}
	for from := 0; ; {
		evs, fin, err := sw.WaitEvents(ctx, from)
		now := time.Now()
		if err != nil {
			f.err = fmt.Errorf("sweep %s unfinished: %w", f.id, err)
			return
		}
		for _, ev := range evs {
			if ev.Type == "job" && ev.State == service.StateRunning && f.running.IsZero() {
				f.running = now
			}
			if ev.Type == "sweep" {
				f.doneAt = now
			}
		}
		from += len(evs)
		if fin && !f.doneAt.IsZero() {
			break
		}
	}
	f.status = sw.Status()
}

// finish fetches a finished sweep's results over the client connection
// and checks every block against the oracle.
func (w *sweepWL) finish(f *inflight, p *phase, acc *sweepAcc, tr *tracer) {
	if f.err != nil {
		p.fail(w.cfg.log, "%v", f.err)
		return
	}
	if !f.running.IsZero() {
		acc.queue = append(acc.queue, ms(f.running.Sub(f.accepted)))
		tr.record(f.root, f.op, "service.queue", f.accepted, f.running)
		tr.record(f.root, f.op, "service.execute", f.running, f.doneAt)
	}
	tr.add(f.root, 0, f.op, "sweep", f.due, f.doneAt)
	if f.status.Failed > 0 {
		p.fail(w.cfg.log, "sweep %s: %d job(s) failed: %+v", f.id, f.status.Failed, f.status.Jobs)
		return
	}
	t0 := time.Now()
	body, err := w.get("/v1/sweeps/" + f.id + "/results")
	tr.record(f.root, f.op, "service.results", t0, time.Now())
	if err != nil {
		p.fail(w.cfg.log, "sweep %s results: %v", f.id, err)
		return
	}
	// The body of a one-cell sweep is that cell's canonical block.
	if got := digest(body); got != f.cell.Digest {
		p.fail(w.cfg.log, "sweep %s cell %+v: canonical digest %s, pinned %s", f.id, f.cell.cellKey, got, f.cell.Digest)
		return
	}
	vals := canonicalValues(body)
	lat := f.doneAt.Sub(f.due)
	p.done(0, lat, w.cfg.sizing.sweepLimit, float64(vals["cycles"])/1000)
	// Error and work counters count each simulated cell once; a cache hit
	// repeats an earlier result.
	if !f.status.Jobs[0].Cached {
		p.errPct = append(p.errPct, cycleErrPct(vals["cycles"], f.cell))
		for name, v := range vals {
			acc.counters[name] += v
		}
	}
}

func (w *sweepWL) get(path string) ([]byte, error) {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// canonicalValues reads the "name value" lines of a canonical block:
// cycles, ticked, skipped and every metric counter, under the names
// setCounters expects.
func canonicalValues(block []byte) map[string]uint64 {
	vals := make(map[string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(block))
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "ticked":
			name = "sim.ticked_cycles"
		case "skipped":
			name = "sim.skipped_cycles"
		}
		vals[name] = n
	}
	return vals
}

// probe times, on cells no sweep of this run drew (at the probe scale, so
// every in-process memo is cold for them), the layers the sweep
// path crosses inside the daemon and worker: generation, the trace wire
// codec, the simulation with its reuse profile, canonical rendering and
// the blob store. Each probe cell is also checked against the oracle.
func (w *sweepWL) probe(p *phase, tr *tracer) error {
	st, err := service.NewStore(filepath.Join(w.dir, "probe-store"))
	if err != nil {
		return err
	}
	var gen, write, read, wall, prof, canon, put, get time.Duration
	var bytesRW int64
	var ticked uint64
	for _, pn := range w.probes {
		op := w.nextOp
		w.nextOp++
		p.attempted++
		spec, _ := workload.ByName(pn.App)
		gpu, _ := config.Preset(pn.GPU)
		t0 := time.Now()
		app := spec.Generate(pn.Scale)
		t1 := time.Now()
		var buf bytes.Buffer
		if err := trace.Write(&buf, app); err != nil {
			return err
		}
		t2 := time.Now()
		parsed, err := trace.Read(bytes.NewReader(buf.Bytes()))
		t3 := time.Now()
		if err != nil {
			p.fail(w.cfg.log, "probe %+v: %v", pn.cellKey, err)
			continue
		}
		res, err := sim.Run(parsed, gpu, sim.Options{Kind: sim.Memory})
		t4 := time.Now()
		if err != nil {
			p.fail(w.cfg.log, "probe %+v: %v", pn.cellKey, err)
			continue
		}
		block := regress.Canonical(res)
		got := digest(block)
		t5 := time.Now()
		hash, err := st.Put(block)
		t6 := time.Now()
		if err != nil {
			return err
		}
		if _, err := st.Get(hash); err != nil {
			return err
		}
		t7 := time.Now()
		for _, s := range []struct {
			name   string
			t0, t1 time.Time
		}{
			{"workload.generate", t0, t1}, {"trace.write", t1, t2}, {"trace.read", t2, t3},
			{"sim.run", t3, t4}, {"regress.canonical", t4, t5}, {"store.put", t5, t6}, {"store.get", t6, t7},
		} {
			tr.record(0, op, s.name, s.t0, s.t1)
		}
		if got != pn.Digest {
			p.fail(w.cfg.log, "probe %+v: canonical digest %s, pinned %s", pn.cellKey, got, pn.Digest)
			continue
		}
		gen += t1.Sub(t0)
		write += t2.Sub(t1)
		read += t3.Sub(t2)
		wall += res.Wall
		prof += res.ProfileWall
		canon += t5.Sub(t4)
		put += t6.Sub(t5)
		get += t7.Sub(t6)
		bytesRW += int64(buf.Len())
		ticked += res.TickedCycles
	}
	n := float64(len(w.probes))
	mb := float64(bytesRW) / 1e6
	l := p.layer
	l["workload.generate_ms"] = ms(gen) / n
	l["trace.write_ms_per_mb"] = ratio(ms(write), mb)
	l["trace.read_ms_per_mb"] = ratio(ms(read), mb)
	l["sim.wall_ms"] = ms(wall) / n
	l["reuse.profile_ms"] = ms(prof) / n
	l["reuse.profile_share"] = ratio(ms(prof), ms(wall))
	l["engine.ns_per_ticked_cycle"] = ratio(float64(wall.Nanoseconds()), float64(ticked))
	l["regress.canonical_ms"] = ms(canon) / n
	l["store.put_ms"] = ms(put) / n
	l["store.get_ms"] = ms(get) / n
	return nil
}
