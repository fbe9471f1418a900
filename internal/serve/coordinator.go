package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Coordinator is the scheduling side of distributed block dispatch: it
// implements engine.BlockDispatcher over a fleet of Worker HTTP servers.
//
// Fault tolerance is lease-based. Every dispatched block holds a lease
// that only successful health probes of its worker renew; when probes fail
// past the lease TTL — the worker is dead, frozen, or partitioned — the
// in-flight request is cancelled, the worker is marked lost, and the block
// is reassigned to another live worker after a capped exponential backoff
// (the engine's retry-backoff semantics: doubling from the base, saturated
// at 100ms). Workers are deterministic executors, so a block that ran
// twice — a lost ACK, a reassignment after a kill — returns byte-identical
// payloads, and the engine's scheduler commits exactly one of them.
//
// When every worker is lost, or one block exhausts its dispatch budget,
// the coordinator reports engine.ErrWorkersLost and the engine finishes
// the run in-process from its last checkpoint: degraded placement, never a
// partial result.
type Coordinator struct {
	run RunSpec
	opt CoordinatorOptions
}

// RunSpec is what every block request of one distributed run shares: the
// deterministic dataset pin (suite workflow + scale) and the engine knobs
// workers must mirror for byte-identical execution.
type RunSpec struct {
	// WF and Scale pin the suite workflow and its generated data.
	WF    int
	Scale float64
	// MaxRows, Faults, RetryMax and RetryBackoff mirror the
	// coordinator-side engine configuration.
	MaxRows      int64
	Faults       string
	RetryMax     int
	RetryBackoff time.Duration
	// CSS rebuilds the statistic universe on instrumented workers.
	CSS css.Options
}

// CoordinatorOptions tune dispatch fault tolerance.
type CoordinatorOptions struct {
	// Addrs are the worker base URLs ("http://host:port"); at least one is
	// required.
	Addrs []string
	// HeartbeatEvery is the health-probe period while a block is leased
	// (default 200ms).
	HeartbeatEvery time.Duration
	// LeaseTTL is how long a lease survives without a successful probe
	// before the block is reclaimed and reassigned (default 2s).
	LeaseTTL time.Duration
	// DispatchRetryMax bounds attempts per block across workers (default
	// 3: the first try plus two reassignments).
	DispatchRetryMax int
	// RetryBackoff is the base delay between dispatch attempts, doubling
	// per retry, capped at 100ms (default 1ms — the engine's semantics).
	RetryBackoff time.Duration
	// Faults injects deterministic Network-kind faults into dispatches
	// (nil injects nothing). Sites are "net:block:<idx>", so the fault
	// pattern is independent of worker placement and timing.
	Faults *faults.Injector
	// Client overrides the HTTP client (default: a fresh client with no
	// global timeout; per-request contexts and leases bound every call).
	Client *http.Client
}

// coordinator timing defaults.
const (
	defaultHeartbeatEvery   = 200 * time.Millisecond
	defaultLeaseTTL         = 2 * time.Second
	defaultDispatchRetryMax = 3
	defaultDispatchBackoff  = time.Millisecond
	maxDispatchBackoff      = 100 * time.Millisecond
)

// NewCoordinator validates the options and returns a dispatcher.
func NewCoordinator(run RunSpec, opt CoordinatorOptions) (*Coordinator, error) {
	if len(opt.Addrs) == 0 {
		return nil, fmt.Errorf("serve: coordinator needs at least one worker address")
	}
	if opt.HeartbeatEvery <= 0 {
		opt.HeartbeatEvery = defaultHeartbeatEvery
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = defaultLeaseTTL
	}
	if opt.DispatchRetryMax <= 0 {
		opt.DispatchRetryMax = defaultDispatchRetryMax
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = defaultDispatchBackoff
	}
	if opt.Client == nil {
		opt.Client = &http.Client{}
	}
	return &Coordinator{run: run, opt: opt}, nil
}

// Lease is one entry of the coordinator's lease table: which worker holds
// which block, and until when without a renewing probe.
type Lease struct {
	ID       string
	Block    int
	Worker   string
	Deadline time.Time
	Expired  bool
}

// workerRef is one worker's live/lost state within a session.
type workerRef struct {
	addr string
	lost bool
}

// dispatchSession is one run's dispatch state: the worker fleet, the lease
// table and the reassignment accounting.
type dispatchSession struct {
	c    *Coordinator
	spec *engine.DispatchSpec
	base WorkerRunRequest

	mu         sync.Mutex
	workers    []*workerRef
	next       int
	leaseSeq   int
	leases     map[string]*Lease
	reassigned int64
	lostOrder  []string
}

// DispatchRun opens a session: probe the fleet once and refuse to open
// (wrapping engine.ErrWorkersLost) when nobody answers — the engine then
// runs fully in-process.
func (c *Coordinator) DispatchRun(ctx context.Context, spec *engine.DispatchSpec) (engine.RunDispatch, error) {
	s := &dispatchSession{
		c:      c,
		spec:   spec,
		leases: make(map[string]*Lease),
		base: WorkerRunRequest{
			WF:             c.run.WF,
			Scale:          c.run.Scale,
			MaxRows:        c.run.MaxRows,
			Faults:         c.run.Faults,
			RetryMax:       c.run.RetryMax,
			RetryBackoffNs: int64(c.run.RetryBackoff),
			CSS:            c.run.CSS,
			Instrument:     spec.Instrument,
			AnyPoint:       spec.AnyPoint,
			Observe:        spec.Observe,
			Plans:          spec.Plans,
		},
	}
	alive := 0
	for _, addr := range c.opt.Addrs {
		w := &workerRef{addr: addr}
		if err := s.probe(ctx, w); err != nil {
			w.lost = true
			s.lostOrder = append(s.lostOrder, addr)
		} else {
			alive++
		}
		s.workers = append(s.workers, w)
	}
	if alive == 0 {
		return nil, fmt.Errorf("serve: no reachable worker among %d: %w", len(c.opt.Addrs), engine.ErrWorkersLost)
	}
	return s, nil
}

// Slots bounds in-flight blocks to the fleet size.
func (s *dispatchSession) Slots() int { return len(s.c.opt.Addrs) }

// Summary reports the session's fault accounting.
func (s *dispatchSession) Summary() engine.DistSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return engine.DistSummary{
		Reassigned:  s.reassigned,
		LostWorkers: append([]string(nil), s.lostOrder...),
	}
}

// Leases snapshots the lease table (diagnostics and tests).
func (s *dispatchSession) Leases() []Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Lease, 0, len(s.leases))
	for _, l := range s.leases {
		out = append(out, *l)
	}
	return out
}

// permanentError marks a worker-reported block-execution error: it is
// deterministic, so reassignment cannot help and the engine must surface
// it as a *BlockFailure exactly like an in-process run would.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// RunBlock dispatches one block: pick a live worker (round-robin), hold a
// heartbeat-renewed lease over the request, and on infrastructure failure
// back off and reassign — up to the dispatch retry budget, after which the
// block is declared undeliverable (engine.ErrWorkersLost) and the engine
// falls back in-process.
func (s *dispatchSession) RunBlock(ctx context.Context, block int, upstream map[int]*data.Table) (*engine.RemoteBlock, error) {
	body, err := s.requestBody(block, upstream)
	if err != nil {
		return nil, err
	}
	site := fmt.Sprintf("net:block:%d", block)
	var lastErr error
	for attempt := 0; attempt < s.c.opt.DispatchRetryMax; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			s.mu.Lock()
			s.reassigned++
			s.mu.Unlock()
			if err := dispatchSleep(ctx, s.c.opt.RetryBackoff, attempt-1); err != nil {
				return nil, err
			}
		}
		w := s.pickLive()
		if w == nil {
			return nil, fmt.Errorf("serve: block %d: all workers lost: %w", block, engine.ErrWorkersLost)
		}
		mode, ferr := s.c.opt.Faults.NetworkAt(site, attempt)
		if ferr != nil && mode == faults.NetDrop {
			// The request never leaves the coordinator; the worker stays
			// live and the next attempt retries the exchange.
			lastErr = fmt.Errorf("serve: block %d attempt %d: %w", block, attempt, ferr)
			continue
		}
		if ferr != nil && mode == faults.NetDelay {
			// A delayed exchange still happens; the pause exercises
			// lease/heartbeat timing without consuming the attempt.
			if err := dispatchSleep(ctx, s.c.opt.HeartbeatEvery, 0); err != nil {
				return nil, err
			}
		}
		truncate := ferr != nil && mode == faults.NetTruncate
		rb, err := s.tryWorker(ctx, w, block, body, truncate)
		if err == nil {
			return rb, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, perm.err
		}
		if errors.Is(err, engine.ErrWorkersLost) {
			// Deterministically undeliverable (e.g. the response exceeds
			// the wire cap): no retry can change it, degrade to the
			// in-process fallback immediately.
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("serve: block %d undeliverable after %d attempts (last: %v): %w",
		block, s.c.opt.DispatchRetryMax, lastErr, engine.ErrWorkersLost)
}

// requestBody marshals the block request (lease id is attached per
// attempt via header, keeping the body — and any retry of it — identical).
func (s *dispatchSession) requestBody(block int, upstream map[int]*data.Table) ([]byte, error) {
	req := s.base
	req.Block = block
	if len(upstream) > 0 {
		req.Upstream = make(map[int][]byte, len(upstream))
		for idx, tbl := range upstream {
			blob, err := encodeTable(tbl)
			if err != nil {
				return nil, err
			}
			req.Upstream[idx] = blob
		}
	}
	return json.Marshal(&req)
}

// pickLive returns the next live worker round-robin, nil when none.
func (s *dispatchSession) pickLive() *workerRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.workers)
	for i := 0; i < n; i++ {
		w := s.workers[(s.next+i)%n]
		if !w.lost {
			s.next = (s.next + i + 1) % n
			return w
		}
	}
	return nil
}

// markLost flags a worker dead for the rest of the session.
func (s *dispatchSession) markLost(w *workerRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !w.lost {
		w.lost = true
		s.lostOrder = append(s.lostOrder, w.addr)
	}
}

// tryWorker executes one leased dispatch attempt against one worker.
func (s *dispatchSession) tryWorker(ctx context.Context, w *workerRef, block int, body []byte, truncate bool) (*engine.RemoteBlock, error) {
	lease := s.grantLease(block, w.addr)
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		s.heartbeat(lctx, w, lease, cancel)
	}()
	defer func() { cancel(); <-hbDone }()

	req, err := http.NewRequestWithContext(lctx, http.MethodPost, w.addr+"/v1/worker/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Etlopt-Lease", lease.ID)
	resp, err := s.c.opt.Client.Do(req)
	if err != nil {
		// Connection-level failure or lease-expiry cancellation: the
		// worker is gone (or unreachable, which is the same thing to the
		// lease protocol).
		s.markLost(w)
		if s.leaseExpired(lease.ID) {
			return nil, fmt.Errorf("serve: lease %s on %s expired for block %d: %w", lease.ID, w.addr, block, err)
		}
		return nil, fmt.Errorf("serve: block %d on %s: %w", block, w.addr, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxUploadBytes+1))
	if err != nil {
		s.markLost(w)
		return nil, fmt.Errorf("serve: block %d on %s: response: %w", block, w.addr, err)
	}
	if len(payload) > maxUploadBytes {
		// The block's payload cannot cross the wire whole. That is a
		// property of the block, not the worker: every retry would truncate
		// identically, so the run must finish this block in-process.
		return nil, fmt.Errorf("serve: block %d on %s: response exceeds the %d-byte wire cap: %w",
			block, w.addr, int64(maxUploadBytes), engine.ErrWorkersLost)
	}
	if truncate {
		// Injected lost ACK: the worker completed the block, but the
		// response is cut short before the coordinator can commit it. The
		// retry re-runs the block; determinism makes the second copy
		// byte-identical, and the engine commits only one.
		return nil, fmt.Errorf("serve: block %d on %s: %w", block, w.addr,
			&faults.Error{Kind: faults.Network, Site: fmt.Sprintf("net:block:%d", block), Transient: true})
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return decodeRemoteBlock(payload)
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The worker ran the block and it failed deterministically (or the
		// request itself is invalid): reassignment cannot change the
		// outcome.
		return nil, &permanentError{err: fmt.Errorf("serve: block %d: worker %s: %s", block, w.addr, errorBody(payload))}
	default:
		s.markLost(w)
		return nil, fmt.Errorf("serve: block %d on %s: status %d: %s", block, w.addr, resp.StatusCode, errorBody(payload))
	}
}

// grantLease registers a lease for one dispatch attempt.
func (s *dispatchSession) grantLease(block int, worker string) *Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.leaseSeq++
	l := &Lease{
		ID:       fmt.Sprintf("lease-%04d", s.leaseSeq),
		Block:    block,
		Worker:   worker,
		Deadline: time.Now().Add(s.c.opt.LeaseTTL),
	}
	s.leases[l.ID] = l
	return l
}

// renewLease pushes a lease's deadline out after a successful probe.
func (s *dispatchSession) renewLease(id string, deadline time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.leases[id]; ok && !l.Expired {
		l.Deadline = deadline
	}
}

// expireLease marks a lease reclaimed; its block is free to reassign.
func (s *dispatchSession) expireLease(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.leases[id]; ok {
		l.Expired = true
	}
}

// leaseExpired reports whether the lease was reclaimed by expiry.
func (s *dispatchSession) leaseExpired(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[id]
	return ok && l.Expired
}

// heartbeat renews the lease while its worker keeps answering health
// probes; when the deadline passes without a successful probe, the lease
// expires and the in-flight request is cancelled, which surfaces as a
// reassignable failure in tryWorker.
func (s *dispatchSession) heartbeat(ctx context.Context, w *workerRef, lease *Lease, cancel context.CancelFunc) {
	t := time.NewTicker(s.c.opt.HeartbeatEvery)
	defer t.Stop()
	deadline := lease.Deadline
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.probe(ctx, w); err == nil {
				deadline = time.Now().Add(s.c.opt.LeaseTTL)
				s.renewLease(lease.ID, deadline)
			}
			if time.Now().After(deadline) {
				s.expireLease(lease.ID)
				cancel()
				return
			}
		}
	}
}

// probe is one health check, bounded by the heartbeat period.
func (s *dispatchSession) probe(ctx context.Context, w *workerRef) error {
	timeout := s.c.opt.HeartbeatEvery
	if timeout <= 0 {
		timeout = defaultHeartbeatEvery
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.addr+"/v1/worker/health", nil)
	if err != nil {
		return err
	}
	resp, err := s.c.opt.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: health probe of %s: status %d", w.addr, resp.StatusCode)
	}
	return nil
}

// decodeRemoteBlock parses a worker's 200 response into the engine's form.
func decodeRemoteBlock(payload []byte) (*engine.RemoteBlock, error) {
	var resp WorkerRunResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, fmt.Errorf("serve: worker response: %w", err)
	}
	out, err := decodeTable(resp.Out)
	if err != nil {
		return nil, fmt.Errorf("serve: worker response: block output: %w", err)
	}
	rb := &engine.RemoteBlock{Out: out, Rows: resp.Rows, Retries: resp.Retries}
	if len(resp.Materialized) > 0 {
		rb.Materialized = make(map[string]*data.Table, len(resp.Materialized))
		for name, blob := range resp.Materialized {
			tbl, err := decodeTable(blob)
			if err != nil {
				return nil, fmt.Errorf("serve: worker response: materialized %q: %w", name, err)
			}
			rb.Materialized[name] = tbl
		}
	}
	if len(resp.Shard) > 0 {
		store, err := stats.ReadStore(bytes.NewReader(resp.Shard))
		if err != nil {
			return nil, fmt.Errorf("serve: worker response: stats shard: %w", err)
		}
		rb.Observed = store
	}
	for _, wf := range resp.Degraded {
		rb.Degraded = append(rb.Degraded, engine.FailedStat{Stat: wf.Stat, Err: fmt.Errorf("%s", wf.Err)})
	}
	return rb, nil
}

// errorBody extracts the {"error": ...} message from a worker reply.
func errorBody(payload []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(payload))
}

// dispatchSleep waits out the capped exponential backoff before a
// reassignment, honouring cancellation.
func dispatchSleep(ctx context.Context, base time.Duration, attempt int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d := base
	for i := 0; i < attempt && d < maxDispatchBackoff; i++ {
		d <<= 1
	}
	if d > maxDispatchBackoff || d <= 0 {
		d = maxDispatchBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// durationNs converts wire nanoseconds into a duration.
func durationNs(ns int64) time.Duration { return time.Duration(ns) }
