package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/suite"
)

// The golden distributed-equivalence suite: a distributed run must be
// byte-identical to a single-process run — sinks, materialized outputs,
// observed statistics, work metric — whatever the fault pattern: a worker
// SIGKILLed mid-run, deterministic network drops/delays/truncations, a
// frozen worker whose lease expires, or every worker lost (which must
// complete in-process from the last checkpoint, never partially).

const distScale = 0.002

// distWorkflows are the multi-block suite workflows the golden tests
// exercise (2, 3 and 2 blocks — enough for real scheduling, reassignment
// and checkpoint handoff, without join explosions that would dwarf the
// wire cap).
var distWorkflows = []int{6, 8, 15}

// startWorker serves a fresh Worker over httptest.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker().Handler())
	t.Cleanup(srv.Close)
	return srv
}

// killSwitch kills its server right after it finishes serving a block-run
// request, emulating a worker SIGKILLed mid-run: completed work was
// already delivered, every later connection is refused.
type killSwitch struct {
	once sync.Once
	srv  *httptest.Server
}

func (k *killSwitch) maybeKill(path string) {
	if path != "/v1/worker/run" {
		return
	}
	k.once.Do(func() {
		go func() {
			k.srv.CloseClientConnections()
			k.srv.Close()
		}()
	})
}

// startKillableWorker serves a Worker that dies after its first completed
// block.
func startKillableWorker(t *testing.T) *httptest.Server {
	t.Helper()
	wk := NewWorker()
	ks := &killSwitch{}
	h := wk.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		ks.maybeKill(r.URL.Path)
	}))
	ks.srv = srv
	t.Cleanup(srv.Close)
	return srv
}

// startFreezableWorker serves a Worker that freezes — run and health
// requests hang — after its first completed block: the hung-worker case
// only lease expiry can detect.
func startFreezableWorker(t *testing.T) *httptest.Server {
	t.Helper()
	wk := NewWorker()
	var once sync.Once
	frozen := make(chan struct{})
	release := make(chan struct{})
	h := wk.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-frozen:
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		default:
		}
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/worker/run" {
			once.Do(func() { close(frozen) })
		}
	}))
	t.Cleanup(func() {
		close(release)
		srv.Close()
	})
	return srv
}

// distConfig builds a run configuration dispatching to the given workers.
func distConfig(t *testing.T, wf int, addrs []string, tune func(*CoordinatorOptions)) core.Config {
	t.Helper()
	cfg := core.DefaultConfig()
	opt := CoordinatorOptions{Addrs: addrs}
	if tune != nil {
		tune(&opt)
	}
	coord, err := NewCoordinator(RunSpec{WF: wf, Scale: distScale, CSS: cfg.CSS}, opt)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	cfg.Dispatcher = coord
	return cfg
}

// runCycleOf executes one optimization cycle and returns its instrumented
// run.
func runCycleOf(t *testing.T, wf int, cfg core.Config) *engine.Result {
	t.Helper()
	w, err := suite.Get(wf)
	if err != nil {
		t.Fatalf("suite.Get(%d): %v", wf, err)
	}
	cy, err := core.RunCtx(context.Background(), w.Graph, w.Catalog, w.Data(distScale), cfg)
	if err != nil {
		t.Fatalf("wf%02d run: %v", wf, err)
	}
	return cy.Observed
}

// localRun is the single-process reference execution.
func localRun(t *testing.T, wf int) *engine.Result {
	t.Helper()
	return runCycleOf(t, wf, core.DefaultConfig())
}

// storeBytes renders an observed store into its canonical v2 byte form.
func storeBytes(t *testing.T, r *engine.Result) []byte {
	t.Helper()
	if r.Observed == nil {
		return nil
	}
	var buf bytes.Buffer
	if _, err := r.Observed.WriteTo(&buf); err != nil {
		t.Fatalf("store WriteTo: %v", err)
	}
	return buf.Bytes()
}

// assertRunsEqual is the golden comparison: sinks, materialized outputs,
// observed statistics (byte-level) and the work metric must match exactly.
func assertRunsEqual(t *testing.T, name string, want, got *engine.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Sinks, got.Sinks) {
		t.Errorf("%s: sinks differ", name)
	}
	if !reflect.DeepEqual(want.Materialized, got.Materialized) {
		t.Errorf("%s: materialized outputs differ", name)
	}
	if want.Rows != got.Rows {
		t.Errorf("%s: work metric differs: want %d rows, got %d", name, want.Rows, got.Rows)
	}
	if !bytes.Equal(storeBytes(t, want), storeBytes(t, got)) {
		t.Errorf("%s: observed statistics bytes differ", name)
	}
}

// TestDistributedEquivalenceWorkerKilledMidRun is the acceptance golden:
// two workers, one SIGKILLed after its first completed block, under
// deterministic network faults — the distributed run must be
// byte-identical to the single-process run.
func TestDistributedEquivalenceWorkerKilledMidRun(t *testing.T) {
	for _, wf := range distWorkflows {
		t.Run("batch/wf"+itoa2(wf), func(t *testing.T) {
			want := localRun(t, wf)
			victim := startKillableWorker(t)
			survivor := startWorker(t)
			cfg := distConfig(t, wf, []string{victim.URL, survivor.URL}, func(o *CoordinatorOptions) {
				o.Faults = faults.New(11, 1, 1, faults.Network)
			})
			got := runCycleOf(t, wf, cfg)
			assertRunsEqual(t, "batch", want, got)
			if got.Dist == nil {
				t.Fatal("distributed run carries no DistReport")
			}
			if got.Dist.FellBack {
				t.Errorf("run fell back in-process (%s); a surviving worker should have absorbed the blocks", got.Dist.Reason)
			}
			if len(got.Dist.Remote) == 0 {
				t.Error("no blocks executed remotely")
			}
		})
	}
}

// TestDistributedAllWorkersLostFallsBack kills every worker mid-run: the
// coordinator must finish in-process from the last checkpoint and report
// the degradation — outputs still byte-identical, never partial.
func TestDistributedAllWorkersLostFallsBack(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		const wf = 8 // 3 blocks: remote progress, then local completion
		want := localRun(t, wf)
		a := startKillableWorker(t)
		b := startKillableWorker(t)
		cfg := distConfig(t, wf, []string{a.URL, b.URL}, nil)
		got := runCycleOf(t, wf, cfg)
		assertRunsEqual(t, "batch", want, got)
		d := got.Dist
		if d == nil {
			t.Fatal("distributed run carries no DistReport")
		}
		if !d.FellBack {
			t.Fatal("expected the run to fall back in-process after losing every worker")
		}
		if d.Reason == "" {
			t.Error("fallback carries no reason")
		}
		if len(d.Remote)+len(d.Local) == 0 {
			t.Error("report lists no executed blocks")
		}
		if len(d.LostWorkers) != 2 {
			t.Errorf("want 2 lost workers, got %v", d.LostWorkers)
		}
		// Never a partial result: every sink of the local reference is
		// present and full.
		for name, tbl := range want.Sinks {
			g, ok := got.Sinks[name]
			if !ok || len(g.Rows) != len(tbl.Rows) {
				t.Errorf("sink %q incomplete after fallback", name)
			}
		}
	})
}

// TestDistributedNetworkFaultMatrix runs the Network fault kind across its
// modes: transient faults (drop/delay/truncate per site hash) must be
// absorbed by dispatch retry, and permanent ones must degrade to the
// in-process fallback — byte-identical outputs either way.
func TestDistributedNetworkFaultMatrix(t *testing.T) {
	const wf = 8 // 3 blocks: three distinct "net:block:<idx>" fault sites
	want := localRun(t, wf)

	t.Run("transient", func(t *testing.T) {
		// Several seeds so the mode hash covers drop, delay and truncate
		// across the workflow's block sites.
		for _, seed := range []uint64{1, 2, 3, 7, 11} {
			inj := faults.New(seed, 1, 1, faults.Network)
			w1, w2 := startWorker(t), startWorker(t)
			cfg := distConfig(t, wf, []string{w1.URL, w2.URL}, func(o *CoordinatorOptions) {
				o.Faults = inj
			})
			got := runCycleOf(t, wf, cfg)
			assertRunsEqual(t, "transient", want, got)
			if got.Dist.FellBack {
				t.Errorf("seed %d: transient network faults must not force a fallback (%s)", seed, got.Dist.Reason)
			}
		}
	})

	t.Run("permanent", func(t *testing.T) {
		// transient=0 faults every attempt: dispatch exhausts its budget
		// and the run must complete locally, whole.
		inj := faults.New(5, 1, 0, faults.Network)
		w1, w2 := startWorker(t), startWorker(t)
		cfg := distConfig(t, wf, []string{w1.URL, w2.URL}, func(o *CoordinatorOptions) {
			o.Faults = inj
		})
		got := runCycleOf(t, wf, cfg)
		assertRunsEqual(t, "permanent", want, got)
		if !got.Dist.FellBack {
			t.Error("permanent network faults should degrade to the in-process fallback")
		}
	})
}

// startOversizeWorker answers health but returns a response body past the
// wire cap for every block run — the deterministic-undeliverable case.
func startOversizeWorker(t *testing.T) *httptest.Server {
	t.Helper()
	big := bytes.Repeat([]byte{'x'}, maxUploadBytes+1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/worker/health" {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write(big)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestDistributedOversizeResponseFallsBack pins the wire-cap guard: a block
// whose payload cannot cross the wire whole is deterministically
// undeliverable, so the run must complete in-process — no retry burn, no
// silent truncation, outputs identical.
func TestDistributedOversizeResponseFallsBack(t *testing.T) {
	const wf = 6
	want := localRun(t, wf)
	big := startOversizeWorker(t)
	cfg := distConfig(t, wf, []string{big.URL}, nil)
	got := runCycleOf(t, wf, cfg)
	assertRunsEqual(t, "oversize", want, got)
	if got.Dist == nil || !got.Dist.FellBack {
		t.Fatal("oversized worker response should degrade to the in-process fallback")
	}
	if !strings.Contains(got.Dist.Reason, "wire cap") {
		t.Errorf("fallback reason should name the wire cap, got %q", got.Dist.Reason)
	}
}

// TestDistributedHungWorkerLeaseExpiry freezes a worker mid-run (requests
// hang, health probes included): only lease expiry can reclaim its block,
// cancel the in-flight request and reassign — outputs stay identical.
func TestDistributedHungWorkerLeaseExpiry(t *testing.T) {
	const wf = 8
	want := localRun(t, wf)
	frozen := startFreezableWorker(t)
	healthy := startWorker(t)
	cfg := distConfig(t, wf, []string{frozen.URL, healthy.URL}, func(o *CoordinatorOptions) {
		o.HeartbeatEvery = 50 * time.Millisecond
		o.LeaseTTL = 300 * time.Millisecond
	})
	got := runCycleOf(t, wf, cfg)
	assertRunsEqual(t, "hung", want, got)
	d := got.Dist
	if d == nil {
		t.Fatal("no DistReport")
	}
	if d.FellBack {
		t.Errorf("healthy worker should have absorbed the frozen worker's blocks (fell back: %s)", d.Reason)
	}
	lostFrozen := false
	for _, addr := range d.LostWorkers {
		if addr == frozen.URL {
			lostFrozen = true
		}
	}
	if !lostFrozen && len(d.Remote) > 1 {
		// The frozen worker only shows as lost if it was dealt a second
		// block; with one block total it freezes after the run finished.
		t.Errorf("frozen worker %s not marked lost (lost: %v)", frozen.URL, d.LostWorkers)
	}
}

// TestDistributedUninstrumentedPlansRun covers the optimized-plans leg
// (plans shipped per block, no instrumentation): engine-level dispatch
// with explicit join trees must match the local optimized run.
func TestDistributedUninstrumentedPlansRun(t *testing.T) {
	const wf = 8
	w, err := suite.Get(wf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cy, err := core.RunCtx(context.Background(), w.Graph, w.Catalog, w.Data(distScale), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cy.RunOptimizedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startWorker(t), startWorker(t)
	dcfg := distConfig(t, wf, []string{w1.URL, w2.URL}, nil)
	dcy, err := core.RunCtx(context.Background(), w.Graph, w.Catalog, w.Data(distScale), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dcy.RunOptimizedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertRunsEqual(t, "optimized", want, got)
	if got.Dist == nil || len(got.Dist.Remote) == 0 {
		t.Error("optimized distributed run executed nothing remotely")
	}
}

// TestCoordinatorRejectsEmptyFleet pins the configuration guard.
func TestCoordinatorRejectsEmptyFleet(t *testing.T) {
	if _, err := NewCoordinator(RunSpec{WF: 1, Scale: 1}, CoordinatorOptions{}); err == nil {
		t.Fatal("NewCoordinator accepted an empty worker fleet")
	}
}

// TestDistributedRejectsMetrics pins the config guard: distributed +
// CollectMetrics is a configuration error, not a silent local run.
func TestDistributedRejectsMetrics(t *testing.T) {
	w1 := startWorker(t)
	cfg := distConfig(t, 6, []string{w1.URL}, nil)
	cfg.CollectMetrics = true
	wf, err := suite.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.RunCtx(context.Background(), wf.Graph, wf.Catalog, wf.Data(distScale), cfg)
	if err == nil || !strings.Contains(err.Error(), "CollectMetrics") {
		t.Fatalf("want the CollectMetrics incompatibility error, got %v", err)
	}
}

// itoa2 renders a workflow id as two digits (test names match suite
// naming).
func itoa2(n int) string {
	return string([]byte{byte('0' + n/10), byte('0' + n%10)})
}
