package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
)

// The daemon's response shapes, as documented in docs/SERVING.md. The
// benchmark recomputes each answer through public calls and compares it
// with what the daemon sent, ignoring the generation field.
type optimizeAnswer struct {
	Workflow         string       `json:"workflow"`
	CostModel        string       `json:"costModel"`
	TotalCost        float64      `json:"totalCost"`
	TotalInitialCost float64      `json:"totalInitialCost"`
	Improvement      float64      `json:"improvement"`
	Fallbacks        []int        `json:"fallbacks,omitempty"`
	Blocks           []planAnswer `json:"blocks"`
}

type planAnswer struct {
	Block       int     `json:"block"`
	Designed    string  `json:"designed,omitempty"`
	Optimized   string  `json:"optimized,omitempty"`
	Cost        float64 `json:"cost"`
	InitialCost float64 `json:"initialCost"`
}

type estimateAnswer struct {
	Workflow  string `json:"workflow"`
	Method    string `json:"method"`
	Selection struct {
		Cost    float64  `json:"cost"`
		Memory  int64    `json:"memory"`
		Optimal bool     `json:"optimal"`
		Observe []string `json:"observe"`
	} `json:"selection"`
	Coverage *struct {
		Derivable int `json:"derivable"`
		Total     int `json:"total"`
	} `json:"coverage,omitempty"`
	Cardinalities []cardAnswer `json:"cardinalities,omitempty"`
}

type cardAnswer struct {
	Block int    `json:"block"`
	SE    string `json:"se"`
	Card  int64  `json:"card"`
}

// canonical turns a JSON document into a comparable value without its
// generation field.
func canonical(doc []byte) (map[string]any, error) {
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, err
	}
	delete(m, "generation")
	return m, nil
}

func canonicalOf(v any) (map[string]any, error) {
	doc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return canonical(doc)
}

// solveOptimize answers /v1/optimize for a store: core.OptimizeFromStore.
func solveOptimize(name string, res *css.Result, store *stats.Store, cfg core.Config) (map[string]any, error) {
	_, plans, err := core.OptimizeFromStore(res, store, cfg)
	if err != nil {
		return nil, err
	}
	a := optimizeAnswer{Workflow: name, CostModel: "cout", TotalCost: plans.TotalCost,
		TotalInitialCost: plans.TotalInitialCost, Improvement: 1, Fallbacks: plans.Fallbacks}
	if plans.TotalCost != 0 {
		a.Improvement = plans.TotalInitialCost / plans.TotalCost
	}
	for bi, blk := range res.Analysis.Blocks {
		p, ok := plans.Plans[bi]
		if !ok {
			continue
		}
		pa := planAnswer{Block: bi, Cost: p.Cost, InitialCost: p.InitialCost}
		if blk.Initial != nil {
			pa.Designed = blk.Initial.Render(blk)
		}
		if p.Tree != nil {
			pa.Optimized = p.Tree.Render(blk)
		}
		a.Blocks = append(a.Blocks, pa)
	}
	return canonicalOf(a)
}

// solveEstimate answers /v1/estimate (exact method, no budget) for a
// store: the selector over the workflow's universe, then every SE
// cardinality the store derives.
func solveEstimate(name string, res *css.Result, store *stats.Store) (map[string]any, error) {
	u, err := selector.NewUniverse(res, costmodel.NewMemoryCoster(res, res.Analysis.Cat))
	if err != nil {
		return nil, err
	}
	sel, err := selector.SelectUniverse(u, selector.Options{Method: selector.MethodExact})
	if err != nil {
		return nil, err
	}
	a := estimateAnswer{Workflow: name, Method: "exact"}
	a.Selection.Cost, a.Selection.Memory, a.Selection.Optimal = sel.Cost, sel.Memory, sel.Optimal
	a.Selection.Observe = make([]string, 0, len(sel.Observe))
	for _, st := range sel.Observe {
		a.Selection.Observe = append(a.Selection.Observe,
			fmt.Sprintf("block %d: %s", st.Target.Block, st.Label(res.Analysis.Blocks[st.Target.Block])))
	}
	derivable, total := estimate.Coverage(res, store)
	a.Coverage = &struct {
		Derivable int `json:"derivable"`
		Total     int `json:"total"`
	}{derivable, total}
	est := estimate.New(res, store)
	for bi, sp := range res.Spaces {
		for _, se := range sp.SEs {
			if card, err := est.CardOf(bi, se); err == nil {
				a.Cardinalities = append(a.Cardinalities, cardAnswer{bi, se.Label(res.Analysis.Blocks[bi]), card})
			}
		}
	}
	return canonicalOf(a)
}

// matches reports whether a daemon body equals the recomputed answer.
func matches(body []byte, want map[string]any) bool {
	got, err := canonical(body)
	return err == nil && reflect.DeepEqual(got, want)
}

// reoptimized reads an observe response's reoptimize flag.
func reoptimized(body []byte) bool {
	var r struct {
		Reoptimize bool `json:"reoptimize"`
	}
	return json.Unmarshal(body, &r) == nil && r.Reoptimize
}

// serveProbe drives a fresh daemon with each workflow's observed store:
// one upload, a warming optimize (it builds the daemon's CSS), then an
// estimate miss, an estimate hit and an optimize hit. It gives the serve
// layer's numbers on workloads whose rounds do not go through the daemon.
func serveProbe(tr *tracer, ins []probeInput, catDir string, sums layerSums) error {
	dir, err := os.MkdirTemp(catDir, "catalog-")
	if err != nil {
		return err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	defer d.close()
	op := tr.newOp()
	root := tr.begin("probe.serve", op, 0, 0)
	defer tr.end(root)
	var hits, waits []float64
	queries := 0
	sums["serve.invalidations"] += 0
	for _, in := range ins {
		name, store := in.w.Name, in.out.observed.Observed
		blob, err := encodeStore(store)
		if err != nil {
			return err
		}
		r, err := d.observe(name, blob)
		if err != nil || r.status != 200 {
			return fmt.Errorf("probe observe %s: status %d: %v", name, r.status, err)
		}
		if reoptimized(r.body) {
			sums["serve.invalidations"]++
		}
		wantOpt, err := solveOptimize(name, in.out.res, store, in.cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		wantEst, err := solveEstimate(name, in.out.res, store)
		replayEst := time.Since(start)
		if err != nil {
			return err
		}
		steps := []struct {
			send func(string) (reply, error)
			want map[string]any
			hit  bool
			keep bool
		}{
			{d.optimize, wantOpt, false, false},
			{d.estimate, wantEst, false, true},
			{d.estimate, wantEst, true, true},
			{d.optimize, wantOpt, true, true},
		}
		for _, s := range steps {
			id := tr.begin("serve.request", op, root, 0)
			r, err := s.send(name)
			tr.end(id)
			if err != nil || r.status != 200 || r.hit != s.hit || !matches(r.body, s.want) {
				return fmt.Errorf("probe %s: status %d hit %v (want %v), body matches %v: %v", name, r.status, r.hit, s.hit, matches(r.body, s.want), err)
			}
			if !s.keep {
				continue
			}
			queries++
			if r.hit {
				hits = append(hits, msOf(r.lat))
			} else {
				waits = append(waits, msOf(r.lat-replayEst))
			}
		}
	}
	sums["serve.hit_ms"] = median(hits)
	sums["serve.hit_ratio"] = float64(len(hits)) / float64(queries)
	sums["serve.miss_wait_ms"] = median(waits)
	shed, err := d.counter("etlopt_serve_sheds_total")
	sums["serve.shed"] = shed
	return err
}

// serveWorkload is serve-drift: two closed-loop clients against one
// in-process daemon. Each round, every workflow goes through one period of
// ten requests (one observe, then six optimize and three estimate,
// interleaved); the clients wait for each other at the end of a round.
type serveWorkload struct {
	ids    []int
	scales [2]float64
}

// serveFlow is one workflow's state on the client side. Exactly one
// client drives each flow.
type serveFlow struct {
	w      *suite.Workflow
	db     engine.DB // the first scale's data, for the probes
	out    *cycleOut // the first scale's instrumented run
	res    *css.Result
	stores [2]*stats.Store
	blobs  [2][]byte
	cur    int // which store the daemon holds

	wantOpt, wantEst     [2]map[string]any
	replayOpt, replayEst [2]time.Duration
}

type serveEnv struct {
	flows []*serveFlow
	d     *daemon
	genMs float64
}

func (e *serveEnv) close() {
	if e.d != nil {
		e.d.close()
	}
}

func (e *serveEnv) dataMs() float64 { return e.genMs }

type reqKind int

const (
	kindObserve reqKind = iota
	kindOptimize
	kindEstimate
)

var kindNames = [...]string{"observe", "optimize", "estimate"}

// period is one workflow's ten requests in the 6:3:1 mix.
var period = []reqKind{kindObserve, kindOptimize, kindEstimate, kindOptimize, kindOptimize,
	kindEstimate, kindOptimize, kindOptimize, kindEstimate, kindOptimize}

// setup seeds the observed stores (one instrumented run per workflow and
// scale), starts the daemon, uploads each workflow's first store and warms
// the daemon's per-workflow CSS with one optimize.
func (sw *serveWorkload) setup(ctx context.Context, seed int64, catDir string) (*serveEnv, error) {
	env := &serveEnv{}
	cfg := core.DefaultConfig()
	for _, id := range sw.ids {
		w, err := suite.Get(id)
		if err != nil {
			return env, err
		}
		w.Seed = workflowSeed(seed, id, 0)
		an, err := w.Analyze()
		if err != nil {
			return env, err
		}
		res, err := css.Generate(an, cfg.CSS)
		if err != nil {
			return env, err
		}
		u, err := selector.NewUniverse(res, costmodel.NewMemoryCoster(res, an.Cat))
		if err != nil {
			return env, err
		}
		sel, err := selector.SelectUniverse(u, selector.Options{Method: cfg.Method})
		if err != nil {
			return env, err
		}
		f := &serveFlow{w: w, res: res}
		for k, scale := range sw.scales {
			start := time.Now()
			db := w.Data(scale)
			env.genMs += msOf(time.Since(start))
			run, err := newEngine(an, db, cfg).RunPlansCtx(ctx, nil, res, sel.Observe)
			if err != nil {
				return env, fmt.Errorf("%s: seeding run: %w", w.Name, err)
			}
			f.stores[k] = run.Observed
			if f.blobs[k], err = encodeStore(run.Observed); err != nil {
				return env, err
			}
			if k == 0 {
				f.db = db
				f.out = &cycleOut{an: an, res: res, sel: sel, observed: run}
			}
		}
		env.flows = append(env.flows, f)
	}
	dir, err := os.MkdirTemp(catDir, "catalog-")
	if err != nil {
		return env, err
	}
	if env.d, err = startDaemon(dir); err != nil {
		return env, err
	}
	for _, f := range env.flows {
		if r, err := env.d.observe(f.w.Name, f.blobs[0]); err != nil || r.status != 200 {
			return env, fmt.Errorf("seed %s: status %d: %v", f.w.Name, r.status, err)
		}
		if r, err := env.d.optimize(f.w.Name); err != nil || r.status != 200 {
			return env, fmt.Errorf("warm %s: status %d: %v", f.w.Name, r.status, err)
		}
	}
	return env, nil
}

// oracle precomputes every answer the daemon may give, and how long the
// same solve takes through public calls.
func (env *serveEnv) oracle() error {
	cfg := core.DefaultConfig()
	for _, f := range env.flows {
		for k, st := range f.stores {
			var err error
			start := time.Now()
			if f.wantOpt[k], err = solveOptimize(f.w.Name, f.res, st, cfg); err != nil {
				return err
			}
			f.replayOpt[k] = time.Since(start)
			start = time.Now()
			if f.wantEst[k], err = solveEstimate(f.w.Name, f.res, st); err != nil {
				return err
			}
			f.replayEst[k] = time.Since(start)
		}
	}
	return nil
}

// request is one recorded request.
type request struct {
	kind  reqKind
	flow  *serveFlow
	store int // the store the answer must derive from
	r     reply
	err   error
}

func (sw *serveWorkload) run(o options) (*result, error) {
	ctx := context.Background()
	catDir, err := catalogDir(o)
	if err != nil {
		return nil, err
	}
	env, setupS, genMs, err := setUp(func() (*serveEnv, error) { return sw.setup(ctx, o.seed, catDir) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := env.oracle(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	res := newResult()
	for _, s := range setupS {
		res.sample("setup_s", "s", s)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	clients := [][]*serveFlow{{env.flows[0]}, env.flows[1:]}
	var untracedRounds, tracedRounds, residual []float64
	var allocs, bytes, requests, periods, cpu float64
	var hits, waits []float64
	queries := 0
	invalidations := 0.0
	runtime.GC()
	deadline := time.Now().Add(o.seconds)
	for i := 0; time.Now().Before(deadline) || (o.trace && len(tracedRounds) == 0); i++ {
		traced := o.trace && i%2 == 1
		var round int
		if traced {
			round = tr.begin("serve.round", tr.newOp(), 0, 0)
		}
		counter := startAllocs()
		cpu0 := cpuTime()
		start := time.Now()
		recs := make([][]request, len(clients))
		clientDur := make([]time.Duration, len(clients))
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var t *tracer
				if traced {
					t = tr
				}
				for _, f := range clients[c] {
					for _, k := range period {
						recs[c] = append(recs[c], f.send(env.d, k, t, round, c+1))
					}
				}
				clientDur[c] = time.Since(start)
			}(c)
		}
		wg.Wait()
		dur := time.Since(start)
		roundCPU := (cpuTime() - cpu0).Seconds()
		n, b := counter.since()
		for c, d := range clientDur {
			res.sample(fmt.Sprintf("client%d_s", c), "s", d.Seconds())
		}
		if traced {
			tr.end(round)
			tracedRounds = append(tracedRounds, dur.Seconds())
			residual = append(residual, msOf(tr.selfTime(round)))
		} else {
			untracedRounds = append(untracedRounds, dur.Seconds())
		}
		roundInvalidations := 0.0
		for _, rs := range recs {
			for _, rq := range rs {
				res.attempted++
				if !traced {
					requests++
					res.sample("op_ms", "ms", msOf(rq.r.lat))
					res.sample(kindNames[rq.kind]+"_ms", "ms", msOf(rq.r.lat))
				}
				if err := rq.check(); err != nil {
					res.fail("%s %s: %v", kindNames[rq.kind], rq.flow.w.Name, err)
					continue
				}
				switch {
				case rq.kind == kindObserve:
					roundInvalidations++
				case traced && rq.r.hit:
					queries++
					hits = append(hits, msOf(rq.r.lat))
				case traced:
					queries++
					replay := rq.flow.replayOpt[rq.store]
					if rq.kind == kindEstimate {
						replay = rq.flow.replayEst[rq.store]
					}
					waits = append(waits, msOf(rq.r.lat-replay))
				}
			}
		}
		if traced {
			invalidations += roundInvalidations
		} else {
			periods += float64(len(env.flows))
			allocs += n
			bytes += b
			cpu += roundCPU
		}
	}

	if !o.trace {
		busy := 0.0
		for _, s := range untracedRounds {
			busy += s
			res.sample("round_s", "s", s)
		}
		res.values["setup_s"] = median(setupS)
		res.values["round_s_p50"] = median(untracedRounds)
		res.values["cycles_per_s"] = periods / busy
		res.values["cpu_ms_per_op"] = cpu / requests * 1e3
		res.values["allocs_per_op"] = allocs / requests
		res.values["alloc_mb_per_op"] = bytes / requests / 1e6
		res.notes = append(res.notes, fmt.Sprintf("serve_rps %.6g (%g requests in %.3f s of rounds)", requests/busy, requests, busy))
		return res, nil
	}

	sums := layerSums{}
	for _, f := range env.flows {
		if _, err := tracedCycle(ctx, tr, 0, 0, f.w, f.db, core.DefaultConfig(), sums); err != nil {
			return nil, fmt.Errorf("probe cycle %s: %w", f.w.Name, err)
		}
	}
	var ins []probeInput
	for _, f := range env.flows {
		ins = append(ins, probeInput{w: f.w, db: f.db, scale: sw.scales[0], cfg: core.DefaultConfig(), out: f.out, prev: f.stores[1]})
	}
	for _, in := range ins {
		if err := probe(ctx, tr, in, catDir, sums); err != nil {
			return nil, fmt.Errorf("probe %s: %w", in.w.Name, err)
		}
	}
	if err := dispatchProbe(ctx, tr, nil, ins, sums); err != nil {
		return nil, fmt.Errorf("dispatch probe: %w", err)
	}
	finishLayerSums(sums)
	sums["data.generate_ms"] = median(genMs)
	sums["serve.hit_ms"] = median(hits)
	sums["serve.hit_ratio"] = float64(len(hits)) / float64(queries)
	sums["serve.miss_wait_ms"] = median(waits)
	sums["serve.invalidations"] = invalidations / float64(len(tracedRounds))
	if sums["serve.shed"], err = env.d.counter("etlopt_serve_sheds_total"); err != nil {
		return nil, err
	}
	sums["core.residual_ms"] = median(residual)
	sums["trace.overhead"] = median(tracedRounds) / median(untracedRounds)
	sums["process.peak_rss_mb"] = peakRSSMB()
	for k, v := range sums {
		res.values[k] = v
	}
	for _, s := range tracedRounds {
		res.sample("traced_round_s", "s", s)
	}
	for _, s := range untracedRounds {
		res.sample("untraced_round_s", "s", s)
	}
	return res, writeTrace(tr, o, "serve-drift")
}

// send issues one request of the period for flow f.
func (f *serveFlow) send(d *daemon, k reqKind, tr *tracer, parent, lane int) request {
	rq := request{kind: k, flow: f, store: f.cur}
	id := tr.begin("serve."+kindNames[k], tr.newOp(), parent, lane)
	switch k {
	case kindObserve:
		rq.store = 1 - f.cur
		rq.r, rq.err = d.observe(f.w.Name, f.blobs[rq.store])
		if rq.err == nil && rq.r.status == 200 {
			f.cur = rq.store
		}
	case kindOptimize:
		rq.r, rq.err = d.optimize(f.w.Name)
	case kindEstimate:
		rq.r, rq.err = d.estimate(f.w.Name)
	}
	tr.end(id)
	return rq
}

// check validates one response against the precomputed answers.
func (rq *request) check() error {
	if rq.err != nil {
		return rq.err
	}
	if rq.r.status != 200 {
		return fmt.Errorf("status %d: %.200s", rq.r.status, rq.r.body)
	}
	switch rq.kind {
	case kindObserve:
		if !reoptimized(rq.r.body) {
			return fmt.Errorf("upload did not drift past the threshold")
		}
	case kindOptimize:
		if !matches(rq.r.body, rq.flow.wantOpt[rq.store]) {
			return fmt.Errorf("optimize answer differs from core.OptimizeFromStore on store %d", rq.store)
		}
	case kindEstimate:
		if !matches(rq.r.body, rq.flow.wantEst[rq.store]) {
			return fmt.Errorf("estimate answer differs from the selector on store %d", rq.store)
		}
	}
	return nil
}

// writeTrace writes the run's spans under the work directory.
func writeTrace(tr *tracer, o options, name string) error {
	dir := filepath.Join(o.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, o.seed)))
}
