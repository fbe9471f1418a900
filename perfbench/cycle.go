package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/serve"
	"github.com/essential-stats/etlopt/internal/suite"
)

// cycleWorkload is a single closed-loop caller that takes every workflow
// through one full cycle (core.Run with core.DefaultConfig, then
// RunOptimized) per round, in a fixed order: plan-wide, exec-heavy and,
// with dist set, dist-exec.
type cycleWorkload struct {
	name  string
	ids   []int
	scale float64
	// datasets is how many datasets, each from its own seed, every
	// workflow runs on per round. Averaging over several keeps one
	// seed's unusually light or heavy joins from setting the figure.
	datasets int
	// dist runs every execution through a coordinator over one in-process
	// worker on loopback (Config.Dispatcher), default lease settings.
	// Workers generate a workflow's data from (workflow, scale) with the
	// suite's own seed, so dist-exec always runs the suite's data and
	// ignores the workload seed.
	dist bool
}

type cycleInput struct {
	// k is the dataset index; the probes use dataset 0 only.
	k   int
	w   *suite.Workflow
	db  engine.DB
	cfg core.Config
	// ref holds dist-exec's in-process outputs, encoded.
	ref *reference
}

// reference is an in-process cycle's outputs in canonical encodings.
type reference struct {
	sinks, materialized, optimized map[string][]byte
	store                          []byte
}

type cycleEnv struct {
	inputs []*cycleInput
	worker *httpServer
	scale  float64
	genMs  float64
}

func (e *cycleEnv) close() {
	if e.worker != nil {
		e.worker.close()
	}
}

func (e *cycleEnv) dataMs() float64 { return e.genMs }

// setup generates the data and, for dist-exec, starts the worker and runs
// one plain distributed execution per workflow, which makes the worker
// generate its copy of the data before the measured rounds.
func (cw *cycleWorkload) setup(ctx context.Context, seed int64) (*cycleEnv, error) {
	env := &cycleEnv{scale: cw.scale}
	start := time.Now()
	for _, id := range cw.ids {
		for k := 0; k < max(cw.datasets, 1); k++ {
			w, err := suite.Get(id)
			if err != nil {
				return env, err
			}
			if !cw.dist {
				w.Seed = workflowSeed(seed, id, k)
			}
			env.inputs = append(env.inputs, &cycleInput{k: k, w: w, db: w.Data(env.scale), cfg: core.DefaultConfig()})
		}
	}
	env.genMs = msOf(time.Since(start))
	if !cw.dist {
		return env, nil
	}
	var err error
	if env.worker, err = startHTTP(serve.NewWorker().Handler()); err != nil {
		return env, err
	}
	for _, in := range env.inputs {
		coord, err := serve.NewCoordinator(serve.RunSpec{WF: in.w.ID, Scale: env.scale, CSS: in.cfg.CSS},
			serve.CoordinatorOptions{Addrs: []string{env.worker.url}})
		if err != nil {
			return env, err
		}
		in.cfg.Dispatcher = coord
		an, err := in.w.Analyze()
		if err != nil {
			return env, err
		}
		if _, err := newEngine(an, in.db, in.cfg).RunPlansCtx(ctx, nil, nil, nil); err != nil {
			return env, fmt.Errorf("%s: warm worker: %w", in.w.Name, err)
		}
	}
	return env, nil
}

// references computes dist-exec's expected outputs in process.
func (env *cycleEnv) references(ctx context.Context) error {
	for _, in := range env.inputs {
		cfg := in.cfg
		cfg.Dispatcher = nil
		out, err := untracedCycle(ctx, in.w, in.db, cfg)
		if err != nil {
			return fmt.Errorf("%s: in-process reference: %w", in.w.Name, err)
		}
		if in.ref, err = encodeOutputs(out); err != nil {
			return err
		}
	}
	return nil
}

func encodeOutputs(out *cycleOut) (*reference, error) {
	ref := &reference{}
	var err error
	if ref.sinks, err = encodeTables(out.observed.Sinks); err != nil {
		return nil, err
	}
	if ref.materialized, err = encodeTables(out.observed.Materialized); err != nil {
		return nil, err
	}
	if ref.optimized, err = encodeTables(out.optimized.Sinks); err != nil {
		return nil, err
	}
	if ref.store, err = encodeStore(out.observed.Observed); err != nil {
		return nil, err
	}
	return ref, nil
}

// check validates one cycle's outputs: the optimized plan costs no more
// than the initial one, the optimized run's sinks equal the instrumented
// run's as row multisets, and on dist-exec every output is byte-identical
// to the in-process reference.
func (in *cycleInput) check(out *cycleOut) error {
	if out.degraded {
		return fmt.Errorf("observation degraded")
	}
	if out.plans.TotalCost > out.plans.TotalInitialCost*(1+1e-9) {
		return fmt.Errorf("optimized cost %g exceeds initial cost %g", out.plans.TotalCost, out.plans.TotalInitialCost)
	}
	if err := sameSinks(out.optimized.Sinks, out.observed.Sinks); err != nil {
		return fmt.Errorf("optimized run vs instrumented run: %w", err)
	}
	if in.ref == nil {
		return nil
	}
	got, err := encodeOutputs(out)
	if err != nil {
		return err
	}
	if err := sameBytes("sinks", got.sinks, in.ref.sinks); err != nil {
		return err
	}
	if err := sameBytes("materialized", got.materialized, in.ref.materialized); err != nil {
		return err
	}
	if err := sameBytes("optimized sinks", got.optimized, in.ref.optimized); err != nil {
		return err
	}
	if string(got.store) != string(in.ref.store) {
		return fmt.Errorf("observed store differs from the in-process reference")
	}
	return nil
}

func (cw *cycleWorkload) run(o options) (*result, error) {
	ctx := context.Background()
	env, setupS, genMs, err := setUp(func() (*cycleEnv, error) { return cw.setup(ctx, o.seed) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	if cw.dist {
		if err := env.references(ctx); err != nil {
			return nil, err
		}
	}

	res := newResult()
	for _, s := range setupS {
		res.sample("setup_s", "s", s)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var untracedRounds, tracedRounds, residual []float64
	var allocs, bytes, cycles, busy, cpu float64
	roundSums := map[string][]float64{}
	// Only dataset 0's outputs are kept, for the probes; a cycle's outputs
	// are checked and dropped before the next cycle starts.
	last := make([]*cycleOut, len(env.inputs))
	// One collection before the window; after that the rounds carry their
	// own garbage, as a long-running scheduler's would.
	runtime.GC()
	deadline := time.Now().Add(o.seconds)
	for i := 0; time.Now().Before(deadline) || (o.trace && len(tracedRounds) == 0); i++ {
		traced := o.trace && i%2 == 1
		var round int
		if traced {
			round = tr.begin("core.round", tr.newOp(), 0, 0)
		}
		sums := layerSums{}
		roundS := 0.0
		for j, in := range env.inputs {
			counter := startAllocs()
			cpu0 := cpuTime()
			start := time.Now()
			var out *cycleOut
			var err error
			if traced {
				out, err = tracedCycle(ctx, tr, round, 0, in.w, in.db, in.cfg, sums)
			} else {
				out, err = untracedCycle(ctx, in.w, in.db, in.cfg)
			}
			d := time.Since(start).Seconds()
			c := (cpuTime() - cpu0).Seconds()
			n, b := counter.since()
			roundS += d
			if !o.trace {
				res.sample("op_ms", "ms", d*1e3)
				res.sample(in.w.Name+"_cycle_ms", "ms", d*1e3)
				allocs, bytes, cycles, busy, cpu = allocs+n, bytes+b, cycles+1, busy+d, cpu+c
			}
			res.attempted++
			if err == nil {
				err = in.check(out)
			}
			if err != nil {
				res.fail("%s: %v", in.w.Name, err)
				continue
			}
			if in.k == 0 {
				last[j] = out
			}
		}
		if traced {
			tr.end(round)
			tracedRounds = append(tracedRounds, roundS)
			// Per-layer values are per dataset, like the probes'.
			perSet := float64(max(cw.datasets, 1))
			residual = append(residual, msOf(tr.childSelfTime(round))/perSet)
			finishLayerSums(sums)
			for k, v := range sums {
				if k != "engine.rows_per_s" {
					v /= perSet
				}
				roundSums[k] = append(roundSums[k], v)
			}
		} else {
			untracedRounds = append(untracedRounds, roundS)
		}
	}

	if !o.trace {
		for _, s := range untracedRounds {
			res.sample("round_s", "s", s)
		}
		res.values["setup_s"] = median(setupS)
		res.values["round_s_p50"] = median(untracedRounds)
		res.values["cycles_per_s"] = cycles / busy
		res.values["cpu_ms_per_op"] = cpu / cycles * 1e3
		res.values["allocs_per_op"] = allocs / cycles
		res.values["alloc_mb_per_op"] = bytes / cycles / 1e6
		return res, nil
	}

	for j, out := range last {
		if out == nil && env.inputs[j].k == 0 {
			return nil, fmt.Errorf("%s: no successful cycle to probe", env.inputs[j].w.Name)
		}
	}
	catDir, err := catalogDir(o)
	if err != nil {
		return nil, err
	}
	sums := layerSums{}
	var ins []probeInput
	for j, in := range env.inputs {
		if in.k != 0 {
			continue
		}
		cfg := in.cfg
		cfg.Dispatcher = nil
		ins = append(ins, probeInput{w: in.w, db: in.db, scale: env.scale, cfg: cfg, out: last[j]})
	}
	for _, in := range ins {
		if err := probe(ctx, tr, in, catDir, sums); err != nil {
			return nil, fmt.Errorf("probe %s: %w", in.w.Name, err)
		}
	}
	if err := serveProbe(tr, ins, catDir, sums); err != nil {
		return nil, fmt.Errorf("serve probe: %w", err)
	}
	if err := dispatchProbe(ctx, tr, env.worker, ins, sums); err != nil {
		return nil, fmt.Errorf("dispatch probe: %w", err)
	}
	finishLayerSums(sums)
	for k, vs := range roundSums {
		sums[k] = median(vs)
	}
	sums["data.generate_ms"] = median(genMs)
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
	for _, s := range residual {
		res.sample("residual_ms", "ms", s)
	}
	return res, writeTrace(tr, o, cw.name)
}
