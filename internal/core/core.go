// Package core ties the whole framework of the paper together into the
// optimization loop of Figure 2: analyze the workflow into optimizable
// blocks, enumerate sub-expressions, generate candidate statistics sets,
// select a minimum-cost observable set, run the initial plan instrumented
// to collect it, and finally cost-optimize every block with the (exact)
// derived cardinalities. The loop can be repeated as data drifts: each
// optimized run is itself re-instrumented, keeping statistics current.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Config tunes one optimization cycle.
type Config struct {
	// CSS controls the rule families (union–division, cross-block, FK).
	CSS css.Options
	// Method selects the statistics-selection solver.
	Method selector.Method
	// CostModel prices plans during join-order optimization.
	CostModel optimizer.CostModel
	// UseFDs enables the functional-dependency cost reduction.
	UseFDs bool
	// CPUWeight adds the Section 5.4 CPU metric (tuples scanned per
	// statistic update) to the selection objective; 0 selects on memory
	// alone, the paper's Figure 11 setting.
	CPUWeight float64
	// Sizes supplies SE sizes for the CPU metric — typically the previous
	// cycle's estimator (Cycle.Estimator), closing the Section 5.4 loop.
	// Nil falls back to the independence approximation.
	Sizes costmodel.Sizes
	// FreeSourceStats prices unfiltered source-relation statistics at zero
	// when the relation advertises source-system statistics (Section 6.2).
	FreeSourceStats bool
	// Registry resolves transform UDFs at execution time (nil = defaults).
	Registry engine.Registry
	// Workers bounds how many independent blocks execute concurrently on
	// separate goroutines (each block itself runs on one goroutine).
	// Values <= 1 execute sequentially; observed statistics are identical
	// either way.
	Workers int
	// MaxRows caps the total intermediate rows any single execution may
	// produce; a run exceeding it aborts with a clear
	// intermediate-cardinality-guard error instead of blowing up memory on
	// skewed joins. 0 runs unguarded.
	MaxRows int64
	// CollectMetrics turns on per-operator runtime metrics during
	// execution and builds the estimate-feedback (q-error) report after
	// the instrumented run. Off by default: the hot paths stay timing-free.
	CollectMetrics bool
	// Faults injects deterministic failures into every execution of the
	// cycle (nil, the default, injects nothing). Transient faults retry at
	// block granularity; permanent tap faults degrade the observation and
	// walk the cycle down the degradation ladder instead of aborting it.
	Faults *faults.Injector
	// RetryMax bounds per-block attempts on transient faults (0 = engine
	// default of 3).
	RetryMax int
	// RetryBackoff is the base inter-attempt delay, doubling per retry,
	// capped at 100ms (0 = engine default of 1ms).
	RetryBackoff time.Duration
	// RowMode runs the engine's reference row interpreter instead of its
	// default columnar one; results and observations are identical (the
	// equivalence suite holds the columnar interpreter to it). The
	// reference runs in-process only, so RunCtx rejects RowMode combined
	// with a Dispatcher.
	RowMode bool
	// StatsTier selects the statistics observation tier: TierExact (the
	// default) observes exact counters and per-value histograms only;
	// TierApprox replaces every exact Distinct/Hist that has a sketch
	// sibling with the sketch (HyperLogLog distinct counts, count-min
	// histograms), cutting observation CPU and statistic payload bytes at
	// a calibrated estimate-accuracy cost; TierAuto admits sketches into
	// the universe and lets the selection objective choose per statistic.
	StatsTier StatsTier
	// MinAccuracy is the per-statistic accuracy floor for the approx and
	// auto tiers (0 admits every sketch at its analytical guarantee).
	MinAccuracy float64
	// AllowPartialStats lets OptimizeFromSaved proceed when the saved
	// store cannot derive every SE cardinality (a partial save from a
	// degraded or cancelled run): blocks whose cardinalities are
	// underivable keep their initial plans (reported in Result.Fallbacks)
	// instead of the whole optimization failing with a MissingStatsError.
	AllowPartialStats bool
	// Dispatcher, when non-nil, schedules every execution's blocks onto
	// remote worker processes (distributed mode; see internal/engine's
	// dispatch layer and internal/serve's Coordinator). Results, observed
	// statistics and the work metric are byte-identical to local runs.
	// Incompatible with CollectMetrics (workers do not ship per-operator
	// metrics), with RowMode (workers run the columnar interpreter) and with
	// adaptive execution (which needs the sequential local scheduler); the
	// run entry points reject those combinations.
	Dispatcher engine.BlockDispatcher
}

// check rejects engine-option combinations that would silently run
// something other than what was asked for, naming the combination.
func (c Config) check() error {
	switch {
	case c.RowMode && c.Dispatcher != nil:
		return fmt.Errorf("core: RowMode is incompatible with distributed execution (workers run the columnar interpreter)")
	case c.Dispatcher != nil && c.CollectMetrics:
		return fmt.Errorf("core: distributed execution is incompatible with CollectMetrics (workers do not ship per-operator metrics)")
	}
	return nil
}

// StatsTier names an observation tier.
type StatsTier string

// The observation tiers.
const (
	TierExact  StatsTier = "exact"
	TierApprox StatsTier = "approx"
	TierAuto   StatsTier = "auto"
)

// ParseStatsTier validates a tier name ("" means exact).
func ParseStatsTier(s string) (StatsTier, error) {
	switch StatsTier(s) {
	case "", TierExact:
		return TierExact, nil
	case TierApprox:
		return TierApprox, nil
	case TierAuto:
		return TierAuto, nil
	default:
		return "", fmt.Errorf("core: unknown stats tier %q (want exact, approx or auto)", s)
	}
}

// approxPolicy maps the configured tier onto the selector's policy.
func (c Config) approxPolicy() selector.ApproxPolicy {
	switch c.StatsTier {
	case TierApprox:
		return selector.ApproxPolicy{Enable: true, MinAccuracy: c.MinAccuracy, Force: true}
	case TierAuto:
		return selector.ApproxPolicy{Enable: true, MinAccuracy: c.MinAccuracy}
	default:
		return selector.ApproxPolicy{}
	}
}

// DefaultConfig enables every rule family with the exact solver and the
// C_out plan metric.
func DefaultConfig() Config {
	return Config{CSS: css.DefaultOptions(), Method: selector.MethodExact, CostModel: optimizer.Cout}
}

// Cycle is the outcome of one optimization cycle over a workflow.
type Cycle struct {
	Analysis  *workflow.Analysis
	CSS       *css.Result
	Selection *selector.Selection
	// Observed is the instrumented initial run.
	Observed *engine.Result
	// Estimator derives any statistic from the observations.
	Estimator *estimate.Estimator
	// Plans is the cost-based optimization outcome.
	Plans *optimizer.Result
	// Optimized is the re-execution under the optimized plans (nil until
	// RunOptimized is called).
	Optimized *engine.Result
	// Metrics is the instrumented run's per-operator metrics snapshot
	// (nil unless Config.CollectMetrics was set).
	Metrics *physical.RunMetrics
	// Feedback compares the instrumented run's actual cardinalities
	// against the estimates derived from the selected statistics (nil
	// unless Config.CollectMetrics was set).
	Feedback *estimate.Feedback
	// Degradation reports how the cycle routed around permanently failed
	// observations (nil on a clean run): the alternate covering CSS or
	// pay-as-you-go rung used, and any blocks left on initial plans.
	Degradation *Degradation
	// Timings records the wall-clock duration of each phase.
	Timings Timings

	cfg Config
	db  engine.DB
}

// Timings holds per-phase wall-clock durations of a cycle.
type Timings struct {
	Analyze, GenerateCSS, Select, ObserveRun, Optimize time.Duration
}

// newEngine builds the engine per the configuration.
func newEngine(an *workflow.Analysis, db engine.DB, cfg Config) *engine.Engine {
	eng := engine.New(an, db, cfg.Registry)
	eng.Workers = cfg.Workers
	eng.MaxRows = cfg.MaxRows
	eng.CollectMetrics = cfg.CollectMetrics
	eng.Faults = cfg.Faults
	eng.RetryMax = cfg.RetryMax
	eng.RetryBackoff = cfg.RetryBackoff
	eng.RowMode = cfg.RowMode
	eng.Dispatch = cfg.Dispatcher
	return eng
}

// Run executes one full cycle (steps 1–7 of Figure 2) over the workflow and
// database: the initial plan runs once, instrumented with the selected
// statistics, and the returned cycle carries the optimized per-block plans.
func Run(g *workflow.Graph, cat *workflow.Catalog, db engine.DB, cfg Config) (*Cycle, error) {
	return RunCtx(context.Background(), g, cat, db, cfg)
}

// RunCtx is Run under a context: cancellation (or deadline expiry) stops
// the cycle's executions promptly. On error the partial cycle — whatever
// phases completed, including the partial instrumented run and its metrics
// — rides alongside, so callers can flush what the cycle did produce.
//
// Observation failures that are permanent but survivable (failed taps,
// mis-declared statistics) do not error: the cycle completes via the
// degradation ladder and reports how in Cycle.Degradation.
func RunCtx(ctx context.Context, g *workflow.Graph, cat *workflow.Catalog, db engine.DB, cfg Config) (*Cycle, error) {
	cy := &Cycle{cfg: cfg, db: db}
	if err := cfg.check(); err != nil {
		return cy, err
	}
	start := time.Now()
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		return cy, fmt.Errorf("core: analyze: %w", err)
	}
	cy.Analysis = an
	cy.Timings.Analyze = time.Since(start)

	start = time.Now()
	res, err := css.Generate(an, cfg.CSS)
	if err != nil {
		return cy, fmt.Errorf("core: generate CSS: %w", err)
	}
	cy.CSS = res
	cy.Timings.GenerateCSS = time.Since(start)

	start = time.Now()
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	coster.UseFDs = cfg.UseFDs
	coster.FreeSourceStats = cfg.FreeSourceStats
	coster.CPUWeight = cfg.CPUWeight
	coster.Sizes = cfg.Sizes
	u, err := selector.NewUniverseOpts(res, coster, selector.UniverseOptions{Approx: cfg.approxPolicy()})
	if err != nil {
		return cy, fmt.Errorf("core: select statistics: %w", err)
	}
	sel, err := selector.SelectUniverse(u, selector.Options{Method: cfg.Method})
	if err != nil {
		return cy, fmt.Errorf("core: select statistics: %w", err)
	}
	cy.Selection = sel
	cy.Timings.Select = time.Since(start)

	start = time.Now()
	eng := newEngine(an, db, cfg)
	run, err := eng.RunPlansCtx(ctx, nil, res, sel.Observe)
	cy.Observed = run
	if run != nil {
		cy.Metrics = run.Metrics
	}
	if err != nil {
		return cy, fmt.Errorf("core: instrumented run: %w", err)
	}
	cy.Timings.ObserveRun = time.Since(start)

	if len(run.Degraded) > 0 {
		deg, err := degrade(ctx, cy, eng, u, res, run.Observed, run.Degraded)
		if err != nil {
			return cy, fmt.Errorf("core: degraded observation: %w", err)
		}
		cy.Degradation = deg
	}

	start = time.Now()
	cy.Estimator = estimate.New(res, run.Observed)
	plans, err := optimizer.OptimizeOpts(res, cy.Estimator, cfg.CostModel,
		optimizer.Options{FallbackInitial: cy.Degradation != nil})
	if err != nil {
		return cy, fmt.Errorf("core: optimize: %w", err)
	}
	if cy.Degradation != nil {
		cy.Degradation.FallbackBlocks = plans.Fallbacks
	}
	cy.Plans = plans
	cy.Timings.Optimize = time.Since(start)

	if run.Metrics != nil {
		cy.Feedback = estimate.BuildFeedback(res, cy.Estimator, run.Metrics.Actuals())
	}
	return cy, nil
}

// RunOptimized executes the workflow under the optimized per-block plans
// and records the result in the cycle. Subsequent cycles would instrument
// this run in turn; here it returns the executed result so callers can
// compare work metrics against the initial run.
func (cy *Cycle) RunOptimized() (*engine.Result, error) {
	return cy.RunOptimizedCtx(context.Background())
}

// RunOptimizedCtx is RunOptimized under a context.
func (cy *Cycle) RunOptimizedCtx(ctx context.Context) (*engine.Result, error) {
	eng := newEngine(cy.Analysis, cy.db, cy.cfg)
	out, err := eng.RunPlansCtx(ctx, cy.Plans.Trees(), nil, nil)
	if err != nil {
		return nil, fmt.Errorf("core: optimized run: %w", err)
	}
	cy.Optimized = out
	return out, nil
}

// NextConfig returns the configuration for the following cycle: identical,
// but with this cycle's learned sizes feeding the CPU cost metric, the way
// Section 5.4 breaks the circular size dependency after the first run.
func (cy *Cycle) NextConfig() Config {
	cfg := cy.cfg
	cfg.Sizes = cy.Estimator
	return cfg
}

// SaveStats persists the cycle's observed statistics so a later process can
// optimize without re-observing (ETL runs are usually scheduled in fresh
// processes).
func (cy *Cycle) SaveStats(w io.Writer) error {
	if cy.Observed == nil || cy.Observed.Observed == nil {
		return fmt.Errorf("core: no observed statistics to save")
	}
	_, err := cy.Observed.Observed.WriteTo(w)
	return err
}

// MissingStatsError reports a saved statistics store that cannot support a
// full optimization: for the named statistics (required SE cardinalities)
// no derivation path exists from what the store holds — the signature of a
// partial save from a degraded or cancelled run, or of a store saved under
// different CSS options. Config.AllowPartialStats turns the error into a
// fallback: affected blocks keep their initial plans.
type MissingStatsError struct {
	// Missing lists the underivable required statistics in canonical key
	// order.
	Missing []stats.Stat
	// Blocks lists the affected block indexes, ascending.
	Blocks []int
	// Labels renders Missing in the paper's notation (|T1⋈T2| …), aligned
	// with Missing, so the error message can name the statistics without
	// re-deriving the analysis.
	Labels []string
}

func (e *MissingStatsError) Error() string {
	const show = 5
	labels := e.Labels
	suffix := ""
	if len(labels) > show {
		labels = labels[:show]
		suffix = fmt.Sprintf(" and %d more", len(e.Labels)-show)
	}
	return fmt.Sprintf("core: saved statistics cannot derive %d required statistic(s) across block(s) %v: %s%s (partial save? set AllowPartialStats to optimize the derivable subset)",
		len(e.Missing), e.Blocks, strings.Join(labels, ", "), suffix)
}

// OptimizeFromSaved rebuilds the optimization outcome from previously saved
// statistics, without executing the workflow: analyze, regenerate the CSS
// result, load the store, and cost-optimize. It returns the estimator and
// plans a fresh process needs to run the optimized plan.
//
// A store that cannot derive every required SE cardinality fails with a
// typed *MissingStatsError naming the underivable statistics — silent
// estimation from incomplete statistics is exactly the failure mode the
// paper's framework exists to rule out. Config.AllowPartialStats instead
// optimizes the derivable subset, leaving affected blocks on their initial
// plans (optimizer.Result.Fallbacks).
func OptimizeFromSaved(g *workflow.Graph, cat *workflow.Catalog, r io.Reader, cfg Config) (*estimate.Estimator, *optimizer.Result, error) {
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		return nil, nil, fmt.Errorf("core: analyze: %w", err)
	}
	res, err := css.Generate(an, cfg.CSS)
	if err != nil {
		return nil, nil, fmt.Errorf("core: generate CSS: %w", err)
	}
	store, err := stats.ReadStore(r)
	if err != nil {
		return nil, nil, fmt.Errorf("core: load statistics: %w", err)
	}
	return OptimizeFromStore(res, store, cfg)
}

// OptimizeFromStore is OptimizeFromSaved past the loading phase: callers
// holding an already-generated CSS result and an already-validated store
// (the serving daemon's catalog) enter here, so both paths produce
// identical plans and estimates by construction.
func OptimizeFromStore(res *css.Result, store *stats.Store, cfg Config) (*estimate.Estimator, *optimizer.Result, error) {
	est := estimate.New(res, store)
	if miss := missingRequired(res, est); miss != nil && !cfg.AllowPartialStats {
		return nil, nil, miss
	}
	plans, err := optimizer.OptimizeOpts(res, est, cfg.CostModel,
		optimizer.Options{FallbackInitial: cfg.AllowPartialStats})
	if err != nil {
		return nil, nil, fmt.Errorf("core: optimize: %w", err)
	}
	return est, plans, nil
}

// missingRequired probes every required statistic (the cardinality of
// every SE of every block) against the estimator and reports the
// underivable ones, or nil when the store covers everything.
func missingRequired(res *css.Result, est *estimate.Estimator) *MissingStatsError {
	var miss []stats.Stat
	for _, s := range res.Required {
		if _, err := est.Value(s); err != nil {
			miss = append(miss, s)
		}
	}
	if len(miss) == 0 {
		return nil
	}
	sort.Slice(miss, func(i, j int) bool { return stats.KeyLess(miss[i].Key(), miss[j].Key()) })
	e := &MissingStatsError{Missing: miss}
	blocks := map[int]bool{}
	for _, s := range miss {
		b := s.Target.Block
		e.Labels = append(e.Labels, s.Label(res.Analysis.Blocks[b]))
		if !blocks[b] {
			blocks[b] = true
			e.Blocks = append(e.Blocks, b)
		}
	}
	sort.Ints(e.Blocks)
	return e
}

// DriftFrom measures how far this cycle's observations moved relative to a
// previous cycle's; callers re-optimize when the drift exceeds their
// threshold (the paper's "repeat periodically" made data-driven).
func (cy *Cycle) DriftFrom(prev *Cycle) stats.Drift {
	if cy.Observed == nil || prev == nil || prev.Observed == nil {
		return stats.Drift{}
	}
	return stats.MeasureDrift(prev.Observed.Observed, cy.Observed.Observed)
}

// ShouldReoptimize reports whether the drift since a previous cycle
// warrants re-optimizing. With metrics collected, the base threshold is
// calibrated by the estimate feedback: accurate derivations keep the base,
// inaccurate ones shrink it so a shakily-justified plan re-optimizes
// sooner. Without feedback the base threshold applies directly.
func (cy *Cycle) ShouldReoptimize(prev *Cycle, base float64) bool {
	d := cy.DriftFrom(prev)
	if cy.Feedback != nil {
		return cy.Feedback.ShouldReoptimize(d, base)
	}
	return d.Exceeds(base)
}

// Improvement returns the ratio of initial plan cost to optimized plan cost
// under the cycle's cost model (1.0 = the initial plan was already optimal).
func (cy *Cycle) Improvement() float64 {
	if cy.Plans == nil || cy.Plans.TotalCost == 0 {
		return 1
	}
	return cy.Plans.TotalInitialCost / cy.Plans.TotalCost
}
