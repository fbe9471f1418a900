package suite

import (
	"bytes"
	"testing"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/stats"
)

// sketchObserve returns the sketch-backed variants (HLLDistinct, CMHist) of
// every observable statistic in the result, deduplicated, in universe order.
func sketchObserve(res *css.Result) []stats.Stat {
	seen := make(map[stats.Key]bool)
	var out []stats.Stat
	for _, s := range res.ObservableStats() {
		v, ok := stats.ApproxVariant(s)
		if !ok || !res.StatObservable(v) {
			continue
		}
		if k := v.Key(); !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// TestSketchEquivalenceGolden extends the cross-engine contract to the
// approximate tier: observing every sketch-backed variant over every suite
// workflow, every engine configuration — the reference row interpreter and
// the columnar interpreter, sequential and worker-parallel — must produce
// byte-identical sketch state (HLL registers, count-min counters). Sketch
// updates are order-independent, so neither interpreter nor block
// scheduling may introduce any drift at all, not merely bounded drift.
func TestSketchEquivalenceGolden(t *testing.T) {
	const scale = 0.001
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			an, err := w.Analyze()
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			res, err := css.Generate(an, css.DefaultOptions())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			observe := sketchObserve(res)
			if len(observe) == 0 {
				t.Skip("no sketch-backed statistics in this workflow")
			}
			db := w.Data(scale)

			ref, err := runConfig(engineConfigs[0], an, db, res, observe, false, nil)
			if err != nil {
				t.Fatalf("%s: %v", engineConfigs[0].name, err)
			}
			var sketches int
			for _, v := range ref.Observed.Values() {
				if v.HLL != nil || v.CM != nil {
					sketches++
				}
			}
			if sketches != len(observe) {
				t.Fatalf("golden run observed %d sketches, want %d", sketches, len(observe))
			}

			for _, cfg := range engineConfigs[1:] {
				if raceDetector && cfg.workers == 1 {
					// See TestEngineEquivalenceGolden: sequential legs cannot
					// race and are covered by the unraced CI jobs.
					continue
				}
				got, err := runConfig(cfg, an, db, res, observe, false, nil)
				if err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				diffResults(t, cfg.name, ref, got)
			}
		})
	}
}

// TestFaultMatrixSketchRung is the fault-matrix leg for the approximate
// tier: under permanent tap faults, some injector seed must complete a suite
// workflow's cycle on the degradation ladder's sketch rung — every failed
// exact statistic recovered through its bounded-memory sibling, no
// pay-as-you-go runs, no blocks abandoned to their initial plans.
func TestFaultMatrixSketchRung(t *testing.T) {
	const scale = 0.002
	for _, wfID := range []int{3, 1, 8} {
		w := MustGet(wfID)
		db := w.Data(scale)
		for seed := uint64(1); seed <= 48; seed++ {
			cfg := core.DefaultConfig()
			cfg.Faults = faults.New(seed, 0.3, 0, faults.Tap)
			cy, err := core.Run(w.Graph, w.Catalog, db, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: Run aborted: %v", w.Name, seed, err)
			}
			deg := cy.Degradation
			if deg == nil || deg.Mode != "sketch" {
				continue
			}
			if deg.SketchRuns != 1 || deg.PaygRuns != 0 {
				t.Fatalf("%s seed %d: sketch mode with %d sketch / %d payg runs",
					w.Name, seed, deg.SketchRuns, deg.PaygRuns)
			}
			store := cy.Observed.Observed
			for _, f := range deg.Failed {
				v, ok := stats.ApproxVariant(f.Stat)
				if !ok || !store.Has(v) {
					t.Fatalf("%s seed %d: failed statistic %v not covered by a sketch",
						w.Name, seed, f.Stat.Key())
				}
			}
			if n := len(deg.FallbackBlocks); n != 0 {
				t.Fatalf("%s seed %d: sketch rung left %d fallback blocks", w.Name, seed, n)
			}
			t.Logf("%s seed %d: sketch rung recovered %d failed statistic(s)",
				w.Name, seed, len(deg.Failed))
			return
		}
	}
	t.Fatal("no (workflow, seed) pair completed via the sketch rung")
}

// TestApproxTierAcceptance pins the tentpole's payoff: switching the cycle
// to -stats-tier=approx must cut both the observation CPU cost (per the
// Section 5.4 model: tuples past the tap × per-kind update weight) and the
// statistics upload payload — the bytes /v1/observe receives — by at least
// 5x in aggregate, while the q-error of the derived cardinalities stays
// within the calibrated threshold of the sketches' analytical accuracy.
//
// The aggregate runs over the suite workflows whose observable statistics
// are (near-)fully sketch-coverable — single-attribute distributions and
// distinct counts. Workflows dominated by joint distributions keep paying
// the exact price in both tiers (a single-attribute sketch cannot replace
// a joint histogram, by design), so they dilute the ratio without testing
// the tier; TestSketchEquivalenceGolden still covers them for correctness.
// Scales are per-workflow: large enough that the exact histograms dwarf
// the sketches' fixed footprint, small enough to keep the run fast.
func TestApproxTierAcceptance(t *testing.T) {
	cases := []struct {
		id    int
		scale float64
	}{{3, 0.02}, {11, 0.2}, {29, 0.1}}
	var exactCPU, approxCPU float64
	var exactBytes, approxBytes int64
	var worstQ, worstExactQ float64
	for _, tc := range cases {
		w := MustGet(tc.id)
		an, err := w.Analyze()
		if err != nil {
			t.Fatalf("%s: Analyze: %v", w.Name, err)
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Generate: %v", w.Name, err)
		}
		coster := costmodel.NewMemoryCoster(res, an.Cat)
		db := w.Data(tc.scale)

		run := func(tier core.StatsTier) (cpu float64, payload int64, maxQ float64) {
			cfg := core.DefaultConfig()
			cfg.CollectMetrics = true
			cfg.StatsTier = tier
			cy, err := core.Run(w.Graph, w.Catalog, db, cfg)
			if err != nil {
				t.Fatalf("%s (%s): Run: %v", w.Name, tier, err)
			}
			for _, s := range cy.Selection.Observe {
				cpu += coster.CPU(s)
			}
			var buf bytes.Buffer
			if err := cy.SaveStats(&buf); err != nil {
				t.Fatalf("%s (%s): SaveStats: %v", w.Name, tier, err)
			}
			if cy.Feedback != nil {
				maxQ = cy.Feedback.MaxQ
			}
			return cpu, int64(buf.Len()), maxQ
		}

		eCPU, eBytes, eQ := run(core.TierExact)
		aCPU, aBytes, aQ := run(core.TierApprox)
		t.Logf("%s: cpu %.0f→%.0f (%.1fx), payload %d→%d (%.1fx), maxQ %.3f→%.3f",
			w.Name, eCPU, aCPU, eCPU/aCPU, eBytes, aBytes,
			float64(eBytes)/float64(aBytes), eQ, aQ)
		exactCPU += eCPU
		approxCPU += aCPU
		exactBytes += eBytes
		approxBytes += aBytes
		if aQ > worstQ {
			worstQ = aQ
		}
		if eQ > worstExactQ {
			worstExactQ = eQ
		}
	}
	cpuRatio := exactCPU / approxCPU
	byteRatio := float64(exactBytes) / float64(approxBytes)
	t.Logf("suite aggregate: cpu %.1fx, payload %.1fx, worst maxQ exact %.3f approx %.3f",
		cpuRatio, byteRatio, worstExactQ, worstQ)
	if cpuRatio < 5 {
		t.Errorf("approx tier cut observation CPU cost only %.2fx, want >= 5x", cpuRatio)
	}
	if byteRatio < 5 {
		t.Errorf("approx tier cut observe payload bytes only %.2fx, want >= 5x", byteRatio)
	}
	// The calibrated threshold: the sketches guarantee ~95% accuracy
	// (1 − 1.04/√m for HLL, 1 − e/w for count-min), so derived cardinalities
	// may drift a few percent beyond whatever error the exact tier already
	// carries (independence-assumption rules), but not collapse.
	if threshold := 2*worstExactQ + 0.5; worstQ > threshold {
		t.Errorf("approx-tier worst q-error %.3f exceeds calibrated threshold %.3f", worstQ, threshold)
	}
}
