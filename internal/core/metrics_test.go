package core

import (
	"bytes"
	"testing"

	"github.com/essential-stats/etlopt/internal/suite"
)

// TestMetricsOffByDefault pins the opt-in contract: without
// Config.CollectMetrics the cycle carries no metrics or feedback and
// WriteMetrics refuses with a pointed error.
func TestMetricsOffByDefault(t *testing.T) {
	g, cat, db := skewedRetail(t)
	cy, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cy.Metrics != nil || cy.Feedback != nil {
		t.Fatal("metrics collected without CollectMetrics")
	}
	if err := cy.WriteMetrics(&bytes.Buffer{}, "table"); err == nil {
		t.Fatal("WriteMetrics without collection: want error")
	}
}

// TestMetricsReportDeterminism verifies the -metrics report is
// bit-identical across worker counts and repeated runs, in both
// formats: it carries only row counts and q-errors, never wall times.
func TestMetricsReportDeterminism(t *testing.T) {
	w := suite.MustGet(7) // block chain: exercises chain taps and parallel paths
	db := w.Data(0.002)

	render := func(workers int) (string, string) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.CollectMetrics = true
		cfg.Workers = workers
		cy, err := Run(w.Graph, w.Catalog, db, cfg)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		var tbl, js bytes.Buffer
		if err := cy.WriteMetrics(&tbl, "table"); err != nil {
			t.Fatalf("WriteMetrics table: %v", err)
		}
		if err := cy.WriteMetrics(&js, "json"); err != nil {
			t.Fatalf("WriteMetrics json: %v", err)
		}
		return tbl.String(), js.String()
	}

	refTbl, refJS := render(1)
	if refTbl == "" || refJS == "" {
		t.Fatal("empty metrics report")
	}
	for _, tc := range []struct {
		label   string
		workers int
	}{
		{"batch w1 repeat", 1},
		{"batch w4", 4},
	} {
		tbl, js := render(tc.workers)
		if tbl != refTbl {
			t.Errorf("%s: table report differs from batch w1 reference:\n%s\nvs\n%s", tc.label, tbl, refTbl)
		}
		if js != refJS {
			t.Errorf("%s: json report differs from batch w1 reference", tc.label)
		}
	}
}

// TestQErrorFeedbackAllSuite runs an instrumented cycle over every suite
// workflow and checks the estimate feedback: every workflow produces a
// report, and every derivable SE target has q-error exactly 1 — the
// paper's soundness claim (exact statistics derive exact cardinalities)
// restated as feedback.
func TestQErrorFeedbackAllSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	for _, w := range suite.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CollectMetrics = true
			cy, err := Run(w.Graph, w.Catalog, w.Data(0.001), cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if cy.Metrics == nil || len(cy.Metrics.Nodes) == 0 {
				t.Fatal("no metrics snapshot")
			}
			fb := cy.Feedback
			if fb == nil {
				t.Fatal("no estimate feedback")
			}
			if len(cy.Selection.Observe) > 0 && fb.Total == 0 {
				t.Fatal("statistics selected but feedback has no targets")
			}
			// Exact statistics must derive exactly — except through the FK
			// shortcut, which prices referential integrity the subsampled
			// suite data can break (fact rows whose dimension row was
			// dropped). Surfacing that per-rule inaccuracy is the point of
			// the report, so FK is asserted only to be present in the rule
			// table, not to be exact.
			for _, se := range fb.SEs {
				if !se.Derivable || se.Rule == "FK" {
					continue
				}
				if se.QError != 1 {
					t.Errorf("SE %s: q-error %v (actual %d, estimate %d, rule %s); exact statistics must derive exactly",
						se.Label, se.QError, se.Actual, se.Estimate, se.Rule)
				}
			}
			for _, r := range fb.Rules {
				if r.Rule != "FK" && r.MaxQ != 1 {
					t.Errorf("rule %s: max q-error %v, want 1", r.Rule, r.MaxQ)
				}
			}
			// The report must render without error markers.
			if r := fb.Render(); r == "" {
				t.Error("empty feedback render")
			}
			// Tap overhead is tracked separately from operator time.
			wall, tap := cy.Metrics.Totals()
			if wall <= 0 {
				t.Errorf("operator wall time %d, want > 0", wall)
			}
			if tap < 0 {
				t.Errorf("tap overhead %d, want >= 0", tap)
			}
		})
	}
}
