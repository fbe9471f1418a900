package engine

import (
	"context"
	"errors"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// resumeFixture holds the shared multi-block workflow under test.
type resumeFixture struct {
	an      *workflow.Analysis
	db      DB
	res     *css.Result
	observe []stats.Stat
}

func newResumeFixture(t *testing.T) *resumeFixture {
	t.Helper()
	db, cat := tinyDB()
	an, err := workflow.Analyze(multiBlockGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Blocks) < 3 {
		t.Fatalf("want a multi-block analysis, got %d blocks", len(an.Blocks))
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return &resumeFixture{an: an, db: db, res: res, observe: res.ObservableStats()}
}

// engine builds an engine over the fixture running the reference row
// interpreter or the columnar one, optionally faulted.
func (f *resumeFixture) engine(rowMode bool, flt *faults.Injector) *Engine {
	e := New(f.an, f.db, nil)
	e.RowMode = rowMode
	e.Faults = flt
	return e
}

// run executes the instrumented initial plan, with or without the
// initial-plan observability filter.
func (f *resumeFixture) run(e *Engine, anyPoint bool) (*Result, error) {
	if anyPoint {
		return e.RunPlansObserving(nil, f.res, f.observe)
	}
	return e.RunPlans(nil, f.res, f.observe)
}

// resume continues from a checkpoint with the matching observation mode.
func (f *resumeFixture) resume(e *Engine, cp *Checkpoint, anyPoint bool) (*Result, error) {
	if anyPoint {
		return e.ResumeObserving(context.Background(), cp, nil, f.res, f.observe)
	}
	return e.Resume(context.Background(), cp, nil, f.res, f.observe)
}

// failingCheckpoint finds (deterministically — the injector is a pure
// function of its seed) a permanent fault pattern that fails the run after
// at least one block completed, and returns the *BlockFailure checkpoint.
func (f *resumeFixture) failingCheckpoint(t *testing.T, rowMode, anyPoint bool) *Checkpoint {
	t.Helper()
	for seed := uint64(1); seed <= 200; seed++ {
		inj := faults.New(seed, 0.5, 0, faults.SourceRead|faults.Operator)
		_, err := f.run(f.engine(rowMode, inj), anyPoint)
		var bf *BlockFailure
		if errors.As(err, &bf) && len(bf.Checkpoint.BlockOut) > 0 {
			return bf.Checkpoint
		}
	}
	t.Fatal("no seed in 1..200 produced a mid-run permanent failure")
	return nil
}

// TestResumeEmptyPendingCone resumes a checkpoint that already contains
// every block: nothing re-executes, and the result — sinks routed from the
// checkpointed outputs, work metric, observed statistics — must equal the
// original run on both interpreters and in both observation modes.
func TestResumeEmptyPendingCone(t *testing.T) {
	f := newResumeFixture(t)
	for _, rowMode := range []bool{false, true} {
		for _, anyPoint := range []bool{false, true} {
			name := interpreterLabel(rowMode) + observeLabel(anyPoint)
			clean, err := f.run(f.engine(rowMode, nil), anyPoint)
			if err != nil {
				t.Fatalf("%s: clean run: %v", name, err)
			}
			cp := &Checkpoint{
				BlockOut:     clean.BlockOut,
				Materialized: clean.Materialized,
				Rows:         clean.Rows,
				Observed:     clean.Observed,
			}
			resumed, err := f.resume(f.engine(rowMode, nil), cp, anyPoint)
			if err != nil {
				t.Fatalf("%s: resume of a complete checkpoint: %v", name, err)
			}
			equalResults(t, name+"/complete-checkpoint", clean, resumed)
			if resumed.Retries != 0 {
				t.Errorf("%s: resume of a complete checkpoint retried %d times", name, resumed.Retries)
			}
		}
	}
}

// TestResumeSameCheckpointTwice resumes one failure checkpoint twice on
// each interpreter: both resumes must complete and match the clean run —
// the write-once statistics store and the block-skip logic make resumption
// idempotent.
func TestResumeSameCheckpointTwice(t *testing.T) {
	f := newResumeFixture(t)
	for _, rowMode := range []bool{false, true} {
		for _, anyPoint := range []bool{false, true} {
			name := interpreterLabel(rowMode) + observeLabel(anyPoint)
			clean, err := f.run(f.engine(rowMode, nil), anyPoint)
			if err != nil {
				t.Fatalf("%s: clean run: %v", name, err)
			}
			cp := f.failingCheckpoint(t, rowMode, anyPoint)
			first, err := f.resume(f.engine(rowMode, nil), cp, anyPoint)
			if err != nil {
				t.Fatalf("%s: first resume: %v", name, err)
			}
			equalResults(t, name+"/first-resume", clean, first)
			second, err := f.resume(f.engine(rowMode, nil), cp, anyPoint)
			if err != nil {
				t.Fatalf("%s: second resume of the same checkpoint: %v", name, err)
			}
			equalResults(t, name+"/second-resume", clean, second)
		}
	}
}

// TestResumeCrossEngine pins the Checkpoint's interpreter independence: a
// checkpoint produced by the reference row interpreter resumes on the
// columnar one (and vice versa) with results identical to a clean run.
func TestResumeCrossEngine(t *testing.T) {
	f := newResumeFixture(t)
	for _, fromRow := range []bool{false, true} {
		name := "from-" + interpreterLabel(fromRow)
		clean, err := f.run(f.engine(!fromRow, nil), false)
		if err != nil {
			t.Fatalf("%s: clean run: %v", name, err)
		}
		cp := f.failingCheckpoint(t, fromRow, false)
		got, err := f.resume(f.engine(!fromRow, nil), cp, false)
		if err != nil {
			t.Fatalf("%s: cross-interpreter resume: %v", name, err)
		}
		equalResults(t, name, clean, got)
	}
}

func interpreterLabel(rowMode bool) string {
	if rowMode {
		return "row"
	}
	return "vec"
}

func observeLabel(anyPoint bool) string {
	if anyPoint {
		return "/observing"
	}
	return "/filtered"
}
