package selector

import (
	"fmt"
	"sync"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/suite"
)

// plannerAllocBound caps the allocations of one wf21 plan: CSS generation,
// universe build and exact selection. It is the measured count (13350 with
// Go 1.24) plus 10%, so formatting a stats.Key per statistic lookup again
// (tens of thousands of lookups), or boxing every heap item, fails
// `go test ./...` rather than only a benchmark.
const plannerAllocBound = 14700

// TestPlannerAllocBound holds the planner on dense statistic IDs to its
// allocation budget on the widest suite workflow.
func TestPlannerAllocBound(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	an, err := suite.MustGet(21).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var planErr error
	allocs := testing.AllocsPerRun(1, func() {
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			planErr = err
			return
		}
		u, err := NewUniverse(res, costmodel.NewMemoryCoster(res, an.Cat))
		if err != nil {
			planErr = err
			return
		}
		_, planErr = Exact(u, ExactOptions{})
	})
	if planErr != nil {
		t.Fatal(planErr)
	}
	if allocs > plannerAllocBound {
		t.Fatalf("wf21 plan made %.0f allocations, bound %d", allocs, plannerAllocBound)
	}
}

// TestUniverseConcurrentSolves runs the solvers on one shared universe from
// several goroutines at once, the way the serving daemon may: each
// propagation pass takes its own scratch from the universe's pool, so
// every concurrent solve must match the sequential one.
func TestUniverseConcurrentSolves(t *testing.T) {
	w := suite.MustGet(16)
	an, err := w.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUniverse(res, costmodel.NewMemoryCoster(res, an.Cat))
	if err != nil {
		t.Fatal(err)
	}
	solve := func() (string, error) {
		var out string
		for _, m := range []Method{MethodExact, MethodGreedy} {
			sel, err := SelectUniverse(u, Options{Method: m})
			if err != nil {
				return "", err
			}
			out += fmt.Sprintf("%s %v %d %d %v;", sel.Method, sel.Cost, sel.Memory, sel.Nodes, sel.Observe)
		}
		return out, nil
	}
	want, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = solve()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != want {
			t.Errorf("goroutine %d solved differently:\n%s\nwant\n%s", g, got[g], want)
		}
	}
}
