package engine

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Regression test for the group-by allocation bug: the row interpreter
// used to allocate a fresh key row for every input row, so grouping N rows
// cost at least N allocations regardless of how few distinct keys existed.
// The fixed path reuses one scratch key and clones only on first-seen
// insert, so steady-state allocation scales with the distinct count, not
// the row count.

const (
	allocRows     = 8192
	allocDistinct = 32
)

func groupInput() *data.Table {
	tbl := &data.Table{
		Rel:   "G",
		Attrs: []workflow.Attr{{Rel: "G", Col: "a"}, {Rel: "G", Col: "b"}, {Rel: "G", Col: "c"}},
	}
	for i := 0; i < allocRows; i++ {
		tbl.Rows = append(tbl.Rows, data.Row{int64(i % allocDistinct), int64(i % 4), int64(i)})
	}
	return tbl
}

// TestGroupByAllocsBatch pins the batch interpreter's group-by path. The
// bound is generous (map growth, output slice growth, key-byte copies) but
// far below one allocation per input row — the bug this guards against.
func TestGroupByAllocsBatch(t *testing.T) {
	in := groupInput()
	input := &physical.Node{ID: 0}
	n := &physical.Node{
		ID: 1, Kind: physical.OpGroupBy, Label: "groupby",
		Cols:  []int{0, 1},
		Attrs: in.Attrs[:2],
		Input: input,
	}
	tables := []*data.Table{in, nil}
	sink := newBlockSink(nil)
	allocs := testing.AllocsPerRun(5, func() {
		tbl, err := evalNode(nil, n, tables, nil, sink, nil)
		if err != nil {
			t.Fatalf("evalNode: %v", err)
		}
		if len(tbl.Rows) != allocDistinct {
			t.Fatalf("groups = %d, want %d", len(tbl.Rows), allocDistinct)
		}
	})
	if allocs > allocRows/8 {
		t.Fatalf("batch group-by allocates %.0f per run over %d rows; scaling with rows, not groups", allocs, allocRows)
	}
}
