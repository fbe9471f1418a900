package batch

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func testTable(rows ...[]int64) *data.Table {
	t := &data.Table{Rel: "T", Attrs: []workflow.Attr{{Rel: "T", Col: "a"}, {Rel: "T", Col: "b"}}}
	for _, r := range rows {
		t.Rows = append(t.Rows, data.Row(r))
	}
	return t
}

func TestFromTableRoundTrip(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	tbl := testTable([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	b, err := FromTable(tbl, a)
	if err != nil {
		t.Fatalf("FromTable: %v", err)
	}
	if b.Rows() != 3 || len(b.Cols) != 2 {
		t.Fatalf("batch shape %dx%d, want 3x2", b.Rows(), len(b.Cols))
	}
	back := b.Table(tbl.Rel, tbl.Attrs)
	if len(back.Rows) != 3 {
		t.Fatalf("round trip rows = %d, want 3", len(back.Rows))
	}
	for i, r := range back.Rows {
		for c, v := range r {
			if v != tbl.Rows[i][c] {
				t.Fatalf("round trip [%d][%d] = %d, want %d", i, c, v, tbl.Rows[i][c])
			}
		}
	}
}

func TestSelectionSemantics(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	tbl := testTable([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{2, 40})
	b, _ := FromTable(tbl, a)

	// a == 2 selects physical rows 1 and 3.
	sel := SelectPred(b.Cols[0], nil, b.N, workflow.CmpEq, 2, a.Int32(b.Rows()))
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 3 {
		t.Fatalf("sel = %v, want [1 3]", sel)
	}
	filtered := &Batch{Cols: b.Cols, N: b.N, Sel: sel}
	if filtered.Rows() != 2 {
		t.Fatalf("filtered rows = %d, want 2", filtered.Rows())
	}
	// Chained predicate over the selection: b >= 40 keeps only row 3.
	sel2 := SelectPred(b.Cols[1], sel, b.N, workflow.CmpGe, 40, a.Int32(filtered.Rows()))
	if len(sel2) != 1 || sel2[0] != 3 {
		t.Fatalf("chained sel = %v, want [3]", sel2)
	}
	// Materializing honors the selection in order.
	out := (&Batch{Cols: b.Cols, N: b.N, Sel: sel}).Table("f", tbl.Attrs)
	if len(out.Rows) != 2 || out.Rows[0][1] != 20 || out.Rows[1][1] != 40 {
		t.Fatalf("materialized selection = %v", out.Rows)
	}
}

func TestSelectPredOps(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	col := []int64{1, 2, 3, 4, 5}
	cases := []struct {
		op   workflow.CmpOp
		c    int64
		want int
	}{
		{workflow.CmpEq, 3, 1}, {workflow.CmpNe, 3, 4},
		{workflow.CmpLt, 3, 2}, {workflow.CmpLe, 3, 3},
		{workflow.CmpGt, 3, 2}, {workflow.CmpGe, 3, 3},
	}
	for _, tc := range cases {
		got := SelectPred(col, nil, len(col), tc.op, tc.c, a.Int32(len(col)))
		if len(got) != tc.want {
			t.Errorf("op %v const %d: %d rows, want %d", tc.op, tc.c, len(got), tc.want)
		}
		p := workflow.Predicate{Op: tc.op, Const: tc.c}
		for _, ri := range got {
			if !p.Matches(col[ri]) {
				t.Errorf("op %v const %d selected non-matching value %d", tc.op, tc.c, col[ri])
			}
		}
	}
}

func TestJoinIndexChains(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	col := []int64{7, 5, 7, 9, 7}
	ix := NewJoinIndex(col, nil, len(col), a)
	// Chains surface build rows in ascending physical order.
	var got []int32
	for r := ix.First(7); r >= 0; r = ix.Next(r) {
		got = append(got, r)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("chain for 7 = %v, want [0 2 4]", got)
	}
	if r := ix.First(5); r != 1 || ix.Next(r) != -1 {
		t.Fatalf("chain for 5 starts at %d", r)
	}
	if ix.First(42) != -1 {
		t.Fatal("missing key should yield -1")
	}
	// A selection hides unselected build rows.
	ix2 := NewJoinIndex(col, []int32{0, 3}, len(col), a)
	if r := ix2.First(7); r != 0 || ix2.Next(r) != -1 {
		t.Fatalf("selected chain for 7 = %d, want only row 0", r)
	}
}

func TestArenaReuse(t *testing.T) {
	var a Arena
	v1 := a.Int64(100)
	if len(v1) != 100 || cap(v1) != 100 {
		t.Fatalf("len/cap = %d/%d, want 100/100", len(v1), cap(v1))
	}
	v2 := a.Int64(100)
	v2[0] = 42
	if &v1[0] == &v2[0] {
		t.Fatal("distinct allocations share backing")
	}
	a.Reset()
	v3 := a.Int64(100)
	if &v3[0] != &v1[0] {
		t.Fatal("reset should rewind to the first slab")
	}
	// Oversized requests get their own slab and don't disturb carving.
	big := a.Int64(slabElems * 2)
	if len(big) != slabElems*2 {
		t.Fatalf("oversized alloc len = %d", len(big))
	}
}

// BenchmarkFilterBatch pins the allocation profile of the columnar filter
// path: one selection vector from a warm arena, zero per-row allocations.
func BenchmarkFilterBatch(b *testing.B) {
	a := GetArena()
	defer PutArena(a)
	n := 1 << 14
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i % 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		sel := SelectPred(col, nil, n, workflow.CmpLt, 50, a.Int32(n))
		if len(sel) != n/2 {
			b.Fatalf("selected %d, want %d", len(sel), n/2)
		}
	}
}
