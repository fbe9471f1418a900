package css

import (
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// statIndex maps statistics to dense IDs without formatting a stats.Key:
// a statistic hashes on its kind, target and attribute names, and next
// chains the IDs whose hashes collide. IDs are assigned in add order.
type statIndex struct {
	head map[uint64]int
	next []int
}

func newStatIndex() statIndex { return statIndex{head: make(map[uint64]int)} }

// find returns the ID of the statistic in all equal to s, whose hash is h.
func (x *statIndex) find(all []stats.Stat, s stats.Stat, h uint64) (int, bool) {
	id, ok := x.head[h]
	if !ok {
		return 0, false
	}
	for ; id >= 0; id = x.next[id] {
		if sameStat(all[id], s) {
			return id, true
		}
	}
	return 0, false
}

// add registers hash h for the next ID.
func (x *statIndex) add(h uint64) {
	prev, ok := x.head[h]
	if !ok {
		prev = -1
	}
	x.head[h] = len(x.next)
	x.next = append(x.next, prev)
}

// statHash is FNV-1a over a statistic's kind, target fields and attribute
// names (each integer folded in as one word).
func statHash(s stats.Stat) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	t := s.Target
	for _, w := range [...]uint64{uint64(s.Kind), uint64(t.Block), uint64(t.Set),
		uint64(t.Depth), uint64(t.RejectInput), uint64(t.RejectEdge)} {
		h = (h ^ w) * prime
	}
	for _, a := range s.Attrs {
		for i := 0; i < len(a.Rel); i++ {
			h = (h ^ uint64(a.Rel[i])) * prime
		}
		h = (h ^ '.') * prime
		for i := 0; i < len(a.Col); i++ {
			h = (h ^ uint64(a.Col[i])) * prime
		}
		h = (h ^ ',') * prime
	}
	return h
}

// sameStat reports whether two statistics with canonically ordered
// attributes are the same statistic (equal Keys).
func sameStat(a, b stats.Stat) bool {
	if a.Kind != b.Kind || a.Target != b.Target || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	return true
}

// ID returns the statistic's ID, its index in Stats, or false when s is
// not in the universe. Equal Keys mean equal IDs: attributes out of
// canonical order (possible in a struct literal) are sorted first.
func (r *Result) ID(s stats.Stat) (int, bool) {
	for i := 1; i < len(s.Attrs); i++ {
		if s.Attrs[i].Less(s.Attrs[i-1]) {
			s.Attrs = workflow.SortAttrs(append([]workflow.Attr(nil), s.Attrs...))
			break
		}
	}
	return r.index.find(r.Stats, s, statHash(s))
}
