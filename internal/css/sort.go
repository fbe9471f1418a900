package css

import "github.com/essential-stats/etlopt/internal/stats"

// statKeyLess is the universe's canonical order: by block, kind, SE,
// depth, reject fields, then attribute string.
func statKeyLess(a, b stats.Key) bool {
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Set != b.Set {
		return a.Set < b.Set
	}
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	if a.RejectInput != b.RejectInput {
		return a.RejectInput < b.RejectInput
	}
	if a.RejectEdge != b.RejectEdge {
		return a.RejectEdge < b.RejectEdge
	}
	return a.Attrs < b.Attrs
}
