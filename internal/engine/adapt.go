package engine

// Mid-run adaptive re-optimization hook. The block scheduler calls an
// AdaptCheck after every block it commits; when the check decides the
// evidence collected so far refutes the estimates that justified the
// not-yet-executed cone, the run stops at that boundary with a
// *ReplanSignal carrying the checkpoint. The caller (internal/core's
// adaptive driver) re-optimizes the remaining blocks, recompiles them and
// resumes from the checkpoint — completed blocks never re-run.
//
// Setting an AdaptCheck forces sequential block scheduling regardless of
// the worker count: the check sequence, and therefore every replan
// decision, must be deterministic, and with concurrent blocks the set of
// completed blocks at each boundary would depend on goroutine timing.

import (
	"github.com/essential-stats/etlopt/internal/physical"
)

// AdaptCheck inspects the run after `block` committed its boundary output.
// done maps every completed block index to its output; returning true stops
// the run at this boundary with a *ReplanSignal.
type AdaptCheck func(plan *physical.Plan, block int, done map[int]bool) bool

// ReplanSignal is the error a run returns when its AdaptCheck requested a
// mid-run replan. It is a clean stop, not a failure: the checkpoint holds
// every completed block's boundary output and the statistics observed so
// far, ready for Resume under a re-optimized plan.
type ReplanSignal struct {
	// Block is the boundary block after which the check fired.
	Block int
	// Checkpoint restores the completed blocks on Resume.
	Checkpoint *Checkpoint
}

func (r *ReplanSignal) Error() string {
	return "replan requested at block boundary"
}
