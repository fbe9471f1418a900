package engine

import (
	"sync"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
)

// collector records compiled taps into a statistic store. All routing —
// which statistic observes which operator output, with which physical
// columns — was decided by the physical-plan compiler; the collector only
// folds record-sets into scalars and histograms. A nil *collector is valid
// and collects nothing (uninstrumented runs).
//
// Statistics whose observation fails permanently (an injected permanent tap
// fault, or a store/histogram rejection) are recorded in failed instead of
// aborting the run: the block completes without them and the caller sees
// them as Result.Degraded.
type collector struct {
	store *stats.Store

	mu     sync.Mutex
	failed map[stats.Key]FailedStat
}

func newCollector() *collector { return &collector{store: stats.NewStore()} }

// markFailed records a statistic as permanently unobservable this run.
// The first error per statistic wins (later duplicates are the same fault
// surfacing at another execution point).
func (c *collector) markFailed(s stats.Stat, err error) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed == nil {
		c.failed = make(map[stats.Key]FailedStat)
	}
	if _, ok := c.failed[s.Key()]; !ok {
		c.failed[s.Key()] = FailedStat{Stat: s, Err: err}
	}
}

// failedStats returns the degraded statistics in deterministic (canonical
// key) order.
func (c *collector) failedStats() []FailedStat {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failed) == 0 {
		return nil
	}
	out := make([]FailedStat, 0, len(c.failed))
	for _, f := range c.failed {
		out = append(out, f)
	}
	stats.SortByKey(out, func(f FailedStat) stats.Stat { return f.Stat })
	return out
}

// collect updates one tap's statistic from a whole record-set (the batch
// engine's table-at-a-time path). The store is write-once per statistic, so
// collection stays idempotent if a plan surfaces the same target twice.
func (c *collector) collect(tap physical.Tap, tbl *data.Table) {
	if c == nil || c.store.Has(tap.Stat) {
		return
	}
	switch tap.Stat.Kind {
	case stats.Card:
		if err := c.store.PutScalarOnce(tap.Stat, tbl.Card()); err != nil {
			c.markFailed(tap.Stat, err)
		}
	case stats.Distinct:
		seen := newKeySet()
		key := make([]int64, len(tap.Cols))
		for _, r := range tbl.Rows {
			for i, col := range tap.Cols {
				key[i] = r[col]
			}
			seen.add(key)
		}
		if err := c.store.PutScalarOnce(tap.Stat, int64(seen.len())); err != nil {
			c.markFailed(tap.Stat, err)
		}
	case stats.Hist:
		h := stats.NewHistogram(tap.Stat.Attrs...)
		vals := make([]int64, len(tap.Cols))
		for _, r := range tbl.Rows {
			for i, col := range tap.Cols {
				vals[i] = r[col]
			}
			if err := h.Inc(vals, 1); err != nil {
				c.markFailed(tap.Stat, err)
				return
			}
		}
		if err := c.store.PutHistOnce(tap.Stat, h); err != nil {
			c.markFailed(tap.Stat, err)
		}
	case stats.HLLDistinct:
		h := stats.NewHLL(stats.DefaultHLLP)
		vals := make([]int64, len(tap.Cols))
		for _, r := range tbl.Rows {
			for i, col := range tap.Cols {
				vals[i] = r[col]
			}
			h.Add(vals...)
		}
		if err := c.store.PutHLLOnce(tap.Stat, h); err != nil {
			c.markFailed(tap.Stat, err)
		}
	case stats.CMHist:
		cm := stats.NewCMH(tap.Spec, stats.DefaultCMDepth, stats.DefaultCMWidth)
		for _, r := range tbl.Rows {
			cm.Observe(r[tap.Cols[0]])
		}
		if err := c.store.PutCMOnce(tap.Stat, cm); err != nil {
			c.markFailed(tap.Stat, err)
		}
	}
}

// auxState is a pending union–division auxiliary join: the misses of one
// input joined with each registered partner input once the reject join has
// run (rule J4's counter).
type auxState struct {
	aux    []*physical.AuxJoin
	misses *data.Table
}

// run executes the auxiliary joins over the collected misses and feeds each
// statistic.
func (a *auxState) run(col *collector, inputs []*data.Table) {
	for _, aj := range a.aux {
		partner := inputs[aj.Partner]
		if partner == nil {
			continue
		}
		index := make(map[int64][]data.Row, len(partner.Rows))
		for _, r := range partner.Rows {
			index[r[aj.PartnerCol]] = append(index[r[aj.PartnerCol]], r)
		}
		joined := &data.Table{Rel: "aux", Attrs: aj.Attrs}
		for _, m := range a.misses.Rows {
			for _, p := range index[m[aj.MissCol]] {
				row := make(data.Row, 0, len(m)+len(p))
				row = append(append(row, m...), p...)
				joined.Rows = append(joined.Rows, row)
			}
		}
		col.collect(physical.Tap{Stat: aj.Stat, Cols: aj.Cols}, joined)
	}
}
