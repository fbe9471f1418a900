package css

import (
	"bufio"
	"fmt"
	"io"

	"github.com/essential-stats/etlopt/internal/stats"
)

// WriteDump writes a canonical text form of the result: the statistic
// universe in order, each statistic's observability marks and candidate
// sets (rule, join class, input labels), then S_C. Results with equal
// dumps present the same universe to selection and estimation, which makes
// the dump the unit of the planner's golden tests.
func (r *Result) WriteDump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	label := func(s stats.Stat) string {
		return fmt.Sprintf("b%d %s", s.Target.Block, s.Label(r.Analysis.Blocks[s.Target.Block]))
	}
	for i, s := range r.Stats {
		fmt.Fprintf(bw, "%d %s obs=%v rl=%v\n", i, label(s), r.Observable[i], r.NeedsRejectLink[i])
		for _, c := range r.CSS[i] {
			fmt.Fprintf(bw, "  %s join=%s", c.Rule, c.Join)
			for _, in := range c.Inputs {
				fmt.Fprintf(bw, " {%s}", label(in))
			}
			bw.WriteByte('\n')
		}
	}
	for _, s := range r.Required {
		fmt.Fprintf(bw, "req %s\n", label(s))
	}
	return bw.Flush()
}
