package suite

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/selector"
)

// plannerGolden pins, per suite workflow, the SHA-256 of plannerDump: the
// statistic universe and every candidate set in order, S_C, S_O and the
// reject-link marks, the exact and greedy selections, and the optimized
// plan costs. Regenerate a digest only for a deliberate change to the
// planner's output.
var plannerGolden = map[int]string{
	1:  "b1642b2ae05ddd3702e18c756679e9850889cf729a9506f97384c207fcdbfc3a",
	2:  "d0710e098267274dd39e741479bfb6fed0a72e250b260a2bf4686cb89495e4a8",
	3:  "e748c33461ffb1a818f5613d07ed2315e0474ebf89e63cfbe7ae5d26bbf6ef75",
	4:  "abe2285f5e62880c69d0ee7fc8fe93dd615febf4ad8753149140f5949aa7d6fd",
	5:  "9f6fc8ff568ea37727687b8170bbe0b8943f63c160c4437db99e6981a9f6998e",
	6:  "08af526fd9855c944295d3e9177f78df2ae591ce9dcee3fd98c89e762f1fcc46",
	7:  "102a156baefa5e075156688e12601f3f755e9e08b5a468c1f1de598fad9266c4",
	8:  "b2cfb8213d38fc7e577452211752bb1feaa8186d03edeecb88c3606184acdd4a",
	9:  "0b4903f03546c91ab7541675258da021c20eaf7a8075d3d495baf30fd3641225",
	10: "968168f37fe069966bcf253631a0e9c8c4f0fdb5807638085023963ec3834db6",
	11: "08f9beb6ea3b2e534b73916425504b69672431a11d81b4e821cdc9f9fa1f9729",
	12: "8ecc5a0747c7d8c2f658e610357420881eceb2211ff934911bc24b9eeaba30dd",
	13: "0a90e5a2a93bd0a9ad7e547c8344259ad652ebbbe042f362eca869b2c9347fae",
	14: "fc559a9f3b6f9a69babb85fb79d9dd28466b653eb8f6162bbdd64e38c08e73d7",
	15: "df497001bc9247d505386a2441bf1d7e1e8e9181d62ece86bec4f23faf4bca2d",
	16: "9e0082f2b7a08dd22e1435a4cf6f44cedf0b80a4c6377a2a5f2b0192b6032474",
	17: "edb639622f9330ede32e23900257f6668721f117b81d29e4e6f10466bf949eb2",
	18: "948bfd7278bb1ea23032e2128a46f8bb1f4efee9eefa77ab938e90aa6030d0cd",
	19: "44829f363ecd6f759f6851a94a049e545dadb1dfa4f4849044d5afcb6c59b66b",
	20: "7a2316d3eb0138ece7172f2a779e976aa91f6fc39367154840524934b617af13",
	21: "1f93bf627bd40a05fb0e3ee1ce94b1759d9fc72d088672f58298951b85a68ac6",
	22: "cae0431b50dc2a3e64a0607aaa38f6839721ed4c0dffbafd4a38349b5816f62e",
	23: "5439d7db0d26a72b0182bccc2ba51e627fce54f85f36142861cde117e6724442",
	24: "388f562ec5e778bbbf6a417a6f99225545d6882c634a0d1cd618c1bd22a03d9a",
	25: "d295526be11101c3a4248c447b7c6b24c215f71d64f8a84281c433399dfcca48",
	26: "f346bcb18e3f1ecc9c9ee095728aa75b189cf71d78f037fe3a56757b04cc008b",
	27: "7e29691cf9cd60a17bd2d5750f368e0cd7067b04cbfc7af30bf27d45cf825f81",
	28: "a986997b67ce3a0b29d5fa50ca65becc47ba90adf71e45b028500724d7fc7da2",
	29: "1eae89c0d7c8e912c8f0018208fdf4a1a50ed72663eec7bff237b6739375a875",
	30: "4f32ff558ef9d193ed27a03470ab1f844b204c32c29303becba756e8114f29f8",
}

// plannerDump renders everything the planner decides for one workflow in
// canonical text form.
func plannerDump(t *testing.T, w *Workflow) []byte {
	t.Helper()
	cy, err := core.Run(w.Graph, w.Catalog, w.Data(0.001), core.DefaultConfig())
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	var buf bytes.Buffer
	if err := cy.CSS.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	u, err := selector.NewUniverse(cy.CSS, costmodel.NewMemoryCoster(cy.CSS, cy.Analysis.Cat))
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	greedy, err := selector.Greedy(u)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	for _, sel := range []*selector.Selection{cy.Selection, greedy} {
		fmt.Fprintf(&buf, "select %s cost=%v mem=%d optimal=%v nodes=%d\n",
			sel.Method, sel.Cost, sel.Memory, sel.Optimal, sel.Nodes)
		for _, s := range sel.Observe {
			fmt.Fprintf(&buf, "  b%d %s\n", s.Target.Block, s.Label(cy.Analysis.Blocks[s.Target.Block]))
		}
	}
	blocks := make([]int, 0, len(cy.Plans.Plans))
	for b := range cy.Plans.Plans {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	for _, b := range blocks {
		p := cy.Plans.Plans[b]
		fmt.Fprintf(&buf, "plan b%d cost=%v initial=%v tree=%v\n", b, p.Cost, p.InitialCost, p.Tree)
	}
	fmt.Fprintf(&buf, "total cost=%v initial=%v\n", cy.Plans.TotalCost, cy.Plans.TotalInitialCost)
	return buf.Bytes()
}

// TestPlannerGolden holds the whole planner — CSS generation, universe
// build, exact and greedy selection, and the plans optimized from the
// observed statistics — to its recorded output on every suite workflow.
func TestPlannerGolden(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			dump := plannerDump(t, w)
			sum := sha256.Sum256(dump)
			got := hex.EncodeToString(sum[:])
			if want := plannerGolden[w.ID]; got != want {
				t.Errorf("planner output digest %s (%d bytes), golden %s", got, len(dump), want)
			}
		})
	}
}
