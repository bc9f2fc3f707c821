package engine

import (
	"strings"
	"testing"

	"monetlite/internal/agg"
	"monetlite/internal/core"
)

// TestTrafficMatchesDescription: a stage's EXPLAIN ANALYZE bytes are
// its memory-access description counted on the actual rows, the same
// description the planner priced on its estimates. On two plans whose
// estimates are exact — an unfiltered scan under a Project, and a scan
// under hash grouping on a dictionary key (the dictionary gives the
// group count) over several morsels that each hold every group — every
// stage and phase must report exactly the description's bytes at the
// estimated rows.
func TestTrafficMatchesDescription(t *testing.T) {
	shrinkMorsels(t, 1<<14)
	items := itemTable(t, 1<<16)
	node := func(t *testing.T, p *Profile, op string) *OpStats {
		t.Helper()
		var hit *OpStats
		var walk func(n *OpStats)
		walk = func(n *OpStats) {
			if hit == nil && strings.HasPrefix(n.Op, op) {
				hit = n
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(p.Root)
		if hit == nil {
			t.Fatalf("profile has no %s node:\n%s", op, p)
		}
		return hit
	}
	check := func(t *testing.T, n *OpStats, d []access) {
		t.Helper()
		read, written := bytesOf(d...)
		if read == 0 && written == 0 {
			t.Fatalf("%s: description moves no bytes", n.Op)
		}
		if n.BytesRead != read || n.BytesWritten != written {
			t.Errorf("%s: ANALYZE counted %d/%d bytes read/written, the description at the estimates %d/%d",
				n.Op, n.BytesRead, n.BytesWritten, read, written)
		}
	}
	run := func(t *testing.T, root Node, force string) (*pipelineOp, *Profile) {
		t.Helper()
		plan, err := Plan(root, Config{Opt: core.Options{Parallelism: 2}, ForceGroup: force})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.RunProfiled(nil)
		if err != nil {
			t.Fatal(err)
		}
		return plan.root.(*pipelineOp), res.Profile
	}

	t.Run("scan-project", func(t *testing.T) {
		p, prof := run(t, &ProjectNode{Cols: []string{"order", "price", "shipmode"}, Input: &ScanNode{Table: items}}, "")
		if scan := node(t, prof, "Scan"); scan.InRows != int64(items.N) || scan.BytesRead+scan.BytesWritten != 0 {
			t.Errorf("Scan: %d rows in, %d bytes moved; want %d rows, 0 bytes", scan.InRows,
				scan.BytesRead+scan.BytesWritten, items.N)
		}
		var d []access
		for _, pc := range p.proj.cols {
			g := gatherAccess(p.srcRows, pc.col, pc.col.Width(), p.model)
			d = append(d, g[:]...)
		}
		check(t, node(t, prof, "Project"), d)
	})

	t.Run("scan-hash-agg", func(t *testing.T) {
		p, prof := run(t, &GroupAggNode{Key: "shipmode", Measure: BinExpr{Op: '*',
			L: ColExpr{Name: "price"}, R: ColExpr{Name: "qty"}}, Input: &ScanNode{Table: items}}, "hash")
		g := p.gagg
		if g.strat != aggHash || g.estGroups != 7 {
			t.Fatalf("planned %v grouping for %v groups, want hash for 7", g.strat, g.estGroups)
		}
		feed := g.feedAccess(p.srcRows, p.model)
		d := feed[:]
		for _, oc := range g.operands {
			ga := gatherAccess(p.srcRows, oc.col, 8, p.model)
			d = append(d, ga[:]...)
		}
		check(t, node(t, prof, "AggFeed[hash]"), d)
		nm := float64(core.MorselsOf(items.N))
		merge := mergeAccess(nm*g.estGroups, g.estGroups, p.model)
		check(t, node(t, prof, "merge"), merge[:])
		passes, digit := agg.SortPasses(keyRangeBits(g.keyCol, g.estGroups))
		order := orderAccess(g.estGroups, passes, digit, p.model)
		check(t, node(t, prof, "result[order]"), order[:])
	})

	t.Run("scan-array-agg", func(t *testing.T) {
		p, prof := run(t, &GroupAggNode{Key: "shipmode", Measure: BinExpr{Op: '*',
			L: ColExpr{Name: "price"}, R: ColExpr{Name: "qty"}}, Input: &ScanNode{Table: items}}, "")
		g := p.gagg
		if g.strat != aggArray || g.estGroups != 7 || g.slots != 7 {
			t.Fatalf("planned %v grouping for %v groups over %d slots, want array for 7 over 7", g.strat, g.estGroups, g.slots)
		}
		feed := g.feedAccess(p.srcRows, p.model)
		d := feed[:]
		for _, oc := range g.operands {
			ga := gatherAccess(p.srcRows, oc.col, 8, p.model)
			d = append(d, ga[:]...)
		}
		check(t, node(t, prof, "AggFeed[array]"), d)
		nm := float64(core.MorselsOf(items.N))
		merge := arrayMergeAccess(nm*g.estGroups, g.estGroups, float64(g.slots), p.model)
		check(t, node(t, prof, "merge"), merge[:])
		order := orderAccess(g.estGroups, 0, 0, p.model) // the groups come out ascending
		check(t, node(t, prof, "result[order]"), order[:])
	})
}
