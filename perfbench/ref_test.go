package main

import (
	"testing"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

func smallChecker(t *testing.T) *checker {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{3, 9, 27}, Items: 2000, Skew: 0.6}, vecmath.NewRNG(1))
	p := modelParams()
	p.InitStd = 0.3
	m, err := model.New(tree, 50, p, vecmath.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < tree.NumNodes(); n++ {
		m.Bias.Row(n)[0] = 0.01 * float64(n%7)
	}
	hist := &dataset.Dataset{NumItems: tree.NumItems(), Users: make([]dataset.History, 50)}
	hist.Users[3].Baskets = []dataset.Basket{{5, 17}, {900}}
	return &checker{ref: newRefModel(m), history: hist}
}

// The reference answer to every request shape passes, and each corruption
// of it fails.
func TestCheckerCatchesCorruption(t *testing.T) {
	c := smallChecker(t)
	if err := c.selfTest(refRequest{user: 3, k: resultK}); err != nil {
		t.Fatal(err)
	}
	for _, rq := range []refRequest{
		{user: 3, k: resultK},
		{user: 3, k: resultK, offset: 5},
		{user: -1, k: resultK, recent: []dataset.Basket{{42}, {7}}},
		{user: 3, k: resultK, excludeCats: []int32{1}, excludeHist: true},
		{user: 3, k: resultK, maxPerCat: 2},
	} {
		good := referenceAnswer(c, rq)
		if err := c.check(rq, good); err != nil {
			t.Fatalf("%+v: reference answer fails: %v", rq, err)
		}
		for _, mode := range []string{"swap", "drop", "foreign"} {
			if c.check(rq, corruptItems(good, mode, 2000)) == nil {
				t.Errorf("%+v: %s answer passes", rq, mode)
			}
		}
	}
}

// referenceAnswer builds the answer the checker expects, as a server would
// render it.
func referenceAnswer(c *checker, rq refRequest) []api.Item {
	q := c.ref.query(rq.user, rq.recent)
	scores := c.ref.itemScores(q)
	eligible := c.eligibility(rq)
	tree := c.ref.tree
	var want []scored
	if rq.maxPerCat > 0 {
		used := map[int]int{}
		for _, s := range topN(scores, eligible, len(scores)) {
			cat := tree.AncestorAtDepth(tree.ItemNode(s.id), tree.Depth()-1)
			if len(want) < rq.k && used[cat] < rq.maxPerCat {
				used[cat]++
				want = append(want, s)
			}
		}
	} else {
		want = topN(scores, eligible, rq.offset+rq.k)[rq.offset:]
	}
	out := make([]api.Item, len(want))
	for i, s := range want {
		out[i] = api.Item{Item: s.id, Score: s.score}
		if rq.maxPerCat > 0 {
			out[i].Category = int32(tree.AncestorAtDepth(tree.ItemNode(s.id), tree.Depth()-1))
		}
	}
	return out
}

// quartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
