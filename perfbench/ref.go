package main

// The reference scorer: float64 scores computed from a trained model's
// raw parameters (user rows, per-node item/next-item offsets and bias
// offsets), composed here by walking the taxonomy, never through
// model.Composed or model.ScoringIndex. Every answer the benchmark times
// is checked against it after the timed phase.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/taxonomy"
)

// scoreTol is the absolute-plus-relative score tolerance between the
// program's scores and the reference: both are float64 sums of the same
// terms in a different order, so they agree to ~1e-15 relative; anything
// past 1e-9 is a wrong score. Near-ties within it may swap places.
func scoreTol(s float64) float64 { return 1e-9 * (1 + math.Abs(s)) }

type refModel struct {
	tree    *taxonomy.Tree
	k       int
	user    [][]float64
	next    [][]float64 // raw next-item offsets per node
	eff     [][]float64 // item offsets summed from node to root
	effBias []float64   // bias offsets summed from node to root
	weights []float64   // Markov decay α_n, n = 1..MarkovOrder
}

// newRefModel copies m's raw parameters and composes node factors by
// walking each node's path to the root.
func newRefModel(m *model.TF) *refModel {
	tree := m.Tree
	k := m.P.K
	nn := tree.NumNodes()
	r := &refModel{tree: tree, k: k, user: make([][]float64, m.NumUsers()),
		next: make([][]float64, nn), eff: make([][]float64, nn), effBias: make([]float64, nn)}
	for u := range r.user {
		r.user[u] = append([]float64(nil), m.User.Row(u)...)
	}
	for n := 0; n < nn; n++ {
		r.next[n] = append([]float64(nil), m.Next.Row(n)...)
		e := make([]float64, k)
		var b float64
		for cur := n; ; cur = tree.Parent(cur) {
			row := m.Node.Row(cur)
			for j := range e {
				e[j] += row[j]
			}
			if m.P.UseBias {
				b += m.Bias.Row(cur)[0]
			}
			if cur == tree.Root() {
				break
			}
		}
		r.eff[n], r.effBias[n] = e, b
	}
	for n := 1; n <= m.P.MarkovOrder; n++ {
		r.weights = append(r.weights, m.P.Alpha*math.Exp(-float64(n)/float64(m.P.MarkovOrder)))
	}
	return r
}

// query builds the Eq. 3 query: the user row (none for user -1) plus the
// decayed next-item term over the recent baskets (most recent first).
func (r *refModel) query(user int, recent []dataset.Basket) []float64 {
	q := make([]float64, r.k)
	if user >= 0 {
		copy(q, r.user[user])
	}
	for n := 0; n < len(recent) && n < len(r.weights); n++ {
		b := recent[n]
		if len(b) == 0 {
			continue
		}
		coef := r.weights[n] / float64(len(b))
		for _, item := range b {
			for cur := r.tree.ItemNode(int(item)); ; cur = r.tree.Parent(cur) {
				for j, v := range r.next[cur] {
					q[j] += coef * v
				}
				if cur == r.tree.Root() {
					break
				}
			}
		}
	}
	return q
}

func (r *refModel) nodeScore(q []float64, node int) float64 {
	var s float64
	for j, v := range r.eff[node] {
		s += q[j] * v
	}
	return s + r.effBias[node]
}

func (r *refModel) itemScores(q []float64) []float64 {
	out := make([]float64, r.tree.NumItems())
	for i := range out {
		out[i] = r.nodeScore(q, r.tree.ItemNode(i))
	}
	return out
}

type scored struct {
	id    int
	score float64
}

// better is the program's ranking order: higher score, then lower id.
func better(a, b scored) bool {
	return a.score > b.score || (a.score == b.score && a.id < b.id)
}

// topN ranks the n best eligible entries of scores.
func topN(scores []float64, eligible func(int) bool, n int) []scored {
	if n <= 0 {
		return nil
	}
	if n <= 64 {
		// bounded sorted insertion: few candidates beat the n-th best
		top := make([]scored, 0, n+1)
		for i, s := range scores {
			c := scored{i, s}
			if (len(top) == n && !better(c, top[n-1])) || (eligible != nil && !eligible(i)) {
				continue
			}
			at := sort.Search(len(top), func(j int) bool { return better(c, top[j]) })
			top = append(top, scored{})
			copy(top[at+1:], top[at:])
			top[at] = c
			if len(top) > n {
				top = top[:n]
			}
		}
		return top
	}
	all := make([]scored, 0, len(scores))
	for i, s := range scores {
		if eligible == nil || eligible(i) {
			all = append(all, scored{i, s})
		}
	}
	sort.Slice(all, func(i, j int) bool { return better(all[i], all[j]) })
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// checkOrder requires distinct items in the program's ranking order.
func checkOrder(got []api.Item) error {
	seen := make(map[int]bool, len(got))
	for i, it := range got {
		if seen[it.Item] {
			return fmt.Errorf("item %d appears twice", it.Item)
		}
		seen[it.Item] = true
		if i > 0 && !better(scored{got[i-1].Item, got[i-1].Score}, scored{it.Item, it.Score}) {
			return fmt.Errorf("position %d (item %d, %v) out of order after item %d (%v)", i, it.Item, it.Score, got[i-1].Item, got[i-1].Score)
		}
	}
	return nil
}

// checkRanked requires got to be the reference ranks want: same length,
// each item eligible and scored as the reference scores it, and position
// by position the same score as the reference item at that rank (so a
// swapped, dropped or foreign item fails unless it is a near-tie).
func checkRanked(got []api.Item, want []scored, scores []float64, eligible func(int) bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, reference has %d", len(got), len(want))
	}
	if err := checkOrder(got); err != nil {
		return err
	}
	for i, it := range got {
		if it.Item < 0 || it.Item >= len(scores) {
			return fmt.Errorf("item %d outside the catalog", it.Item)
		}
		if eligible != nil && !eligible(it.Item) {
			return fmt.Errorf("item %d is excluded by the request", it.Item)
		}
		if ref := scores[it.Item]; math.Abs(it.Score-ref) > scoreTol(ref) {
			return fmt.Errorf("item %d scored %v, reference %v", it.Item, it.Score, ref)
		}
		if w := want[i].score; math.Abs(it.Score-w) > scoreTol(w) {
			return fmt.Errorf("rank %d holds item %d (%v), reference rank holds item %d (%v)", i, it.Item, it.Score, want[i].id, w)
		}
	}
	return nil
}

// refRequest is one answered request in the benchmark's own terms.
type refRequest struct {
	user        int // -1: session
	recent      []dataset.Basket
	k, offset   int
	cascadeKeep float64 // > 0: cascade
	maxPerCat   int     // > 0: diversified at the lowest category level
	excludeCats []int32
	excludeHist bool
}

// checker checks answers against one reference model and the purchase
// history the server was armed with.
type checker struct {
	ref     *refModel
	history *dataset.Dataset
}

// eligibility returns the request's filter as a predicate (nil = all).
func (c *checker) eligibility(rq refRequest) func(int) bool {
	if len(rq.excludeCats) == 0 && !rq.excludeHist {
		return nil
	}
	tree := c.ref.tree
	excluded := make(map[int]bool)
	if rq.excludeHist {
		if rq.user >= 0 {
			for _, b := range c.history.Users[rq.user].Baskets {
				for _, it := range b {
					excluded[int(it)] = true
				}
			}
		}
		for _, b := range rq.recent {
			for _, it := range b {
				excluded[int(it)] = true
			}
		}
	}
	deny := make(map[int]bool)
	for _, n := range rq.excludeCats {
		deny[int(n)] = true
	}
	return func(item int) bool {
		if excluded[item] {
			return false
		}
		for cur := tree.ItemNode(item); ; cur = tree.Parent(cur) {
			if deny[cur] {
				return false
			}
			if cur == tree.Root() {
				return true
			}
		}
	}
}

// check verifies one answer to rq.
func (c *checker) check(rq refRequest, got []api.Item) error {
	q := c.ref.query(rq.user, rq.recent)
	scores := c.ref.itemScores(q)
	eligible := c.eligibility(rq)
	switch {
	case rq.cascadeKeep > 0:
		return c.checkCascade(q, scores, rq, got)
	case rq.maxPerCat > 0:
		return c.checkDiversified(scores, eligible, rq, got)
	}
	want := topN(scores, eligible, rq.offset+rq.k)
	if rq.offset >= len(want) {
		want = want[:0]
	} else {
		want = want[rq.offset:]
	}
	return checkRanked(got, want, scores, eligible)
}

// checkDiversified replays the greedy per-category quota over the
// reference ranking and requires got to be its page; each item must also
// carry its quota category.
func (c *checker) checkDiversified(scores []float64, eligible func(int) bool, rq refRequest, got []api.Item) error {
	tree := c.ref.tree
	depth := tree.Depth() - 1
	catOf := func(item int) int { return tree.AncestorAtDepth(tree.ItemNode(item), depth) }
	ranked := topN(scores, eligible, len(scores))
	used := make(map[int]int)
	var want []scored
	for _, s := range ranked {
		if len(want) == rq.offset+rq.k {
			break
		}
		if cat := catOf(s.id); used[cat] < rq.maxPerCat {
			used[cat]++
			want = append(want, s)
		}
	}
	if rq.offset >= len(want) {
		want = want[:0]
	} else {
		want = want[rq.offset:]
	}
	if err := checkRanked(got, want, scores, eligible); err != nil {
		return err
	}
	for _, it := range got {
		if int(it.Category) != catOf(it.Item) {
			return fmt.Errorf("item %d annotated with category %d, its quota category is %d", it.Item, it.Category, catOf(it.Item))
		}
	}
	return nil
}

// checkCascade recomputes the §5.1 beam from reference node scores.
// Every answered item must descend from accepted nodes and carry its
// reference score, in ranking order. When no level has a near-tie across
// its cut the answer must also be the beam's exact top-k; after such a
// near-tie every node below is accepted.
func (c *checker) checkCascade(q, scores []float64, rq refRequest, got []api.Item) error {
	tree := c.ref.tree
	accepted := make(map[int]bool)
	strict := make(map[int]bool)
	frontier := append([]int32(nil), tree.Level(1)...)
	exact := true
	for d := 1; d < tree.Depth(); d++ {
		keep := int(math.Ceil(rq.cascadeKeep * float64(len(tree.Level(d)))))
		if keep < 1 {
			keep = 1
		}
		level := make([]scored, len(frontier))
		for i, n := range frontier {
			level[i] = scored{int(n), c.ref.nodeScore(q, int(n))}
		}
		sort.Slice(level, func(i, j int) bool { return better(level[i], level[j]) })
		if keep > len(level) {
			keep = len(level)
		}
		cut := level[keep-1].score
		if keep < len(level) && level[keep].score >= cut-scoreTol(cut) {
			// a near-tie straddles the cut: either side may survive, and
			// below here the beam is no longer determined, so accept all
			exact = false
		}
		frontier = frontier[:0]
		for i, s := range level {
			if i < keep {
				strict[s.id] = true
			}
			if i < keep || !exact {
				accepted[s.id] = true
				frontier = append(frontier, tree.Children(s.id)...)
			}
		}
	}
	if len(got) == 0 || len(got) > rq.k {
		return fmt.Errorf("cascade answered %d items for k=%d", len(got), rq.k)
	}
	if err := checkOrder(got); err != nil {
		return err
	}
	for _, it := range got {
		if it.Item < 0 || it.Item >= len(scores) {
			return fmt.Errorf("item %d outside the catalog", it.Item)
		}
		for cur := tree.Parent(tree.ItemNode(it.Item)); cur != tree.Root(); cur = tree.Parent(cur) {
			if !accepted[cur] {
				return fmt.Errorf("item %d lies under node %d, which the beam drops", it.Item, cur)
			}
		}
		if ref := scores[it.Item]; math.Abs(it.Score-ref) > scoreTol(ref) {
			return fmt.Errorf("item %d scored %v, reference %v", it.Item, it.Score, ref)
		}
	}
	if !exact {
		return nil
	}
	inBeam := func(item int) bool {
		for cur := tree.Parent(tree.ItemNode(item)); cur != tree.Root(); cur = tree.Parent(cur) {
			if !strict[cur] {
				return false
			}
		}
		return true
	}
	want := topN(scores, inBeam, rq.k)
	return checkRanked(got, want, scores, inBeam)
}

// selfTest shows the checker rejects corrupted answers: it builds the
// reference answer to rq, requires it to pass, then requires a swapped,
// a dropped and a foreign item each to fail.
func (c *checker) selfTest(rq refRequest) error {
	q := c.ref.query(rq.user, rq.recent)
	scores := c.ref.itemScores(q)
	ranked := topN(scores, nil, rq.k+1000)
	good := make([]api.Item, rq.k)
	for i := range good {
		good[i] = api.Item{Item: ranked[i].id, Score: ranked[i].score}
	}
	if err := c.check(rq, good); err != nil {
		return fmt.Errorf("checker self-test: the reference answer fails: %w", err)
	}
	corrupt := map[string][]api.Item{}
	swapped := append([]api.Item(nil), good...)
	swapped[0], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[0]
	corrupt["swapped"] = swapped
	dropped := append(append([]api.Item(nil), good[:2]...), good[3:]...)
	corrupt["dropped"] = append(dropped, api.Item{Item: ranked[rq.k].id, Score: ranked[rq.k].score})
	foreign := append([]api.Item(nil), good...)
	foreign[len(foreign)-1] = api.Item{Item: ranked[rq.k+999].id, Score: good[len(good)-1].Score}
	corrupt["foreign"] = foreign
	for name, items := range corrupt {
		if c.check(rq, items) == nil {
			return fmt.Errorf("checker self-test: a %s item passes the check", name)
		}
	}
	return nil
}

// corruptItems applies a deliberate fault to an answer: "swap" exchanges
// its first and last items, "drop" removes its second item, "foreign"
// replaces its last item by one it does not hold.
func corruptItems(items []api.Item, mode string, numItems int) []api.Item {
	out := append([]api.Item(nil), items...)
	if len(out) < 3 {
		return out
	}
	switch mode {
	case "swap":
		out[0], out[len(out)-1] = out[len(out)-1], out[0]
	case "drop":
		out = append(out[:1], out[2:]...)
	case "foreign":
		held := make(map[int]bool)
		for _, it := range out {
			held[it.Item] = true
		}
		id := out[len(out)-1].Item
		for held[id] {
			id = (id + 7919) % numItems
		}
		out[len(out)-1].Item = id
	}
	return out
}
