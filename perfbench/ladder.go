package main

// The replay ladder of traced serving runs. The HTTP handler calls the
// layers below it internally, so they are timed by replaying recorded
// requests in-process one layer down at a time: serve.Server.Recommend,
// then BuildQueryInto plus (*infer.Pool).Execute, then the ScoringIndex
// sweep at the request's precision.

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/vecmath"
)

// rung is one request replayed down the ladder (on one shard, for the
// router workload).
type rung struct {
	req       *benchReq
	recommend time.Duration // serve.Server.Recommend
	query     time.Duration // BuildQueryInto
	execute   time.Duration // (*infer.Pool).Execute
	sweep     time.Duration // dense ScoringIndex sweep at the plan's precision
	pruned    infer.PruneStats
}

// ladder replays requests against one server and its snapshot. lo, hi
// scope a shard (hi == 0: the whole catalog); shard requests ask for the
// whole pre-pagination page, as the router rewrites them.
type ladder struct {
	srv       *serve.Server
	c         *model.Composed
	purchased [][]int32
	lo, hi    int
	nproc     int
}

func purchasedLists(h *dataset.Dataset) [][]int32 {
	out := make([][]int32, h.NumUsers())
	for u := range h.Users {
		set := h.Users[u].ItemSet()
		for it := range set {
			out[u] = append(out[u], it)
		}
		slices.Sort(out[u])
	}
	return out
}

func precisionOf(r *benchReq) model.Precision {
	p, _ := model.ParsePrecision(r.sc.precision)
	return p.Resolve()
}

func (l *ladder) page(r *benchReq) (k, offset int) {
	if l.hi > 0 {
		return resultK + r.sc.offset, 0
	}
	return resultK, r.sc.offset
}

func (l *ladder) serveRequest(r *benchReq) serve.Request {
	k, offset := l.page(r)
	req := serve.Request{User: r.user, K: k, Offset: offset, MaxPerCategory: r.sc.maxPerCat,
		ExcludePurchased: r.sc.excludeHist, ExcludeCategories: r.sc.excludeCats, Pruned: r.sc.pruned}
	req.Precision, _ = model.ParsePrecision(r.sc.precision)
	for _, b := range r.recent {
		req.Recent = append(req.Recent, dataset.Basket(b))
	}
	if r.sc.keep > 0 {
		cc := infer.UniformCascade(l.c.Tree.Depth(), r.sc.keep)
		req.Cascade = &cc
	}
	return req
}

// plan builds the infer.Plan the request runs, the benchmark's own
// translation of the wire request.
func (l *ladder) plan(r *benchReq) infer.Plan {
	k, offset := l.page(r)
	pl := infer.Plan{K: k, Offset: offset, Precision: precisionOf(r), Pruned: r.sc.pruned}
	switch {
	case r.sc.keep > 0:
		cc := infer.UniformCascade(l.c.Tree.Depth(), r.sc.keep)
		pl.Strategy, pl.Cascade = infer.StrategyCascade, &cc
	case r.sc.maxPerCat > 0:
		pl.Strategy, pl.Diversify = infer.StrategyDiversified, &infer.Diversify{MaxPerCategory: r.sc.maxPerCat}
	}
	if len(r.sc.excludeCats) > 0 || r.sc.excludeHist || l.hi > 0 {
		f := &infer.Filter{DenyNodes: r.sc.excludeCats, RangeLo: l.lo, RangeHi: l.hi}
		if r.sc.excludeHist {
			if r.user >= 0 {
				f.ExcludeItems = append(f.ExcludeItems, l.purchased[r.user]...)
			}
			for _, b := range r.recent {
				f.ExcludeItems = append(f.ExcludeItems, b...)
			}
		}
		pl.Filter = f
	}
	return pl
}

func (l *ladder) replay(r *benchReq) (rung, error) {
	g := rung{req: r}
	req := l.serveRequest(r)
	start := time.Now()
	if _, err := l.srv.Recommend(req); err != nil {
		return g, err
	}
	g.recommend = time.Since(start)

	q := make([]float64, l.c.K())
	recent := req.Recent
	start = time.Now()
	if r.user < 0 {
		l.c.BuildSessionQueryInto(recent, q)
	} else {
		l.c.BuildQueryInto(r.user, recent, q)
	}
	g.query = time.Since(start)

	pl := l.plan(r)
	p0 := infer.PruneCounters()
	start = time.Now()
	if _, err := l.srv.Pool().Execute(context.Background(), l.c, q, pl); err != nil {
		return g, err
	}
	g.execute = time.Since(start)
	p1 := infer.PruneCounters()
	g.pruned = infer.PruneStats{ItemsPruned: p1.ItemsPruned - p0.ItemsPruned, Fallbacks: p1.Fallbacks - p0.Fallbacks}

	prec := pl.Precision
	if pl.Strategy == infer.StrategyDiversified && prec == model.PrecisionInt8 {
		prec = model.PrecisionF32 // diversified runs its int8 requests on the f32 tier
	}
	lo, hi := l.lo, l.hi
	if hi == 0 {
		hi = l.c.NumItems()
	}
	g.sweep = sweepReplay(l.c.Index, q, prec, lo, hi, l.nproc)
	return g, nil
}

// sweepReplay times a dense sweep of items [lo, hi) at one precision,
// shards claimed by nproc goroutines as the executor's pool does.
func sweepReplay(ix *model.ScoringIndex, q []float64, prec model.Precision, lo, hi, nproc int) time.Duration {
	const blockItems = 256
	start := time.Now()
	q32 := make([]float32, len(q))
	for i, v := range q {
		q32[i] = float32(v)
	}
	u := make([]int8, len(q))
	qscale, sumQ, _ := vecmath.QuantizeQuery(u, q)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d64 [blockItems]float64
			var d32 [blockItems]float32
			for {
				mu.Lock()
				s := next
				next++
				mu.Unlock()
				if s >= ix.NumShards() {
					return
				}
				slo, shi := ix.Shard(s)
				slo, shi = max(slo, lo), min(shi, hi)
				for a := slo; a < shi; a += blockItems {
					b := min(a+blockItems, shi)
					switch prec {
					case model.PrecisionF64:
						ix.ItemScoresRangeInto(q, a, b, d64[:])
					case model.PrecisionInt8:
						ix.ItemScoresRangeI8Into(u, qscale, sumQ, a, b, d64[:])
					default:
						ix.ItemScoresRange32Into(q32, a, b, d32[:])
					}
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// rungs are the replayed requests of one traced run.
type rungs []rung

// median is the median of pick over the rungs it selects, with their
// count.
func (rs rungs) median(pick func(rung) (float64, bool)) (float64, int) {
	var xs []float64
	for _, g := range rs {
		if v, ok := pick(g); ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	return median(xs), len(xs)
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// executeSelf is the executor's time outside the dense sweep it runs; a
// cascade runs no dense sweep, so its whole execute time is its own.
func executeSelf(g rung) float64 {
	if g.req.sc.keep > 0 {
		return us(g.execute)
	}
	return us(g.execute - g.sweep)
}
