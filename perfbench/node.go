package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/model"
	"repro/internal/serve"
)

// runServeNode drives one full-catalog node (result cache and purchase
// history armed) with a closed loop of nproc clients while a reloader
// swaps the node between two trained model files every reloadEvery.
func runServeNode(o *options) (*result, error) {
	sm, err := prepareServing(o, 2)
	if err != nil {
		return nil, err
	}
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	client := newClient(2 * o.nproc)
	defer client.CloseIdleConnections()
	opts := []serve.Option{serve.WithWorkers(0), serve.WithCache(cacheEntries), serve.WithHistory(sm.w.history)}
	reload := func(srv *serve.Server) func() (*model.Snapshot, error) {
		// generation g serves model g mod 2; the next swap installs g+1
		return func() (*model.Snapshot, error) { return model.LoadFile(sm.paths[(srv.Epoch()+1)%2]) }
	}

	// set-up: model file on disk to the first correct answer, repeated
	// before and after the timed phase
	var firsts []reply
	var n *node
	release := func() {
		if n != nil {
			n.close()
			n = nil
		}
	}
	defer release()
	setup := func() (err error) {
		if n, err = startNode(sm.paths[0], t, "node", reload, opts...); err != nil {
			return err
		}
		s, err := firstAnswer(client, n.http.url)
		firsts = append(firsts, s)
		return err
	}
	setups, err := timeSetups(release, setup)
	if err != nil {
		return nil, err
	}

	gen := &requestGen{seed: o.seed ^ 0x5e4e, userCDF: activityCDF(sm.w.history)}
	rec := newRecorder(sm.ids)
	stop := make(chan struct{})
	var reloads []float64
	var reloadErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(reloadEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				start := time.Now()
				if reloadErr = n.h.Reload(); reloadErr != nil {
					return
				}
				reloads = append(reloads, time.Since(start).Seconds()*1e3)
			}
		}
	}()
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	ph := drive(client, n.http.url, gen, rec, o.nproc, dur, 0, nil)
	var tph phase
	var st0, st1 api.Stats
	if o.trace {
		if st0, err = nodeStats(client, n.http.url); err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		t.on.Store(true)
		tph = drive(client, n.http.url, gen, rec, o.nproc, dur, len(ph.shots), t)
		t.on.Store(false)
		st1, err = nodeStats(client, n.http.url)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if reloadErr != nil {
		return nil, fmt.Errorf("reload: %w", reloadErr)
	}
	more, err := timeSetups(release, setup)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)

	// checks, after the timed phases
	if err := sm.loadRefs(); err != nil {
		return nil, err
	}
	shots := append(append([]shot(nil), ph.shots...), tph.shots...)
	ac := checkShots(o, sm, gen, rec, shots)
	if err := checkFirsts(ac, sm, firsts); err != nil {
		return nil, err
	}
	auc, err := servedAUC(o, sm)
	if err != nil {
		ac.fail("auc: %v", err)
	}
	for _, e := range ac.errs {
		o.report("FAIL %s", e)
	}
	fig := ph.endToEnd()
	o.report("serve-node: %d requests in %.2fs (%d reloads), p99 %.3fms (not bounded), %.1f%% repeat an earlier request on the same snapshot, %d reference checks",
		len(ph.shots), ph.elapsed.Seconds(), len(reloads), fig.p99, 100*repeatShare(gen, ph.shots), ac.checked)
	res := &result{Correct: len(ac.errs) == 0, Attempted: int64(len(shots)), Failed: ac.failed}
	e2e := map[string]metric{
		"setup_s":             {median(setups), "s"},
		"peak_rss_mib":        {fig.peakRSS, "MiB"},
		"train_samples_per_s": {sm.tr.samplesPerSec(), "1/s"},
		"train_auc":           {auc, "auc"},
		"p50_ms":              {fig.p50, "ms"},
		"p90_ms":              {fig.p90, "ms"},
		"goodput_per_s":       {fig.goodput, "1/s"},
	}
	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}

	printOverhead(o, &ph, &tph)
	if err := t.writeSpans(spanFile(o)); err != nil {
		return nil, err
	}
	ix := t.index()
	var hop []float64
	handlerOf := map[uint64]span{}
	for _, c := range ix.byName["client"] {
		for _, h := range ix.children[c.ID] {
			hop = append(hop, float64(c.dur()-h.dur())/1e3)
			handlerOf[c.ID] = h
		}
	}

	// the ladder: replay traced requests seen once (so never a cache hit)
	// on a cacheless server over the first model file
	seen := map[string]int{}
	for i := range shots {
		seen[gen.at(shots[i].idx).key()]++
	}
	loads, sn, err := loadTimes(sm.paths[0])
	if err != nil {
		return nil, err
	}
	rsrv := serve.NewSnapshot(sn, serve.WithWorkers(0), serve.WithHistory(sm.w.history))
	defer rsrv.Close()
	l := &ladder{srv: rsrv, c: sn.Composed, purchased: purchasedLists(sm.w.history), nproc: o.nproc}
	var rs rungs
	var handlerSelf []float64
	for i := range tph.shots {
		s := &tph.shots[i]
		if len(rs) == replayN {
			break
		}
		r := gen.at(s.idx)
		if s.status != http.StatusOK || seen[r.key()] != 1 {
			continue
		}
		g, err := l.replay(r)
		if err != nil {
			return nil, err
		}
		rs = append(rs, g)
		if h, ok := handlerOf[s.span]; ok {
			handlerSelf = append(handlerSelf, float64(h.dur())/1e3-us(g.recommend))
		}
	}
	layers := commonLayers(sm, &tph, rs, loads)
	hits, lookups := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Hits+st1.Cache.Misses-st0.Cache.Hits-st0.Cache.Misses
	hitRatio, hitBase := ratio(hits, lookups)
	extra := []layerRow{
		{"net.hop_us", median(hop), "us", fmt.Sprintf("client minus node handler, median of %d", len(hop))},
		{"serve.handler_self_us", median(handlerSelf), "us", fmt.Sprintf("node handler minus replayed Recommend, median of %d uncached", len(handlerSelf))},
		recommendSelf(rs),
		{"serve.cache_hit_ratio", hitRatio, "hits/lookups", hitBase},
		{"serve.reload_ms", median(reloads), "ms", fmt.Sprintf("median of %d reloads", len(reloads))},
	}
	extra = append(extra, strategyLayers(rs)...)
	extra = append(extra, pruneLayers(rs)...)
	res.Metrics = printLayers(o, layers, extra)
	return res, nil
}

func nodeStats(client *http.Client, base string) (api.Stats, error) {
	var st api.Stats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	if st.Cache == nil {
		st.Cache = &api.StatsCache{}
	}
	return st, nil
}

// checkFirsts self-tests the checker, then checks each set-up's first
// answer (user 0, naive, on the first model file).
func checkFirsts(ac *answerCheck, sm *servedModels, firsts []reply) error {
	chk := &checker{ref: sm.refs[0], history: sm.w.history}
	if err := chk.selfTest(refRequest{user: 0, k: resultK}); err != nil {
		return err
	}
	for _, s := range firsts {
		var resp api.RecommendResponse
		if err := json.Unmarshal(s.body, &resp); err != nil || resp.Epoch != 0 {
			ac.fail("set-up answer: bad body or epoch: %v", err)
			continue
		}
		if err := chk.check(refRequest{user: 0, k: resultK}, resp.Items); err != nil {
			ac.fail("set-up answer: %v", err)
		}
	}
	return nil
}

// servedAUC evaluates the first served model file like the offline
// workload evaluates its trained model.
func servedAUC(o *options, sm *servedModels) (float64, error) {
	sn, err := model.LoadFile(sm.paths[0])
	if err != nil {
		return 0, err
	}
	defer sn.Close()
	return checkAUC(o, sm.w, sn.Composed, sm.refs[0])
}

// loadTimes times three model.LoadFile calls of path, in milliseconds,
// and returns the last snapshot, open.
func loadTimes(path string) ([]float64, *model.Snapshot, error) {
	var loads []float64
	var sn *model.Snapshot
	for i := 0; i < 3; i++ {
		if sn != nil {
			sn.Close()
		}
		start := time.Now()
		var err error
		if sn, err = model.LoadFile(path); err != nil {
			return nil, nil, err
		}
		loads = append(loads, time.Since(start).Seconds()*1e3)
	}
	return loads, sn, nil
}

func spanFile(o *options) string {
	return fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.jsonl", o.workload, o.seed)
}

// printOverhead prints the traced phase's figures next to the untraced
// phase's: the cost of recording spans on each closed-loop metric. The
// other end-to-end metrics are measured outside the traced phase.
func printOverhead(o *options, un, tr *phase) {
	u, t := un.endToEnd(), tr.endToEnd()
	for _, r := range []struct {
		name string
		u, t float64
	}{{"p50_ms", u.p50, t.p50}, {"p90_ms", u.p90, t.p90}, {"goodput_per_s", u.goodput, t.goodput}, {"peak_rss_mib", u.peakRSS, t.peakRSS}} {
		o.report("overhead %-14s untraced %12.4f traced %12.4f (%+.1f%%)", r.name, r.u, r.t, 100*(r.t-r.u)/r.u)
	}
	o.report("overhead setup_s, train_samples_per_s, train_auc: measured outside the traced phase (no tracing cost)")
}

// commonLayers are the per-layer metrics every workload reports.
func commonLayers(sm *servedModels, tph *phase, rs rungs, loads []float64) []layerRow {
	qb, nq := rs.median(func(g rung) (float64, bool) { return us(g.query), true })
	execF32, n32 := rs.median(func(g rung) (float64, bool) { return executeSelf(g), g.req.sc.name == "naive" })
	execI8, n8 := rs.median(func(g rung) (float64, bool) { return executeSelf(g), g.req.sc.name == "naive-int8" })
	sw32, _ := rs.median(func(g rung) (float64, bool) { return us(g.sweep), g.req.sc.name == "naive" })
	sw8, _ := rs.median(func(g rung) (float64, bool) { return us(g.sweep), g.req.sc.name == "naive-int8" })
	nreq := len(tph.shots)
	return []layerRow{
		{"synth.generate_s", sm.w.genTime.Seconds(), "s", "1 generation (preparation)"},
		{"train.epoch_s", median(secs(sm.tr.epochs)), "s", fmt.Sprintf("median of %d epochs (preparation)", len(sm.tr.epochs))},
		{"train.samples", float64(sm.tr.samples), "count", fmt.Sprintf("%d epochs", len(sm.tr.epochs))},
		{"train.final_loglik", sm.tr.loglik[len(sm.tr.loglik)-1], "ln_sigma", "last epoch"},
		{"model.loadfile_ms", median(loads), "ms", "median of 3 loads"},
		{"model.query_build_us", qb, "us", fmt.Sprintf("median of %d replayed", nq)},
		{"infer.execute_self_us.f32", execF32, "us", fmt.Sprintf("Execute minus dense f32 sweep, median of %d naive", n32)},
		{"infer.execute_self_us.int8", execI8, "us", fmt.Sprintf("Execute minus dense int8 sweep, median of %d naive-int8", n8)},
		{"vecmath.sweep_us.f32", sw32, "us", fmt.Sprintf("ItemScoresRange32Into, median of %d", n32)},
		{"vecmath.sweep_us.int8", sw8, "us", fmt.Sprintf("ItemScoresRangeI8Into, median of %d", n8)},
		{"infer.escalations", float64(tph.esc), "count", fmt.Sprintf("over the traced phase's %d requests", nreq)},
		{"runtime.alloc_kib_per_req", float64(tph.mem1.totalAlloc-tph.mem0.totalAlloc) / 1024 / float64(nreq), "KiB", fmt.Sprintf("whole process per request, %d requests", nreq)},
		{"runtime.gc_pause_ms", float64(tph.mem1.pauseNs-tph.mem0.pauseNs) / 1e6, "ms", fmt.Sprintf("%d GCs over the traced phase", tph.mem1.numGC-tph.mem0.numGC)},
	}
}

func recommendSelf(rs rungs) layerRow {
	v, n := rs.median(func(g rung) (float64, bool) { return us(g.recommend - g.query - g.execute), true })
	return layerRow{"serve.recommend_self_us", v, "us", fmt.Sprintf("Recommend minus query build and Execute, median of %d", n)}
}

// strategyLayers are the executor's self time per request shape and the
// f64 sweep.
func strategyLayers(rs rungs) []layerRow {
	var rows []layerRow
	for _, s := range []struct{ name, scenario string }{
		{"naive", "naive"}, {"cascade", "cascade"}, {"diversified", "diversified"},
		{"pruned", "naive-pruned"}, {"filtered", "filtered"}, {"session", "session"},
	} {
		v, n := rs.median(func(g rung) (float64, bool) { return executeSelf(g), g.req.sc.name == s.scenario })
		rows = append(rows, layerRow{"infer.execute_self_us." + s.name, v, "us", fmt.Sprintf("median of %d %s", n, s.scenario)})
	}
	v, n := rs.median(func(g rung) (float64, bool) { return us(g.sweep), g.req.sc.name == "naive-f64" })
	return append(rows, layerRow{"vecmath.sweep_us.f64", v, "us", fmt.Sprintf("ItemScoresRangeInto, median of %d naive-f64", n)})
}

func pruneLayers(rs rungs) []layerRow {
	var plans, fallbacks, items int64
	for _, g := range rs {
		if g.req.sc.pruned {
			plans++
			fallbacks += g.pruned.Fallbacks
			items += g.pruned.ItemsPruned
		}
	}
	fr, fb := ratio(fallbacks, plans)
	ir, ib := ratio(items, plans)
	return []layerRow{
		{"infer.prune_fallback_ratio", fr, "fallbacks/plans", fb + " pruned plans fell back"},
		{"infer.items_pruned_per_req", ir, "count", ib + " items pruned per pruned plan"},
	}
}
