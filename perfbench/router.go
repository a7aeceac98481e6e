package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/vecmath"
)

// topology is the router workload's in-process serving tree: three shard
// nodes tiling the catalog behind router.New + router.NewHTTP.
type topology struct {
	shards []*node
	ranges [][2]int
	http   *httpServer
}

func (tp *topology) close() {
	if tp.http != nil {
		tp.http.close()
	}
	for _, n := range tp.shards {
		n.close()
	}
}

func startTopology(sm *servedModels, t *tracer, routerClient *http.Client) (*topology, error) {
	tp := &topology{}
	var urls []string
	for s := 0; s < numShards; s++ {
		lo, hi := s*numItems/numShards, (s+1)*numItems/numShards
		n, err := startNode(sm.paths[0], t, fmt.Sprintf("shard%d", s), nil,
			serve.WithWorkers(0), serve.WithItemRange(lo, hi), serve.WithHistory(sm.w.history))
		if err != nil {
			tp.close()
			return nil, err
		}
		tp.shards = append(tp.shards, n)
		tp.ranges = append(tp.ranges, [2]int{lo, hi})
		urls = append(urls, n.http.url)
	}
	r, err := router.New(router.Config{Shards: urls, Client: routerClient})
	if err != nil {
		tp.close()
		return nil, err
	}
	if tp.http, err = listen(t.wrap("router", router.NewHTTP(r).Handler())); err != nil {
		tp.close()
		return nil, err
	}
	return tp, nil
}

// runRouterFanout drives a router over three shard nodes with the same
// closed loop and mix as serve-node, but with distinct users, no result
// cache anywhere and no reloads: the scatter, the three loopback hops and
// the merge do the work.
func runRouterFanout(o *options) (*result, error) {
	sm, err := prepareServing(o, 1)
	if err != nil {
		return nil, err
	}
	var t *tracer
	var routerClient *http.Client
	if o.trace {
		t = newTracer()
		base := http.DefaultTransport.(*http.Transport).Clone()
		base.MaxIdleConnsPerHost = 64 // the router's own default client
		routerClient = &http.Client{Transport: &transport{t: t, base: base}}
	}
	client := newClient(2 * o.nproc)
	defer client.CloseIdleConnections()

	// set-up, repeated before and after the timed phase
	var firsts []reply
	var tp *topology
	release := func() {
		if tp != nil {
			tp.close()
			tp = nil
		}
	}
	defer release()
	setup := func() (err error) {
		if tp, err = startTopology(sm, t, routerClient); err != nil {
			return err
		}
		s, err := firstAnswer(client, tp.http.url)
		firsts = append(firsts, s)
		return err
	}
	setups, err := timeSetups(release, setup)
	if err != nil {
		return nil, err
	}

	gen := &requestGen{seed: o.seed ^ 0x70a7, perm: vecmath.NewRNG(o.seed ^ 0x9e7).Perm(numUsers)}
	rec := newRecorder(sm.ids)
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	ph := drive(client, tp.http.url, gen, rec, o.nproc, dur, 0, nil)
	var tph phase
	if o.trace {
		t.on.Store(true)
		tph = drive(client, tp.http.url, gen, rec, o.nproc, dur, len(ph.shots), t)
		t.on.Store(false)
	}
	more, err := timeSetups(release, setup)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)

	// checks, after the timed phases: the reference, then byte identity
	// with a single full-catalog node on the kept answers
	if err := sm.loadRefs(); err != nil {
		return nil, err
	}
	shots := append(append([]shot(nil), ph.shots...), tph.shots...)
	ac := checkShots(o, sm, gen, rec, shots)
	if err := checkFirsts(ac, sm, firsts); err != nil {
		return nil, err
	}
	control, err := startNode(sm.paths[0], nil, "control", nil, serve.WithWorkers(0), serve.WithHistory(sm.w.history))
	if err != nil {
		return nil, err
	}
	identical := 0
	for _, k := range rec.kept {
		c := post(client, control.http.url, k.req, nil)
		if c.err != nil || !bytes.Equal(c.body, k.body) {
			ac.fail("%s user %d: router answer differs from a single node's: %.200s vs %.200s (%v)", k.req.sc.name, k.req.user, k.body, c.body, c.err)
			continue
		}
		identical++
	}
	control.close()
	auc, err := servedAUC(o, sm)
	if err != nil {
		ac.fail("auc: %v", err)
	}
	for _, e := range ac.errs {
		o.report("FAIL %s", e)
	}
	fig := ph.endToEnd()
	o.report("router-fanout: %d requests in %.2fs, p99 %.3fms (not bounded), %d reference checks, %d byte-identical to a single node", len(ph.shots), ph.elapsed.Seconds(), fig.p99, ac.checked, identical)
	res := &result{Correct: len(ac.errs) == 0, Attempted: int64(len(shots)), Failed: ac.failed}
	if !o.trace {
		res.Metrics = map[string]metric{
			"setup_s":             {median(setups), "s"},
			"peak_rss_mib":        {fig.peakRSS, "MiB"},
			"train_samples_per_s": {sm.tr.samplesPerSec(), "1/s"},
			"train_auc":           {auc, "auc"},
			"p50_ms":              {fig.p50, "ms"},
			"p90_ms":              {fig.p90, "ms"},
			"goodput_per_s":       {fig.goodput, "1/s"},
		}
		return res, nil
	}

	printOverhead(o, &ph, &tph)
	if err := t.writeSpans(spanFile(o)); err != nil {
		return nil, err
	}
	ix := t.index()
	var hop, self, calls, straggle, shardHop []float64
	var routerSpans, shardCalls int64
	handlerOf := map[string]span{} // "client span id|shard name" -> shard handler span
	for _, c := range ix.byName["client"] {
		for _, r := range ix.children[c.ID] {
			routerSpans++
			hop = append(hop, float64(c.dur()-r.dur())/1e3)
			kids := ix.children[r.ID]
			self = append(self, float64(selfNs(r, kids))/1e3)
			var ds []float64
			for _, sc := range kids {
				shardCalls++
				d := float64(sc.dur()) / 1e3
				ds = append(ds, d)
				calls = append(calls, d)
				for _, h := range ix.children[sc.ID] {
					shardHop = append(shardHop, d-float64(h.dur())/1e3)
					handlerOf[fmt.Sprintf("%d|%s", c.ID, h.Name)] = h
				}
			}
			if len(ds) > 0 {
				straggle = append(straggle, quantile(ds, 1)-median(ds))
			}
		}
	}

	// the ladder: replay traced requests on each shard's server, as the
	// router rewrites them for the shards
	purchased := purchasedLists(sm.w.history)
	var rs rungs
	var handlerSelf []float64
	for i := range tph.shots {
		s := &tph.shots[i]
		if len(rs) >= replayN {
			break
		}
		if s.status != http.StatusOK {
			continue
		}
		r := gen.at(s.idx)
		for sh, n := range tp.shards {
			l := &ladder{srv: n.srv, c: n.srv.Snapshot(), purchased: purchased, lo: tp.ranges[sh][0], hi: tp.ranges[sh][1], nproc: o.nproc}
			g, err := l.replay(r)
			if err != nil {
				return nil, err
			}
			rs = append(rs, g)
			if h, ok := handlerOf[fmt.Sprintf("%d|shard%d", s.span, sh)]; ok {
				handlerSelf = append(handlerSelf, float64(h.dur())/1e3-us(g.recommend))
			}
		}
	}
	loads, sn, err := loadTimes(sm.paths[0])
	if err != nil {
		return nil, err
	}
	sn.Close()
	layers := commonLayers(sm, &tph, rs, loads)
	cpr, cprBase := ratio(shardCalls, routerSpans)
	extra := []layerRow{
		{"net.hop_us", median(hop), "us", fmt.Sprintf("client minus router handler, median of %d", len(hop))},
		{"net.shard_hop_us", median(shardHop), "us", fmt.Sprintf("shard call minus shard handler, median of %d", len(shardHop))},
		{"router.self_us", median(self), "us", fmt.Sprintf("router handler minus its shard calls, median of %d", len(self))},
		{"router.shard_call_us", median(calls), "us", fmt.Sprintf("median of %d shard calls", len(calls))},
		{"router.straggle_us", median(straggle), "us", fmt.Sprintf("slowest minus median shard call, median of %d requests", len(straggle))},
		{"router.shard_calls_per_req", cpr, "count", cprBase + " shard calls per router request"},
		{"serve.handler_self_us", median(handlerSelf), "us", fmt.Sprintf("shard handler minus replayed Recommend, median of %d shard calls", len(handlerSelf))},
		recommendSelf(rs),
	}
	extra = append(extra, strategyLayers(rs)...)
	res.Metrics = printLayers(o, layers, extra)
	return res, nil
}
