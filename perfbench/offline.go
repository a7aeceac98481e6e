package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// Offline workload make-up (recorded in README.md).
const (
	offlineEpochs   = 12  // train.Train epochs at nproc workers
	batchBlock      = 64  // users per ExecuteBatch call
	aucUsers        = 400 // held-out users the AUC is evaluated on
	batchCheckUsers = 100 // users whose batch top-k is checked against the reference
	blockLimit      = 250 * time.Millisecond
)

// block is one ExecuteBatch call: a run of consecutive users at one
// precision.
type block struct {
	lo, hi int
	prec   model.Precision
}

func runOffline(o *options) (*result, error) {
	// set-up: producing the log and its split, repeated before and after
	// the timed phase
	var w *world
	release := func() { w = nil }
	setup := func() (err error) {
		w, err = genWorld(o.seed)
		return err
	}
	setups, err := timeSetups(release, setup)
	if err != nil {
		return nil, err
	}

	memStart := readMem()
	measureStart := time.Now()
	m, err := newModel(w)
	if err != nil {
		return nil, err
	}
	tr, err := trainModel(m, w, offlineEpochs, o.nproc, o.seed^0x7a1)
	if err != nil {
		return nil, err
	}
	ref := newRefModel(m)
	path, err := publish(m, o.workDir, "offline.tfrec")
	if err != nil {
		return nil, err
	}
	loads, sn, err := loadTimes(path)
	if err != nil {
		return nil, err
	}
	defer sn.Close()
	c := sn.Composed

	// queries for every user: the user row plus the Markov term over the
	// last observed basket
	buildStart := time.Now()
	qs := make([][]float64, numUsers)
	for u := range qs {
		qs[u] = make([]float64, factorK)
		c.BuildQueryInto(u, lastBaskets(w.history, u, markov), qs[u])
	}
	queryBuild := time.Since(buildStart)

	var blocks []block
	for lo, i := 0, 0; lo < numUsers; lo, i = lo+batchBlock, i+1 {
		prec := model.PrecisionF32
		if i%2 == 1 {
			prec = model.PrecisionInt8
		}
		blocks = append(blocks, block{lo, min(lo+batchBlock, numUsers), prec})
	}
	pool := infer.NewPool(o.nproc)
	defer pool.Close()
	escStart := infer.F32Escalations() + infer.I8Escalations()
	memBatch := readMem()

	// batch passes: whole passes over every user, one more while it is
	// expected to end within the run's time
	first := make([][]vecmath.Scored, numUsers)
	blockTimes := map[model.Precision][]float64{}
	perBlock := make([]time.Duration, len(blocks)) // last pass, for the trace ladder
	var batchTime time.Duration
	var ranked, attempted, failed int64
	var mismatches []string
	type done struct {
		end, d  time.Duration // completion since the batch phase began; call time
		prec    model.Precision
		inLimit int64 // users ranked within the block limit
	}
	var calls []done
	batchStart := time.Now()
	for pass := 0; pass == 0 || time.Since(measureStart)+time.Since(batchStart)/time.Duration(pass) <= time.Duration(o.seconds*float64(time.Second)); pass++ {
		for bi, b := range blocks {
			pls := make([]infer.Plan, b.hi-b.lo)
			for i := range pls {
				pls[i] = infer.Plan{K: resultK, Precision: b.prec}
			}
			attempted += int64(b.hi - b.lo)
			start := time.Now()
			res, err := pool.ExecuteBatch(context.Background(), c, qs[b.lo:b.hi], pls)
			d := time.Since(start)
			if err != nil {
				failed += int64(b.hi - b.lo)
				mismatches = append(mismatches, fmt.Sprintf("block %d: %v", bi, err))
				continue
			}
			batchTime += d
			perBlock[bi] = d
			blockTimes[b.prec] = append(blockTimes[b.prec], d.Seconds()*1e3)
			ranked += int64(b.hi - b.lo)
			call := done{end: time.Since(batchStart), d: d, prec: b.prec}
			if d <= blockLimit {
				call.inLimit = int64(b.hi - b.lo)
			}
			calls = append(calls, call)
			for i, r := range res {
				u := b.lo + i
				if pass == 0 {
					first[u] = append([]vecmath.Scored(nil), r.Items...)
				} else if !slices.Equal(first[u], r.Items) && len(mismatches) < 5 {
					mismatches = append(mismatches, fmt.Sprintf("user %d: pass %d ranking differs from pass 0", u, pass))
				}
			}
		}
	}
	batchDur := time.Since(batchStart)
	memEnd := readMem()
	escalations := infer.F32Escalations() + infer.I8Escalations() - escStart
	rss := peakRSSMiB()
	more, err := timeSetups(release, setup)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)

	// medians over one-second windows of the batch phase: goodput, users
	// ranked within the limit per second of ExecuteBatch time, and the
	// block latency p50 and p90, each the mean of the f32 and int8
	// blocks' quantiles in the window. A burst of load from outside the
	// process slows the blocks of a few windows, which a quantile of all
	// blocks would take into its tail.
	n := max(1, int(batchDur/time.Second))
	win := batchDur / time.Duration(n)
	users, busy := make([]float64, n), make([]float64, n)
	lat := make([]map[model.Precision][]float64, n)
	for _, c := range calls {
		w := min(int(c.end/win), n-1)
		users[w] += float64(c.inLimit)
		busy[w] += c.d.Seconds()
		if lat[w] == nil {
			lat[w] = map[model.Precision][]float64{}
		}
		lat[w][c.prec] = append(lat[w][c.prec], c.d.Seconds()*1e3)
	}
	var goodputs, p50s, p90s []float64
	for w := range users {
		if busy[w] > 0 {
			goodputs = append(goodputs, users[w]/busy[w])
		}
		f, i := lat[w][model.PrecisionF32], lat[w][model.PrecisionInt8]
		if len(f) > 0 && len(i) > 0 {
			p50s = append(p50s, (median(f)+median(i))/2)
			p90s = append(p90s, (quantile(f, 0.9)+quantile(i, 0.9))/2)
		}
	}

	// checks, after the timed phase
	chk := &checker{ref: ref, history: w.history}
	correct := len(mismatches) == 0
	for _, msg := range mismatches {
		o.report("FAIL batch: %s", msg)
	}
	if err := chk.selfTest(refRequest{user: 0, k: resultK}); err != nil {
		return nil, err
	}
	rng := vecmath.NewRNG(o.seed ^ 0xc4ec)
	for i, u := range rng.Perm(numUsers)[:batchCheckUsers] {
		got := toItems(first[u])
		if i == 0 && o.corrupt != "" {
			got = corruptItems(got, o.corrupt, numItems)
		}
		rq := refRequest{user: u, recent: lastBaskets(w.history, u, markov), k: resultK}
		if err := chk.check(rq, got); err != nil {
			o.report("FAIL batch user %d: %v", u, err)
			correct = false
		}
	}
	auc, err := checkAUC(o, w, c, ref)
	if err != nil {
		o.report("FAIL auc: %v", err)
		correct = false
	}

	medF32, medI8 := median(blockTimes[model.PrecisionF32]), median(blockTimes[model.PrecisionInt8])
	o.report("offline: %d epochs, %d samples in %.2fs; %d users ranked in %.2fs of ExecuteBatch (%d blocks of %d); median block f32 %.3fms int8 %.3fms",
		len(tr.epochs), tr.samples, tr.wall.Seconds(), ranked, batchTime.Seconds(), len(blockTimes[model.PrecisionF32])+len(blockTimes[model.PrecisionInt8]), batchBlock, medF32, medI8)
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !o.trace {
		res.Metrics = map[string]metric{
			"setup_s":             {median(setups), "s"},
			"peak_rss_mib":        {rss, "MiB"},
			"train_samples_per_s": {tr.samplesPerSec(), "1/s"},
			"train_auc":           {auc, "auc"},
			"p50_ms":              {median(p50s), "ms"},
			"p90_ms":              {median(p90s), "ms"},
			"goodput_per_s":       {median(goodputs), "1/s"},
		}
		return res, nil
	}

	// traced run: the per-layer ladder one layer below ExecuteBatch
	o.report("overhead all end-to-end metrics: the timed phase runs untraced; the ladder replays after it (no tracing cost)")
	sweeps := replayMultiSweeps(c, qs, blocks, o.nproc)
	selfUs := map[model.Precision][]float64{}
	sweepUs := map[model.Precision][]float64{}
	for bi, b := range blocks {
		n := float64(b.hi - b.lo)
		selfUs[b.prec] = append(selfUs[b.prec], (perBlock[bi]-sweeps[bi]).Seconds()*1e6/n)
		sweepUs[b.prec] = append(sweepUs[b.prec], sweeps[bi].Seconds()*1e6/n)
	}
	gcMs := float64(memEnd.pauseNs-memStart.pauseNs) / 1e6
	layers := []layerRow{
		{"synth.generate_s", w.genTime.Seconds(), "s", "1 generation"},
		{"train.epoch_s", median(secs(tr.epochs)), "s", fmt.Sprintf("median of %d epochs", len(tr.epochs))},
		{"train.samples", float64(tr.samples), "count", fmt.Sprintf("%d epochs", len(tr.epochs))},
		{"train.final_loglik", tr.loglik[len(tr.loglik)-1], "ln_sigma", "last epoch"},
		{"model.loadfile_ms", median(loads), "ms", "median of 3 loads"},
		{"model.query_build_us", queryBuild.Seconds() * 1e6 / numUsers, "us", fmt.Sprintf("%d queries", numUsers)},
		{"infer.execute_self_us.f32", median(selfUs[model.PrecisionF32]), "us", fmt.Sprintf("per user, median of %d f32 blocks", len(selfUs[model.PrecisionF32]))},
		{"infer.execute_self_us.int8", median(selfUs[model.PrecisionInt8]), "us", fmt.Sprintf("per user, median of %d int8 blocks", len(selfUs[model.PrecisionInt8]))},
		{"vecmath.sweep_us.f32", median(sweepUs[model.PrecisionF32]), "us", "per user: ItemScoresRange32MultiInto share"},
		{"vecmath.sweep_us.int8", median(sweepUs[model.PrecisionInt8]), "us", "per user: ItemScoresRangeI8MultiInto share"},
		{"infer.escalations", float64(escalations), "count", fmt.Sprintf("over %d ranked users", ranked)},
		{"runtime.alloc_kib_per_req", float64(memEnd.totalAlloc-memBatch.totalAlloc) / 1024 / float64(ranked), "KiB", fmt.Sprintf("per ranked user, %d users", ranked)},
		{"runtime.gc_pause_ms", gcMs, "ms", fmt.Sprintf("%d GCs over train+batch", memEnd.numGC-memStart.numGC)},
	}
	extra := []layerRow{
		{"infer.execute_batch_ms.f32", medF32, "ms/block", fmt.Sprintf("%d blocks", len(blockTimes[model.PrecisionF32]))},
		{"infer.execute_batch_ms.int8", medI8, "ms/block", fmt.Sprintf("%d blocks", len(blockTimes[model.PrecisionInt8]))},
		{"vecmath.multi_sweep_ms.f32", median(msOfBlocks(sweeps, blocks, model.PrecisionF32)), "ms/block", "replayed"},
		{"vecmath.multi_sweep_ms.int8", median(msOfBlocks(sweeps, blocks, model.PrecisionInt8)), "ms/block", "replayed"},
	}
	res.Metrics = printLayers(o, layers, extra)
	return res, nil
}

func msOfBlocks(ds []time.Duration, blocks []block, prec model.Precision) []float64 {
	var out []float64
	for i, b := range blocks {
		if b.prec == prec {
			out = append(out, ds[i].Seconds()*1e3)
		}
	}
	return out
}

// replayMultiSweeps times, per block, the scoring-index multi-query sweep
// ExecuteBatch runs: every shard of the item slab scored against the
// block's queries in groups of 8, shards claimed by nproc goroutines.
func replayMultiSweeps(c *model.Composed, qs [][]float64, blocks []block, nproc int) []time.Duration {
	ix := c.Index
	const group, blockItems = 8, 256
	out := make([]time.Duration, len(blocks))
	for bi, b := range blocks {
		n := b.hi - b.lo
		qs32 := make([][]float32, n)
		us := make([][]int8, n)
		qscales, sumQs := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			q := qs[b.lo+i]
			qs32[i] = make([]float32, len(q))
			for j, v := range q {
				qs32[i][j] = float32(v)
			}
			us[i] = make([]int8, len(q))
			qscales[i], sumQs[i], _ = vecmath.QuantizeQuery(us[i], q)
		}
		var next sync.Mutex
		shard := 0
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < nproc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d32 := make([][]float32, group)
				d64 := make([][]float64, group)
				for j := range d32 {
					d32[j] = make([]float32, blockItems)
					d64[j] = make([]float64, blockItems)
				}
				for {
					next.Lock()
					s := shard
					shard++
					next.Unlock()
					if s >= ix.NumShards() {
						return
					}
					lo, hi := ix.Shard(s)
					for g := 0; g < n; g += group {
						ge := min(g+group, n)
						for at := lo; at < hi; at += blockItems {
							end := min(at+blockItems, hi)
							if b.prec == model.PrecisionInt8 {
								dst := d64[:ge-g]
								for j := range dst {
									dst[j] = d64[j][:end-at]
								}
								ix.ItemScoresRangeI8MultiInto(us[g:ge], qscales[g:ge], sumQs[g:ge], at, end, dst)
							} else {
								dst := d32[:ge-g]
								for j := range dst {
									dst[j] = d32[j][:end-at]
								}
								ix.ItemScoresRange32MultiInto(qs32[g:ge], at, end, dst)
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		out[bi] = time.Since(start)
	}
	return out
}

func toItems(ss []vecmath.Scored) []api.Item {
	out := make([]api.Item, len(ss))
	for i, s := range ss {
		out[i] = api.Item{Item: s.ID, Score: s.Score}
	}
	return out
}

// checkAUC evaluates the paper's item AUC with eval.Evaluate on a fixed
// sample of held-out users, recomputes it from reference scores, and
// requires the two to agree within 1e-9 and to beat a popularity ranking
// counted from the training log.
func checkAUC(o *options, w *world, c *model.Composed, ref *refModel) (float64, error) {
	test := &dataset.Dataset{NumItems: numItems, Users: make([]dataset.History, numUsers)}
	var users []int
	rng := vecmath.NewRNG(o.seed ^ 0xa0c)
	for _, u := range rng.Perm(numUsers) {
		if len(users) == aucUsers {
			break
		}
		if len(w.split.Test.Users[u].Baskets) > 0 {
			users = append(users, u)
			test.Users[u] = w.split.Test.Users[u]
		}
	}
	res := eval.Evaluate(c, w.history, test, eval.Config{T: 1, CategoryDepth: 1, Workers: o.nproc})

	pop := make([]float64, numItems)
	for _, h := range w.split.Train.Users {
		for _, b := range h.Baskets {
			for _, it := range b {
				pop[it]++
			}
		}
	}
	var refSum, popSum float64
	for _, u := range users {
		q := ref.query(u, lastBaskets(w.history, u, markov))
		pos := test.Users[u].Baskets[0]
		refSum += pairAUC(ref.itemScores(q), pos)
		popSum += pairAUC(pop, pos)
	}
	refAUC, popAUC := refSum/float64(len(users)), popSum/float64(len(users))
	o.report("auc: eval.Evaluate %.6f over %d users, reference %.6f, popularity %.6f", res.AUC, res.Users, refAUC, popAUC)
	if res.Users != len(users) {
		return res.AUC, fmt.Errorf("eval.Evaluate scored %d users, sample has %d", res.Users, len(users))
	}
	if math.Abs(res.AUC-refAUC) > 1e-9 {
		return res.AUC, fmt.Errorf("eval.Evaluate AUC %.12f differs from reference %.12f", res.AUC, refAUC)
	}
	if refAUC <= popAUC {
		return res.AUC, fmt.Errorf("model AUC %.6f does not beat popularity %.6f", refAUC, popAUC)
	}
	return res.AUC, nil
}

// pairAUC is the share of (positive, negative) pairs the scores order
// correctly, ties counting half, averaged over the positives.
func pairAUC(scores []float64, positives dataset.Basket) float64 {
	pos := make(map[int32]bool, len(positives))
	for _, p := range positives {
		pos[p] = true
	}
	var sum float64
	for _, p := range positives {
		var below, ties, neg float64
		for i, s := range scores {
			if pos[int32(i)] {
				continue
			}
			neg++
			if s < scores[p] {
				below++
			} else if s == scores[p] {
				ties++
			}
		}
		sum += (below + ties/2) / neg
	}
	return sum / float64(len(positives))
}
