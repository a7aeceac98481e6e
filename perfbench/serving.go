package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/vecmath"
)

// Serving workload make-up (recorded in README.md).
const (
	reloadEvery   = time.Second // one reload per one-second figure window
	cacheEntries  = 4096        // serve-node result cache
	latencyLimit  = 25 * time.Millisecond
	warmup        = 2 * time.Second // closed-loop time before the measured time
	checksPerCell = 12              // reference checks per scenario and model
	replayN       = 360             // requests replayed down the layer ladder (traced runs)
	numShards     = 3
)

// scenario is one weighted request template: tfrec-loadgen's default mix.
type scenario struct {
	name        string
	weight      int
	precision   string
	pruned      bool
	offset      int
	strategy    string
	keep        float64
	maxPerCat   int
	excludeCats []int32
	excludeHist bool
	session     bool
}

var mix = []scenario{
	{name: "naive", weight: 6},
	{name: "naive-f64", weight: 1, precision: "f64"},
	{name: "naive-int8", weight: 1, precision: "int8"},
	{name: "naive-pruned", weight: 1, pruned: true},
	{name: "paged", weight: 1, offset: 5},
	{name: "cascade", weight: 1, strategy: "cascade", keep: 0.4},
	{name: "diversified", weight: 1, strategy: "diversified", maxPerCat: 2},
	{name: "filtered", weight: 1, excludeCats: []int32{1}, excludeHist: true},
	{name: "session", weight: 1, session: true},
}

// benchReq is one generated request.
type benchReq struct {
	sc     *scenario
	user   int
	recent [][]int32
	path   string
	body   []byte
}

func (r *benchReq) key() string {
	return fmt.Sprintf("%s|%d|%v", r.sc.name, r.user, r.recent)
}

func (r *benchReq) refRequest() refRequest {
	rq := refRequest{user: r.user, k: resultK, offset: r.sc.offset, cascadeKeep: r.sc.keep,
		maxPerCat: r.sc.maxPerCat, excludeCats: r.sc.excludeCats, excludeHist: r.sc.excludeHist}
	for _, b := range r.recent {
		rq.recent = append(rq.recent, dataset.Basket(b))
	}
	return rq
}

// requestGen derives request i of a run from the seed alone.
type requestGen struct {
	seed    uint64
	userCDF []float64 // user activity (activityCDF); nil draws users from perm
	perm    []int
}

func (g *requestGen) at(i int) *benchReq {
	rng := vecmath.NewRNG(g.seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	total := 0
	for _, sc := range mix {
		total += sc.weight
	}
	n := rng.Intn(total)
	sc := &mix[len(mix)-1]
	for j := range mix {
		if n -= mix[j].weight; n < 0 {
			sc = &mix[j]
			break
		}
	}
	r := &benchReq{sc: sc}
	switch {
	case sc.session:
		r.user = -1
		for j := 0; j < 2; j++ {
			r.recent = append(r.recent, []int32{int32(rng.Intn(numItems))})
		}
	case g.userCDF != nil:
		r.user = sort.SearchFloat64s(g.userCDF, rng.Float64())
	default:
		r.user = g.perm[i%len(g.perm)]
	}
	wire := api.RecommendRequest{User: r.user, Recent: r.recent, K: resultK, Offset: sc.offset,
		Strategy: sc.strategy, Keep: sc.keep, MaxPerCategory: sc.maxPerCat,
		ExcludePurchased: sc.excludeHist, ExcludeCategories: sc.excludeCats}
	r.body, _ = json.Marshal(wire)
	var qs []string
	if sc.precision != "" {
		qs = append(qs, "precision="+sc.precision)
	}
	if sc.pruned {
		qs = append(qs, "pruned=true")
	}
	r.path = api.EndpointUnified.Path()
	if len(qs) > 0 {
		r.path += "?" + strings.Join(qs, "&")
	}
	return r
}

// activityCDF draws users in proportion to their transactions in the
// serving history: the traffic's skew is the generated log's own, so a
// user who bought more asks for more recommendations.
func activityCDF(h *dataset.Dataset) []float64 {
	cdf := make([]float64, h.NumUsers())
	var sum float64
	for u := range cdf {
		sum += float64(len(h.Users[u].Baskets))
		cdf[u] = sum
	}
	for u := range cdf {
		cdf[u] /= sum
	}
	return cdf
}

// repeatShare is the share of a phase's requests that repeat a request
// answered earlier on the same snapshot generation: what the result
// cache, emptied at every reload, can serve at most.
func repeatShare(gen *requestGen, shots []shot) float64 {
	seen := map[string]bool{}
	repeats := 0
	for i := range shots {
		key := fmt.Sprintf("%s|%d", gen.at(shots[i].idx).key(), shots[i].epoch)
		if seen[key] {
			repeats++
		}
		seen[key] = true
	}
	return float64(repeats) / float64(max(1, len(shots)))
}

// reply is one request's raw outcome.
type reply struct {
	start, end time.Time
	status     int
	body       []byte
	err        error
	span       uint64 // client span id, 0 when untraced
}

// shot is what a closed loop keeps of one request: a record of fixed
// size, so that the benchmark's own memory does not grow with the bodies
// it receives.
type shot struct {
	idx    int           // request number: gen.at(idx) rebuilds the request
	start  time.Duration // since the phase began
	lat    time.Duration
	status int    // 0 when no response arrived
	epoch  uint64 // snapshot generation that answered
	rank   uint64 // hash of the ranking; 0 when the body was unusable
	span   uint64 // client span id, 0 when untraced
}

func newClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	return &http.Client{Transport: tr}
}

// post sends one request, tagging it with a client span when traced.
func post(client *http.Client, base string, r *benchReq, t *tracer) reply {
	var s reply
	req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	var id uint64
	if t.recording() {
		id = t.nextID.Add(1)
		req.Header.Set(spanHeader, fmt.Sprint(id))
	}
	s.start = time.Now()
	resp, err := client.Do(req)
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.end = time.Now()
	s.err, s.span = err, id
	if id != 0 {
		t.record(span{ID: id, Name: "client", Start: t.since(s.start), End: t.since(s.end)})
	}
	return s
}

// phase is one closed-loop measurement.
type phase struct {
	shots   []shot // ordered by start
	start   time.Time
	dur     time.Duration // measured sending time, after warmup
	elapsed time.Duration // until the last response
	mem0    memSample
	mem1    memSample
	esc     int64       // f32 + int8 certificate escalations during the phase
	rss     []rssSample // resident set, every rssEvery
}

// rssSample is one reading of the process's resident set.
type rssSample struct {
	at  time.Duration // since the phase began
	mib float64
}

// rssEvery is how often a closed-loop phase samples the resident set.
const rssEvery = 10 * time.Millisecond

// drive runs a closed loop of clients for warmup plus dur: each client
// sends its next request only after the previous one completed. Requests
// are numbered from first on; rec summarizes each reply. The warm-up's
// requests are checked like the others but not measured: they take the
// first faults on the mapped model pages and fill the processor caches.
func drive(client *http.Client, base string, gen *requestGen, rec *recorder, clients int, dur time.Duration, first int, t *tracer) phase {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]shot, clients)
	// the set-ups' garbage is returned to the system first, so that the
	// sampled resident set is this phase's own
	debug.FreeOSMemory()
	ph := phase{mem0: readMem(), dur: dur}
	esc0 := infer.F32Escalations() + infer.I8Escalations()
	start := time.Now()
	ph.start = start
	deadline := start.Add(warmup + dur)
	stop := make(chan struct{})
	sampled := make(chan []rssSample)
	go func() {
		var rss []rssSample
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- rss
				return
			case <-tick.C:
				rss = append(rss, rssSample{time.Since(start), residentMiB()})
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := gen.at(i)
				per[c] = append(per[c], rec.add(i, r, post(client, base, r, t), start))
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	close(stop)
	ph.rss = <-sampled
	ph.mem1 = readMem()
	ph.esc = infer.F32Escalations() + infer.I8Escalations() - esc0
	for _, s := range per {
		ph.shots = append(ph.shots, s...)
	}
	sort.Slice(ph.shots, func(i, j int) bool { return ph.shots[i].start < ph.shots[j].start })
	return ph
}

// figures are the end-to-end metrics one closed-loop phase measures.
type figures struct {
	p50, p90, p99, goodput, peakRSS float64
}

// endToEnd computes the serving metrics of one phase's measured time,
// which it cuts into one-second windows by completion time. Goodput and
// peak resident set are medians over the windows, so a burst of
// interference from outside the process, or a garbage collection that
// happens to coincide with a reload, moves a few windows, not the figure.
// p50 and p90 are quantiles of every request completed in the measured
// time: the mix's costly shapes put p90 on a steep part of the latency
// distribution, where a window's few hundred requests place it anywhere
// from 3.5 to 6.5 ms (router-fanout), so a median of window p90s moves
// with the windows' draws more than the pooled quantile does.
func (ph *phase) endToEnd() figures {
	n := max(1, int(ph.dur/time.Second))
	win := ph.dur / time.Duration(n)
	var lats []float64
	good := make([]float64, n)
	peak := make([]float64, n)
	for _, s := range ph.rss {
		if at := s.at - warmup; at >= 0 && int(at/win) < n {
			peak[int(at/win)] = max(peak[int(at/win)], s.mib)
		}
	}
	for i := range ph.shots {
		s := &ph.shots[i]
		done := s.start + s.lat - warmup
		if done < 0 || int(done/win) >= n {
			continue // warm-up, or completed while the loop drained
		}
		lats = append(lats, s.lat.Seconds()*1e3)
		if s.status/100 == 2 && s.lat <= latencyLimit {
			good[int(done/win)]++
		}
	}
	for w := range good {
		good[w] /= win.Seconds()
	}
	return figures{median(lats), quantile(lats, 0.9), quantile(lats, 0.99), median(good), median(peak)}
}

// httpServer serves h on a fresh loopback listener.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
}

// node is one serve.Server behind serve.HTTP on a loopback listener.
// Each node maps its own copy of the model file: a snapshot is owned by
// exactly one server.
type node struct {
	srv  *serve.Server
	h    *serve.HTTP
	http *httpServer
}

func startNode(path string, t *tracer, name string, reload func(*serve.Server) func() (*model.Snapshot, error), opts ...serve.Option) (*node, error) {
	sn, err := model.LoadFile(path)
	if err != nil {
		return nil, err
	}
	n := &node{srv: serve.NewSnapshot(sn, opts...)}
	n.h = serve.NewHTTP(n.srv, nil)
	if reload != nil {
		n.h.SetSnapshotReload(reload(n.srv))
	}
	if n.http, err = listen(t.wrap(name, n.h.Handler())); err != nil {
		n.h.Close()
		n.srv.Close()
		return nil, err
	}
	return n, nil
}

func (n *node) close() {
	n.http.close()
	n.h.Close()
	n.srv.Close()
}

// servedModels is the preparation of a serving workload: a world, the
// published model files trained on it, and their references.
type servedModels struct {
	w     *world
	tr    trainRun
	paths []string
	refs  []*refModel // built after the timed phases (loadRefs)
	ids   []string    // model fingerprints, as responses carry them
}

// prepared is what the preparation process reports.
type prepared struct {
	WallNs  int64     `json:"wall_ns"`
	Samples int64     `json:"samples"`
	EpochNs []int64   `json:"epoch_ns"`
	LogLik  []float64 `json:"loglik"`
}

// prepareServing trains the served models in a child process, so that
// training's memory stays out of the serving process's peak resident
// set, and generates the same world here for the checks.
func prepareServing(o *options, files int) (*servedModels, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "prepare", "--seed", fmt.Sprint(o.seed), "--files", fmt.Sprint(files), "--dir", o.workDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var p prepared
	if err := json.Unmarshal(out, &p); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	sm := &servedModels{tr: trainRun{wall: time.Duration(p.WallNs), samples: p.Samples, loglik: p.LogLik}}
	for _, ns := range p.EpochNs {
		sm.tr.epochs = append(sm.tr.epochs, time.Duration(ns))
	}
	if sm.w, err = genWorld(o.seed); err != nil {
		return nil, err
	}
	for f := 0; f < files; f++ {
		path := filepath.Join(o.workDir, modelFile(f))
		sn, err := model.LoadFile(path)
		if err != nil {
			return nil, err
		}
		sm.ids = append(sm.ids, sn.Composed.Fingerprint())
		sn.Close()
		sm.paths = append(sm.paths, path)
	}
	return sm, nil
}

func modelFile(f int) string { return fmt.Sprintf("model-%c.tfrec", 'a'+f) }

// loadRefs builds each served file's reference from the raw parameters
// the file carries (model.Load, the heap decode path).
func (sm *servedModels) loadRefs() error {
	for _, path := range sm.paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		m, err := model.Load(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		sm.refs = append(sm.refs, newRefModel(m))
	}
	return nil
}

// prepareMain is the preparation process: it generates the world, trains
// the served model as the offline workload trains (nproc workers, §6.1
// caches) and publishes it; each further file is the model after one
// more epoch, the file a reload swaps to. It prints the training figures
// as JSON. Parallel training is not bit-reproducible, so the served
// model may differ between runs of one seed; the checks read each file's
// own parameters. Serial training was tried: on a 2-vCPU machine its
// speed depends on which vCPU it lands on, and spread 17-19% across runs.
func prepareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench prepare", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed")
	files := fs.Int("files", 1, "model files to publish")
	dir := fs.String("dir", "", "directory for the model files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := func() error {
		w, err := genWorld(*seed)
		if err != nil {
			return err
		}
		m, err := newModel(w)
		if err != nil {
			return err
		}
		nproc := runtime.GOMAXPROCS(0)
		tr, err := trainModel(m, w, offlineEpochs, nproc, *seed^0x5e7)
		if err != nil {
			return err
		}
		for f := 0; f < *files; f++ {
			if f > 0 {
				if _, err := trainModel(m, w, 1, nproc, *seed^0x5e8+uint64(f)); err != nil {
					return err
				}
			}
			if _, err := publish(m, *dir, modelFile(f)); err != nil {
				return err
			}
		}
		p := prepared{WallNs: int64(tr.wall), Samples: tr.samples, LogLik: tr.loglik}
		for _, d := range tr.epochs {
			p.EpochNs = append(p.EpochNs, int64(d))
		}
		return json.NewEncoder(os.Stdout).Encode(p)
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench prepare: %v\n", err)
		return 1
	}
	return 0
}

// firstAnswer is the request every set-up ends with.
func firstAnswer(client *http.Client, base string) (reply, error) {
	r := &benchReq{sc: &mix[0], path: api.EndpointUnified.Path()}
	r.body, _ = json.Marshal(api.RecommendRequest{User: 0, K: resultK})
	s := post(client, base, r, nil)
	if s.err != nil || s.status != http.StatusOK {
		return s, fmt.Errorf("first request: status %d, %v: %s", s.status, s.err, s.body)
	}
	return s, nil
}

// kept is an answer kept whole for the reference checks.
type kept struct {
	req   *benchReq
	model int
	body  []byte
}

type cellKey struct {
	sc    *scenario
	model int
}

// recorder turns the replies of closed loops into shots. It keeps whole
// only the answers the checks read, the first checksPerCell distinct
// requests per scenario and model; of every other reply it keeps the
// status, the times, the epoch and a hash of the ranking. So the memory
// the benchmark holds while it measures, and with it peak_rss_mib, does
// not grow with the number of requests served.
type recorder struct {
	ids []string // model fingerprints: generation g serves ids[g mod len(ids)]

	mu     sync.Mutex
	cells  map[cellKey]int
	keys   map[string]bool
	kept   []kept
	failed int64
	errs   []string
}

func newRecorder(ids []string) *recorder {
	return &recorder{ids: ids, cells: map[cellKey]int{}, keys: map[string]bool{}}
}

func (rc *recorder) note(failed bool, format string, args ...any) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if failed {
		rc.failed++
	}
	if len(rc.errs) < 10 {
		rc.errs = append(rc.errs, fmt.Sprintf(format, args...))
	}
}

// add summarizes reply rp to request idx of a phase that began at phase.
// A response's epoch names its model: snapshot generation g serves file
// g mod len(ids).
func (rc *recorder) add(idx int, r *benchReq, rp reply, phase time.Time) shot {
	s := shot{idx: idx, start: rp.start.Sub(phase), lat: rp.end.Sub(rp.start), span: rp.span}
	if rp.err == nil {
		s.status = rp.status
	}
	if s.status != http.StatusOK {
		rc.note(true, "%s: status %d, %v: %.200s", r.sc.name, rp.status, rp.err, rp.body)
		return s
	}
	var resp api.RecommendResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		rc.note(false, "%s: bad body: %v", r.sc.name, err)
		return s
	}
	mi := int(resp.Epoch % uint64(len(rc.ids)))
	if resp.ModelID != rc.ids[mi] {
		rc.note(false, "%s: epoch %d answered by model %s, want %s", r.sc.name, resp.Epoch, resp.ModelID, rc.ids[mi])
		return s
	}
	s.epoch, s.rank = resp.Epoch, rankHash(resp.Items)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if c := (cellKey{r.sc, mi}); rc.cells[c] < checksPerCell {
		if key := fmt.Sprintf("%s|%d", r.key(), mi); !rc.keys[key] {
			rc.keys[key] = true
			rc.cells[c]++
			rc.kept = append(rc.kept, kept{req: r, model: mi, body: rp.body})
		}
	}
	return s
}

var rankSeed = maphash.MakeSeed()

// rankHash hashes a ranking: items, scores and categories in order. It
// is never 0 in practice; 0 marks an unusable body.
func rankHash(items []api.Item) uint64 {
	var h maphash.Hash
	h.SetSeed(rankSeed)
	for _, it := range items {
		maphash.WriteComparable(&h, it)
	}
	return h.Sum64() | 1
}

// answerCheck is the outcome of checking a phase's recorded responses.
type answerCheck struct {
	failed  int64
	checked int
	errs    []string
}

func (a *answerCheck) fail(format string, args ...any) {
	if len(a.errs) < 10 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// checkShots takes over the recorder's failures, requires equal requests
// on the same model to get equal rankings, and checks the kept answers
// against the reference.
func checkShots(o *options, sm *servedModels, gen *requestGen, rec *recorder, shots []shot) *answerCheck {
	ac := &answerCheck{failed: rec.failed}
	for _, e := range rec.errs {
		ac.fail("%s", e)
	}
	first := map[string]uint64{}
	for i := range shots {
		s := &shots[i]
		if s.status != http.StatusOK || s.rank == 0 {
			continue
		}
		r := gen.at(s.idx)
		key := fmt.Sprintf("%s|%d", r.key(), s.epoch%uint64(len(sm.paths)))
		if h, ok := first[key]; !ok {
			first[key] = s.rank
		} else if h != s.rank {
			ac.fail("%s user %d: the same request got two rankings from one model", r.sc.name, r.user)
		}
	}
	for _, k := range rec.kept {
		var resp api.RecommendResponse
		if err := json.Unmarshal(k.body, &resp); err != nil {
			ac.fail("%s: bad body: %v", k.req.sc.name, err)
			continue
		}
		items := resp.Items
		if o.corrupt != "" && ac.checked == 0 {
			items = corruptItems(items, o.corrupt, numItems)
		}
		chk := &checker{ref: sm.refs[k.model], history: sm.w.history}
		ac.checked++
		if err := chk.check(k.req.refRequest(), items); err != nil {
			ac.fail("%s user %d model %d: %v", k.req.sc.name, k.req.user, k.model, err)
		}
	}
	return ac
}
