package main

// The trace recorder. Spans are recorded from the benchmark's own code
// only: around each client call, in http.Handler wrappers around the
// node, shard and router handlers, and in an instrumented RoundTripper
// the router's shard client is built on. A span id rides from client to
// handler in a request header, and from the router handler to its shard
// calls in the request context, which the router passes to its shard
// requests unchanged. Spans are kept in memory and written out when the
// run ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// span is one timed interval at a layer boundary; times are nanoseconds
// since the tracer's origin.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans while on; a nil tracer records nothing and wraps
// nothing, which is how untraced runs execute.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func parentOf(r *http.Request) uint64 {
	p, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	return p
}

// wrap times a handler as span name, child of the span id the request
// header carries, and hands its own id down in the request context.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.recording() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.nextID.Add(1)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.record(span{ID: id, Parent: parentOf(r), Name: name, Start: t.since(start), End: t.since(time.Now())})
	})
}

// transport is the instrumented RoundTripper of the router's shard
// client: each shard call is a span, child of the router span in the
// request context, ending when the router has read and closed the body.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tr.t.recording() {
		return tr.base.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	id := tr.t.nextID.Add(1)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := tr.base.RoundTrip(out)
	s := span{ID: id, Parent: parent, Name: "shard_call", Start: tr.t.since(start)}
	if err != nil {
		s.End = tr.t.since(time.Now())
		tr.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: func() {
		s.End = tr.t.since(time.Now())
		tr.t.record(s)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.finish)
	return err
}

// index groups the recorded spans by name and by parent.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func (t *tracer) index() spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range t.spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// selfNs is a span's duration minus the part of it its children cover.
func selfNs(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	covered += curHi - curLo
	return s.dur() - covered
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerRow is one per-layer figure with the base it was measured over.
type layerRow struct {
	name  string
	value float64
	unit  string
	base  string
}

// printLayers prints every row with its base and returns the rows of
// layers as the result's metrics; extra rows are printed only.
func printLayers(o *options, layers, extra []layerRow) map[string]metric {
	out := make(map[string]metric, len(layers))
	for _, r := range layers {
		o.report("layer %-40s %14.4f %-9s (%s)", r.name, r.value, r.unit, r.base)
		out[r.name] = metric{r.value, r.unit}
	}
	for _, r := range extra {
		o.report("layer %-40s %14.4f %-9s (%s)", r.name, r.value, r.unit, r.base)
	}
	return out
}

// ratio formats a ratio with its base counts.
func ratio(num, den int64) (float64, string) {
	if den == 0 {
		return 0, "0 of 0"
	}
	return float64(num) / float64(den), fmt.Sprintf("%d of %d", num, den)
}
