package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans recorded by the benchmark's own code around calls into each layer's
// public API: the load generator's operation, the proxy handler, each
// upstream attempt (a timing proxy Config.Transport), the serve handler, and
// in-process calls such as store.Model.Layer. Spans are kept in memory and
// written out when the run ends.

// Headers carrying the request and parent span across the loopback hops.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s spanRec) iv() interval { return interval{s.Start, s.End} }

// tracer collects spans while on. A nil *tracer records nothing, which is
// how the untraced runs use the same code paths.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// span is an open span; end records it.
type span struct {
	t   *tracer
	rec spanRec
}

// begin opens a span, or returns nil when tracing is off.
func (t *tracer) begin(name string, parent, req int64) *span {
	if !t.active() {
		return nil
	}
	return &span{t: t, rec: spanRec{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: t.now()}}
}

func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = s.t.now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type ctxKey struct{}

// spanRef is the parent a downstream span attaches to.
type spanRef struct{ req, id int64 }

func refFromHeader(h http.Header) spanRef {
	req, _ := strconv.ParseInt(h.Get(hdrReq), 10, 64)
	id, _ := strconv.ParseInt(h.Get(hdrSpan), 10, 64)
	return spanRef{req, id}
}

func setRef(h http.Header, r spanRef) {
	h.Set(hdrReq, strconv.FormatInt(r.req, 10))
	h.Set(hdrSpan, strconv.FormatInt(r.id, 10))
}

// wrapHandler opens a span named by route around each request to h and
// hands the span to downstream code through the request context.
func (t *tracer) wrapHandler(h http.Handler, route func(*http.Request) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		parent := refFromHeader(r.Header)
		sp := t.begin(route(r), parent.id, parent.req)
		defer sp.end()
		ctx := context.WithValue(r.Context(), ctxKey{}, spanRef{parent.req, sp.id()})
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// timingTransport is the proxy's upstream RoundTripper in traced runs: one
// span per attempt, closed when the response body has been read, with the
// attempt's identity forwarded to the serve replica.
type timingTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tt.t.active() {
		return tt.next.RoundTrip(r)
	}
	parent, _ := r.Context().Value(ctxKey{}).(spanRef)
	sp := tt.t.begin("proxy.attempt", parent.id, parent.req)
	r2 := r.Clone(r.Context())
	setRef(r2.Header, spanRef{parent.req, sp.id()})
	resp, err := tt.next.RoundTrip(r2)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	sp   *span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.sp.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.sp.end)
	return b.ReadCloser.Close()
}

// layerTimes summarizes spans by name: mean duration and mean self time in
// milliseconds, with counts.
type layerTimes struct {
	N      int
	MeanMs float64
	SelfMs float64
}

// analyze groups spans by name and computes self time against each span's
// children.
func analyze(spans []spanRec) map[string]layerTimes {
	kids := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.iv())
		}
	}
	type acc struct {
		n         int
		dur, self int64
	}
	by := map[string]*acc{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.End - s.Start
		a.self += selfTime(s.iv(), kids[s.ID])
	}
	out := map[string]layerTimes{}
	for name, a := range by {
		out[name] = layerTimes{N: a.n, MeanMs: float64(a.dur) / float64(a.n) / 1e6, SelfMs: float64(a.self) / float64(a.n) / 1e6}
	}
	return out
}

// rootUnattributed is trace.unattributed_frac over the root spans (those
// without a parent) named in roots.
func rootUnattributed(spans []spanRec, roots map[string]bool) float64 {
	kids := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.iv())
		}
	}
	var rs []interval
	var cs [][]interval
	for _, s := range spans {
		if s.Parent == 0 && roots[s.Name] {
			rs = append(rs, s.iv())
			cs = append(cs, kids[s.ID])
		}
	}
	return unattributedFrac(rs, cs)
}
