package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/serve"
)

// stack is the serving path under test: one proxy in front of two serve
// replicas on loopback, configured with production defaults (zero-value
// configs apart from addresses, registries and the kv budget).
type stack struct {
	url      string // proxy base URL
	proxy    *proxy.Proxy
	proxyReg *obs.Registry
	servers  []*serve.Server
	regs     []*obs.Registry // one per replica
	https    []*http.Server
	client   *http.Client
}

const replicas = 2

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serveRoute names the serve span for a request.
func serveRoute(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/encode":
		return "serve.encode"
	case r.URL.Path == "/v1/decode":
		return "serve.decode"
	case strings.HasPrefix(r.URL.Path, "/v1/kv/") && r.Method == http.MethodPut:
		return "serve.kv_put"
	case strings.HasPrefix(r.URL.Path, "/v1/kv/") && r.Method == http.MethodGet:
		return "serve.kv_get"
	}
	return "serve.other"
}

// startStack brings the fleet up. A non-nil tr wraps the proxy and serve
// handlers and the proxy's upstream transport with span recorders.
func startStack(kvBudget int64, tr *tracer) (*stack, error) {
	st := &stack{}
	var urls []string
	for i := 0; i < replicas; i++ {
		reg := obs.NewRegistry()
		srv := serve.New(serve.Config{Metrics: reg, KVBudgetBytes: kvBudget})
		ln, u, err := listen()
		if err != nil {
			st.close()
			return nil, err
		}
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.wrapHandler(h, serveRoute)
		}
		hs := &http.Server{Handler: h}
		go hs.Serve(ln)
		st.servers = append(st.servers, srv)
		st.regs = append(st.regs, reg)
		st.https = append(st.https, hs)
		urls = append(urls, u)
	}
	st.proxyReg = obs.NewRegistry()
	cfg := proxy.Config{Backends: urls, Metrics: st.proxyReg}
	if tr != nil {
		cfg.Transport = &timingTransport{t: tr, next: http.DefaultTransport}
	}
	p, err := proxy.New(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	p.Start()
	st.proxy = p
	ln, u, err := listen()
	if err != nil {
		st.close()
		return nil, err
	}
	var h http.Handler = p.Handler()
	if tr != nil {
		h = tr.wrapHandler(h, func(*http.Request) string { return "proxy" })
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	st.https = append(st.https, hs)
	st.url = u
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConnsPerHost = loadWorkers
	st.client = &http.Client{Transport: tp}
	return st, nil
}

func (st *stack) close() {
	for _, hs := range st.https {
		hs.Close()
	}
	if st.proxy != nil {
		st.proxy.Close()
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// reply is a completed HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// do sends one request through the proxy. parent is the load generator's
// operation span (nil when untraced).
func (st *stack) do(ctx context.Context, method, path string, body []byte, parent *span) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, st.url+path, rd)
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if parent != nil {
		setRef(req.Header, spanRef{parent.rec.Req, parent.id()})
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{resp.StatusCode, resp.Header, b}, nil
}

// counters sums a counter across the replicas' registries.
func (st *stack) counter(name string) int64 {
	var n int64
	for _, r := range st.regs {
		n += r.Counter(name).Value()
	}
	return n
}

// hist sums a histogram's count and sum across the replicas.
func (st *stack) hist(name string) (count, sum int64) {
	for _, r := range st.regs {
		s := r.Histogram(name).Stats()
		count += s.Count
		sum += s.Sum
	}
	return count, sum
}

// gaugeSum sums a gauge across the replicas.
func (st *stack) gaugeSum(name string) int64 {
	var n int64
	for _, r := range st.regs {
		n += r.Gauge(name).Value()
	}
	return n
}

func statusErr(op string, r reply, want ...int) error {
	for _, w := range want {
		if r.status == w {
			return nil
		}
	}
	msg := string(r.body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("%s: status %d: %s", op, r.status, msg)
}
