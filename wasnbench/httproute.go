package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"github.com/straightpath/wasn"
)

// httpRequestsPerSecond is how many /route requests each second of
// --seconds buys on http-route.
const httpRequestsPerSecond = 16_000

// httpClients is how many closed-loop clients http-route runs. One
// client and the handler serving it keep at most two goroutines
// runnable, no more than the 2 cores the benchmark was sized on; two
// clients would keep four, and the rate would measure the scheduler.
const httpClients = 1

// httpBlocksPerSecond is how many timed blocks each second of --seconds
// is split into; the metrics are medians over blocks.
const httpBlocksPerSecond = 4

// httpProcs is the GOMAXPROCS the client and the handler share while
// requests are warmed up and timed. On one P each side hands over to
// the other by polling the loopback socket, so the thread stays busy.
// On two, a request can wake the other, idle, virtual CPU, and on a
// loaded host that wake-up waits for the hypervisor, so the rate
// follows the host's load rather than the code.
const httpProcs = 1

// withProcs runs f with GOMAXPROCS set to n.
func withProcs(n int, f func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// httpTailOps is how many churn ops the quiescent tail runs: twice
// churnOps, which halves how far one op's time moves the percentiles.
// Untraced, the replica replays only each op's topology change, so an
// op costs about a tenth of a second.
const httpTailOps = 2 * churnOps

// httpWarmRequests is how many untimed requests each client sends
// before timing starts.
const httpWarmRequests = 15_000

// httpHandlerSamples is how many requests the traced run sends straight
// to the handler, without a socket.
const httpHandlerSamples = 4000

// httpRec is one response, kept for the output check.
type httpRec struct {
	key       int32
	hops      int32
	delivered bool
}

// httpClient is one closed-loop client on its own keep-alive loopback
// connection.
type httpClient struct {
	st     *svcState
	tp     *http.Transport
	hc     *http.Client
	base   string
	stream []int32
	pos    int
	seen   []bool
	traced bool

	lat, codec, rtt hist
	q               quality
	recs            []httpRec
	reqs, hits      int64
	errs            int64
	lastErr         error
}

func newHTTPClient(st *svcState, c int, base string, traced bool) *httpClient {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{
		st: st, tp: tp, hc: &http.Client{Transport: tp}, base: base,
		stream: st.streams[c], seen: make([]bool, len(serviceSpecs)*keysPerDep), traced: traced,
	}
}

// post sends one JSON request and returns the response body, failing on
// any status but 200.
func (c *httpClient) post(path string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// run sends n /route requests, one at a time. Delivery and stretch
// count each key once per client: without churn a repeated key returns
// the same route.
func (c *httpClient) run(n int) {
	st := c.st
	for i := 0; i < n; i++ {
		kk := c.stream[c.pos]
		if c.pos++; c.pos == len(c.stream) {
			c.pos = 0
		}
		k := st.decode(kk)
		start := time.Now()
		body, err := json.Marshal(wasn.RouteRequest{Deployment: st.names[k.dep], Algorithm: algorithms[k.alg], Src: k.src, Dst: k.dst})
		var (
			sent, received time.Time
			data           []byte
			out            wasn.RouteResponse
		)
		if err == nil {
			sent = time.Now()
			data, err = c.post("/route", body)
			received = time.Now()
		}
		if err == nil {
			err = json.Unmarshal(data, &out)
		}
		end := time.Now()
		c.lat.add(end.Sub(start))
		c.reqs++
		if err != nil {
			c.errs++
			c.lastErr = err
			continue
		}
		if c.traced {
			c.codec.add(sent.Sub(start) + end.Sub(received))
			c.rtt.add(received.Sub(sent))
		}
		if out.Cached {
			c.hits++
		}
		c.recs = append(c.recs, httpRec{key: kk, hops: int32(out.Hops), delivered: out.Delivered})
		if !c.seen[kk] {
			c.seen[kk] = true
			c.q.add(out.Delivered, out.Hops, st.ideal[k.dep][k.pair], false)
		}
	}
}

// reset drops what the warm-up counted.
func (c *httpClient) reset() {
	*c = httpClient{st: c.st, tp: c.tp, hc: c.hc, base: c.base, stream: c.stream, pos: c.pos, seen: make([]bool, len(c.seen)), traced: c.traced}
}

// latency hands over and clears the client's per-block latencies.
func (c *httpClient) latency() hist {
	h := c.lat
	c.lat = hist{}
	return h
}

// serveLoopback serves the service's handler on a loopback port and
// sets st.close to stop it and wait for it to exit.
func serveLoopback(st *svcState) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: st.svc.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "wasnbench: serve: %v\n", err)
		}
	}()
	st.close = func() {
		srv.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), nil
}

func runHTTP(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	perClient := httpRequestsPerSecond * cfg.seconds / httpClients
	var cs []*httpClient
	st, err := setUp(o, tr, func() (*svcState, error) {
		st, err := serviceInputs(cfg, tr, httpClients, httpWarmRequests+perClient)
		if err != nil {
			return nil, err
		}
		if err := st.startService(tr); err != nil {
			return nil, err
		}
		base, err := serveLoopback(st)
		if err != nil {
			st.Close()
			return nil, err
		}
		for _, c := range cs {
			c.tp.CloseIdleConnections()
		}
		cs = cs[:0]
		for c := 0; c < httpClients; c++ {
			cs = append(cs, newHTTPClient(st, c, base, tr != nil))
		}
		withProcs(httpProcs, func() { runBlock(cs, httpWarmRequests, nil) })
		for _, c := range cs {
			c.reset()
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	defer func() {
		for _, c := range cs {
			c.tp.CloseIdleConnections()
		}
	}()
	st.coreProbe(tr)

	var b blocks
	mem := readMem()
	withProcs(httpProcs, func() {
		for r := 0; r < httpBlocksPerSecond*cfg.seconds; r++ {
			runBlock(cs, perClient/(httpBlocksPerSecond*cfg.seconds), &b)
		}
	})
	o.notes["timed_gomaxprocs"] = httpProcs
	memAfter := readMem()

	var (
		q          quality
		reqs, hits int64
	)
	for _, c := range cs {
		q.merge(c.q)
		reqs += c.reqs
		hits += c.hits
		if c.errs > 0 {
			o.failed += c.errs
			o.problems = append(o.problems, c.lastErr.Error())
		}
		tr.fold("http.client_codec", &c.codec)
		tr.fold("http.roundtrip", &c.rtt)
	}
	o.attempted = reqs
	noteRuntime(tr, mem, memAfter, reqs)
	checkHTTP(o, st, cs, tr)
	o.notes["cache_hit_ratio"] = ratio(float64(hits), float64(reqs))
	tr.note("serve.cache_hit_ratio", ratio(float64(hits), float64(reqs)))
	if tr != nil {
		handlerProbe(st, tr)
	}

	ch := newChurner(cfg, st, false)
	purged := st.svc.Stats().CachePurged
	var churn opTimes
	for j := 0; j < httpTailOps; j++ {
		if err := ch.step(o, tr, func(op churnOp) error { return cs[0].apply(op) }, &churn); err != nil {
			return nil, err
		}
	}
	tr.note("serve.cache_purged_per_op", ratio(float64(st.svc.Stats().CachePurged-purged), httpTailOps))
	if err := st.checkRebuilt(o, cfg); err != nil {
		return nil, err
	}
	setCommon(o, &b, q, churn, st.heapMB)
	return o, nil
}

// checkHTTP checks every response against Service.Route in process for
// the same key, timing those calls as the serve layer's spans.
func checkHTTP(o *outcome, st *svcState, cs []*httpClient, tr *tracer) {
	want := map[int32]wasn.Result{}
	var hit, miss hist
	for _, c := range cs {
		for _, rec := range c.recs {
			res, ok := want[rec.key]
			if !ok {
				start := time.Now()
				r, cached, err := st.route(st.decode(rec.key))
				d := time.Since(start)
				if err != nil {
					o.fail("in-process route of key %d: %v", rec.key, err)
					continue
				}
				if cached {
					hit.add(d)
				} else {
					miss.add(d)
				}
				res = r
				want[rec.key] = res
			}
			if res.Delivered != rec.delivered || int32(res.Hops()) != rec.hops {
				o.fail("key %d: /route said %v/%d hops, Service.Route %v/%d hops", rec.key, rec.delivered, rec.hops, res.Delivered, res.Hops())
			}
		}
	}
	tr.fold("serve.route.hit", &hit)
	tr.fold("serve.route.miss", &miss)
}

// handlerProbe times the /route handler with no socket: ServeHTTP on a
// recorder, for a sample of the stream's keys.
func handlerProbe(st *svcState, tr *tracer) {
	h := st.svc.Handler()
	var lat hist
	for i := 0; i < httpHandlerSamples; i++ {
		k := st.decode(st.streams[0][i%len(st.streams[0])])
		body, _ := json.Marshal(wasn.RouteRequest{Deployment: st.names[k.dep], Algorithm: algorithms[k.alg], Src: k.src, Dst: k.dst})
		req := httptest.NewRequest(http.MethodPost, "/route", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		lat.add(time.Since(start))
	}
	tr.fold("http.handler", &lat)
}

// apply sends a churn op over the wire.
func (c *httpClient) apply(op churnOp) error {
	name := c.st.names[op.dep]
	var (
		body []byte
		err  error
	)
	if op.kind == opMove {
		body, err = json.Marshal(struct {
			Deployment string      `json:"deployment"`
			Moves      []wasn.Move `json:"moves"`
		}{name, op.moves})
	} else {
		body, err = json.Marshal(struct {
			Deployment string        `json:"deployment"`
			Nodes      []wasn.NodeID `json:"nodes"`
		}{name, op.nodes})
	}
	if err != nil {
		return err
	}
	_, err = c.post("/"+op.kind.String(), body)
	return err
}
