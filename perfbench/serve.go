package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"accelwattch/internal/cli"
	"accelwattch/internal/zoo"
)

// awserve defaults the serve workloads depend on.
const (
	ledgerCap = 65536 // -ledger-cap: attribution-ledger ring, in events
	lruCap    = 4096  // -cache: response LRU entries per model entry
)

const (
	// hotPool is serve_hot's resident body pool, spread over every route.
	hotPool = 256
	// fillExtra is how far past its capacity the warm-up pushes each LRU
	// shard, so every shard has evicted before timing starts.
	fillExtra = 64
	// sampleEvery selects about one response in sampleEvery (seeded) for
	// a byte-for-byte check; maxSamples bounds how many a phase keeps.
	sampleEvery = 64
	maxSamples  = 4096
	// perRequests is the unit of serving work cpu_s counts.
	perRequests = 10000
)

// serveShape is a serve workload's request stream: request i for every
// index, and how many leading requests warm the server up before timing.
type serveShape struct {
	warm uint64
	req  func(i uint64) request
}

// shapeOf builds the stream of serve_hot or serve_cold.
//
// serve_hot fills every LRU shard with distinct bodies, inserts the pool,
// then repeats pool members until the ledger ring has wrapped; the timed
// window draws seeded pool members, all of them cache hits.
//
// serve_cold is one stream of distinct bodies, one in four a /sweep; its
// warm-up runs until the estimates (sweeps emit no ledger event) have
// wrapped the ledger ring, by which point every shard has filled.
func shapeOf(hot bool, g *generator, set *zoo.Set) serveShape {
	if !hot {
		// Three in four requests are estimates, each one ledger event.
		return serveShape{warm: (ledgerCap+fillExtra)*4/3 + 4, req: g.cold}
	}
	perEntry := uint64(lruCap + fillExtra)
	fillN := perEntry * uint64(len(set.Entries))
	warm := max(fillN+hotPool, ledgerCap+fillExtra)
	pool := make([]request, hotPool)
	for j := range pool {
		pool[j] = g.pool(uint64(j))
	}
	return serveShape{warm: warm, req: func(i uint64) request {
		switch {
		case i < fillN:
			return g.fill(set, perEntry, i)
		case i < warm:
			return pool[(i-fillN)%hotPool]
		default:
			r := g.rng(streamPick, i)
			return pool[r.intn(hotPool)]
		}
	}}
}

// sampled reports whether response i is kept for the byte-for-byte check.
func (g *generator) sampled(i uint64) bool {
	r := g.rng(streamSample, i)
	return r.intn(sampleEvery) == 0
}

// runServe measures serve_hot or serve_cold against a real awserve.
func runServe(ctx context.Context, o options, rec *record) (*outcome, error) {
	manifest := filepath.Join(o.root, "examples", "models", "manifest.json")
	set, err := cli.BuildModelSet(manifest, runtime.GOMAXPROCS(0), nil, nil)
	if err != nil {
		return nil, err
	}
	g := newGenerator(o.seed, set)
	shape := shapeOf(o.workload == "serve_hot", g, set)

	// Set-up samples: awserve started, polled until /readyz answers 200,
	// and stopped; one more start takes the load.
	bin := filepath.Join(o.bin, "awserve")
	var setup setupSamples
	setupOnce := func() (time.Duration, time.Duration, error) {
		s, wall, err := startServer(ctx, bin, manifest)
		if err != nil {
			return 0, 0, err
		}
		ru, err := s.stop()
		if err != nil {
			return 0, 0, err
		}
		return wall, rusageCPU(ru), nil
	}
	if err := setup.take(setupRuns/2+1, setupOnce); err != nil {
		return nil, err
	}
	srv, wall, err := startServer(ctx, bin, manifest)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	conns := runtime.NumCPU()
	rec.add("awserve: pid %d  GOMAXPROCS %d  ready %.4f s after exec  -models %s, other flags default; load: closed loop over %d keep-alive connections",
		srv.cmd.Process.Pid, gomaxprocsOf(srv.cmd.Process.Pid), wall.Seconds(), manifest, conns)

	lg := &loadGen{addr: srv.addr, sample: g.sampled}
	defer lg.close()
	warm, err := lg.run(ctx, shape.req, 0, shape.warm, time.Time{}, conns)
	if err != nil {
		return nil, err
	}
	m0, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	dropped := m0.sum("aw_ledger_dropped_total", nil)
	rec.add("warm-up: %d requests, %d ok, %d failed; ledger dropped %.0f events; evictions per model %s",
		warm.sent, warm.ok, warm.failed, dropped, evictionsByModel(m0, set))
	if dropped < 1 {
		return nil, fmt.Errorf("warm-up ended before the %d-event ledger ring wrapped", ledgerCap)
	}
	for _, e := range set.Entries {
		if m0.sum("aw_serve_cache_events_total", map[string]string{"model": e.Name, "result": "eviction"}) < 1 {
			return nil, fmt.Errorf("warm-up ended before the %s LRU shard filled", e.Name)
		}
	}

	pid := srv.cmd.Process.Pid
	cpuA0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	cpuL0, steal0 := selfCPU(), stealTime()
	win, err := lg.run(ctx, shape.req, shape.warm, 0, time.Now().Add(time.Duration(o.seconds)*time.Second), conns)
	if err != nil {
		return nil, err
	}
	cpuA1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	cpuL1, steal := selfCPU(), stealTime()-steal0
	m1, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	ru, err := srv.stop()
	if err != nil {
		return nil, err
	}
	if win.ok == 0 {
		return nil, fmt.Errorf("no request succeeded in the timed window")
	}
	if err := setup.take(setupRuns/2, setupOnce); err != nil {
		return nil, err
	}
	rec.add("setup: %v", &setup)

	w := summarise(win)
	out := &outcome{correct: true, attempted: warm.sent + win.sent, failed: warm.failed + win.failed}
	rec.add("requests: %d sent, %d succeeded, %d failed (fail_pct %.4f)",
		out.attempted, out.attempted-out.failed, out.failed, 100*float64(out.failed)/float64(out.attempted))
	rec.add("window: %d requests, %d ok, %d failed in %.3f s: %.1f req/s (%d one-second slices: median %.1f, min %.0f, max %.0f)",
		win.sent, win.ok, win.failed, win.elapsed.Seconds(), w.rate, len(w.slices), w.sliceRate, minOf(w.slices), maxOf(w.slices))
	rec.add("window latency: p50 %.1f us, p99 %.1f us (%d samples, %d beyond p99), mean %.1f us; %.2f s of CPU stolen by the hypervisor",
		w.p50, w.p99, len(win.lat), w.beyond99, w.mean, steal.Seconds())

	// Output checks: sampled responses byte-equal to the single-shot
	// reference on the routed entry's model, and the server's own count
	// of 200s equal to the client's.
	samples := append(warm.samples, win.samples...)
	bad, digest := checkSamples(samples)
	rec.add("checked %d sampled responses byte for byte: %d differ; sample digest %s", len(samples), bad, digest)
	if bad > 0 {
		out.correct = false
	}
	served := promDelta(m0, m1, "aw_serve_requests_total", map[string]string{"code": "200", "route": "estimate"}) +
		promDelta(m0, m1, "aw_serve_requests_total", map[string]string{"code": "200", "route": "sweep"})
	if int64(served) != win.ok {
		rec.add("CHECK FAILED: awserve counted %.0f answered requests in the window, the client %d", served, win.ok)
		out.correct = false
	}

	sm := serverMetrics(m0, m1, win)
	awserveCPU := (cpuA1 - cpuA0).Seconds()
	loadgenCPU := (cpuL1 - cpuL0).Seconds()
	rec.add("awserve: cpu %.1f us/req, peak RSS %.1f MB; loadgen cpu %.1f us/req",
		awserveCPU/float64(win.ok)*1e6, peakRSSMB(ru), loadgenCPU/float64(win.sent)*1e6)
	rec.add("cache: hit ratio %.6f, evictions %.4f/req, batch mean %.3f, rejected %.0f; server mean %.1f us",
		sm.hitRatio, sm.evictionsPerReq, sm.batchMean, sm.rejected, sm.serverMeanUS)

	if o.trace == 0 {
		out.values = map[string]float64{
			"setup_s":     median(setup.cpu),
			"cpu_s":       awserveCPU / float64(win.ok) * perRequests,
			"peak_rss_mb": peakRSSMB(ru),
			"ok_pct":      100 * float64(out.attempted-out.failed) / float64(out.attempted),
		}
		return out, nil
	}

	hot := o.workload == "serve_hot"
	rs, err := replay(set, shape, g, replayRequests(hot), hot)
	if err != nil {
		return nil, err
	}
	rec.add("in-process replay: %d warm-up + %d timed requests through Server.Mux().ServeHTTP; %d responses checked, %d problems",
		shape.warm, len(rs.handler), rs.checked, len(rs.problems))
	for _, p := range rs.problems {
		rec.add("CHECK FAILED (replay): %s", p)
	}
	if len(rs.problems) > 0 {
		out.correct = false
	}
	v := zeroLayers()
	hp50, _ := percentile(rs.handler, 0.50)
	hp99, _ := percentile(rs.handler, 0.99)
	handlerMean := mean(rs.handler) / 1e3
	path := rs.decode + rs.key
	if !rs.hits {
		path += rs.compute + rs.encode
	}
	v["serve.decode_us"] = rs.decode
	v["serve.key_us"] = rs.key
	v["serve.encode_us"] = rs.encode
	v["serve.compute_us"] = rs.compute
	v["serve.handler_p50_us"] = float64(hp50) / 1e3
	v["serve.handler_p99_us"] = float64(hp99) / 1e3
	v["serve.self_us"] = handlerMean - path
	v["serve.allocs_per_req"] = rs.allocsPerReq
	v["serve.bytes_per_req"] = rs.bytesPerReq
	v["serve.cache_hit_ratio"] = sm.hitRatio
	v["serve.evictions_per_req"] = sm.evictionsPerReq
	v["serve.batch_mean"] = sm.batchMean
	v["serve.rejected"] = sm.rejected
	v["awserve.cpu_us_per_req"] = awserveCPU / float64(win.ok) * 1e6
	v["loadgen.cpu_us_per_req"] = loadgenCPU / float64(win.sent) * 1e6
	v["serve.server_mean_us"] = sm.serverMeanUS
	v["http.overhead_us"] = w.mean - sm.serverMeanUS
	v["client.p50_us"] = w.p50
	v["client.p99_us"] = w.p99
	v["runtime.gc_cpu_s"] = rs.gcCPU
	v["runtime.gc_cycles"] = float64(rs.gcCycles)
	layers := v["http.overhead_us"] + handlerMean
	v["trace.coverage_pct"] = 100 * layers / w.mean
	v["trace.overhead_pct"] = 100 * 2 * rs.clockReadNS / (handlerMean * 1e3)

	rec.add("accounting (client mean latency | layers under it | unattributed):")
	rec.add("  %.1f us | http %.1f + in-process handler %.1f (decode %.2f + key %.2f%s + self %.2f) = %.1f | %+.1f us (real server in-handler %.1f us)",
		w.mean, v["http.overhead_us"], handlerMean, rs.decode, rs.key, missPart(rs), v["serve.self_us"],
		layers, w.mean-layers, sm.serverMeanUS)
	rec.add("  tracing: each handler call is bracketed by two clock reads of %.1f ns: overhead %.3f%% of the handler time",
		rs.clockReadNS, v["trace.overhead_pct"])
	out.values = v
	return out, nil
}

// replayRequests is how many requests the in-process replay times.
func replayRequests(hot bool) int {
	if hot {
		return 40000
	}
	return 20000
}

func missPart(rs *replayStats) string {
	if rs.hits {
		return ""
	}
	return fmt.Sprintf(" + compute %.2f + encode %.2f", rs.compute, rs.encode)
}

func evictionsByModel(m promText, set *zoo.Set) string {
	var b bytes.Buffer
	for i, e := range set.Entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.0f", e.Name, m.sum("aw_serve_cache_events_total",
			map[string]string{"model": e.Name, "result": "eviction"}))
	}
	return b.String()
}

// serveWindow summarises a timed window from the client's side.
type serveWindow struct {
	rate, sliceRate float64 // completed 200s per second: whole window, median slice
	slices          []float64
	p50, p99, mean  float64 // microseconds
	beyond99        int
}

// sliceLen is the throughput slice; the median slice rate resists the odd
// stall of a shared machine better than the whole-window rate.
const sliceLen = time.Second

func summarise(p *phaseStats) serveWindow {
	var w serveWindow
	w.rate = float64(p.ok) / p.elapsed.Seconds()
	// Only whole slices count; a window shorter than one slice falls back
	// to the whole-window rate.
	n := int(p.elapsed / sliceLen)
	w.slices = make([]float64, n)
	for _, end := range p.okEnds {
		if s := int(end / int64(sliceLen)); s < n {
			w.slices[s]++
		}
	}
	w.sliceRate = w.rate
	if n > 0 {
		w.sliceRate = median(w.slices) / sliceLen.Seconds()
	}
	slices.Sort(p.lat)
	p50, _ := percentile(p.lat, 0.50)
	p99, beyond := percentile(p.lat, 0.99)
	w.p50, w.p99, w.beyond99 = float64(p50)/1e3, float64(p99)/1e3, beyond
	w.mean = mean(p.lat) / 1e3
	return w
}

// serveMetrics are the window's server-side figures from /metrics deltas.
type serveMetrics struct {
	hitRatio, evictionsPerReq, batchMean, rejected, serverMeanUS float64
}

func serverMetrics(m0, m1 promText, win *phaseStats) serveMetrics {
	d := func(name string, match map[string]string) float64 { return promDelta(m0, m1, name, match) }
	hits := d("aw_serve_cache_events_total", map[string]string{"result": "hit"})
	misses := d("aw_serve_cache_events_total", map[string]string{"result": "miss"})
	var sm serveMetrics
	if hits+misses > 0 {
		sm.hitRatio = hits / (hits + misses)
	}
	sm.evictionsPerReq = d("aw_serve_cache_events_total", map[string]string{"result": "eviction"}) / float64(win.sent)
	if n := d("aw_serve_batch_size_count", nil); n > 0 {
		sm.batchMean = d("aw_serve_batch_size_sum", nil) / n
	}
	sm.rejected = d("aw_serve_rejected_total", nil)
	var sum, count float64
	for _, route := range []string{"estimate", "sweep"} {
		sum += d("aw_serve_request_seconds_sum", map[string]string{"route": route})
		count += d("aw_serve_request_seconds_count", map[string]string{"route": route})
	}
	if count > 0 {
		sm.serverMeanUS = sum / count * 1e6
	}
	return sm
}

// checkSamples compares sampled responses with the single-shot reference
// and digests them in request order.
func checkSamples(samples []sample) (bad int, digest string) {
	slices.SortFunc(samples, func(a, b sample) int { return int(a.i - b.i) })
	h := sha256.New()
	for _, s := range samples {
		want, err := expected(s.req)
		if s.code != http.StatusOK || err != nil || !bytes.Equal(s.resp, want) {
			bad++
		}
		_ = binary.Write(h, binary.LittleEndian, s.i)
		h.Write(s.resp)
	}
	return bad, hex.EncodeToString(h.Sum(nil)[:8])
}

// server is one awserve process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	logs    bytes.Buffer // awserve's standard error, read only after exit
	exited  chan struct{}
	waitErr error
	http    *http.Client
}

// startServer execs awserve on a free loopback port and returns once
// /readyz answers 200, with the time that took.
func startServer(ctx context.Context, bin, manifest string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &server{
		addr:   fmt.Sprintf("127.0.0.1:%d", port),
		exited: make(chan struct{}),
		http:   &http.Client{Timeout: 10 * time.Second},
	}
	s.cmd = exec.CommandContext(ctx, bin, "-addr", s.addr, "-models", manifest)
	s.cmd.Stderr = &s.logs
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	for {
		resp, err := probe.Get("http://" + s.addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("awserve exited before it was ready: %v\n%s", s.waitErr, s.logs.String())
		case <-ctx.Done():
			s.kill()
			return nil, 0, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("awserve was not ready after 30 s")
		}
	}
}

// metrics reads and parses /metrics.
func (s *server) metrics() (promText, error) {
	resp, err := s.http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return parseProm(string(body))
}

// stop drains awserve with SIGTERM, waits for it to exit and returns its
// resource usage. awserve installs its SIGTERM handler just after it starts
// listening, so a set-up process stopped the moment it is ready may die of
// the signal itself rather than drain; both are a clean stop.
func (s *server) stop() (*syscall.Rusage, error) {
	s.http.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	<-s.exited
	ws, _ := s.cmd.ProcessState.Sys().(syscall.WaitStatus)
	if s.waitErr != nil && !(ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
		return nil, fmt.Errorf("awserve: %v\n%s", s.waitErr, s.logs.String())
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("awserve: no resource usage")
	}
	return ru, nil
}

// kill ends awserve if it is still running and waits for it.
func (s *server) kill() {
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// loadGen is the closed-loop client: each connection sends its next request
// only after the previous response has been read to the end.
type loadGen struct {
	addr   string
	sample func(i uint64) bool
	conns  []*clientConn
}

// sample is one kept request/response pair.
type sample struct {
	i    uint64
	req  request
	code int
	resp []byte
}

// phaseStats is what one load phase did.
type phaseStats struct {
	sent, ok, failed int64
	elapsed          time.Duration
	lat              []int64 // ns, every completed request
	okEnds           []int64 // ns after the phase started, per 200
	samples          []sample
}

// run drives requests [first, first+count) — or, with count 0, from first
// until the deadline — over conns connections, and waits for every
// in-flight request to complete.
func (lg *loadGen) run(ctx context.Context, req func(uint64) request, first, count uint64,
	deadline time.Time, conns int) (*phaseStats, error) {
	for len(lg.conns) < conns {
		lg.conns = append(lg.conns, &clientConn{addr: lg.addr})
	}
	var next atomic.Uint64
	next.Store(first)
	parts := make([]phaseStats, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(cc *clientConn, ps *phaseStats) {
			defer wg.Done()
			for ctx.Err() == nil {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				i := next.Add(1) - 1
				if count > 0 && i >= first+count {
					return
				}
				r := req(i)
				t := time.Now()
				code, body, err := cc.post(r.path, r.body)
				end := time.Now()
				ps.sent++
				ps.lat = append(ps.lat, int64(end.Sub(t)))
				if err != nil || code != http.StatusOK {
					ps.failed++
				} else {
					ps.ok++
					ps.okEnds = append(ps.okEnds, int64(end.Sub(start)))
				}
				if lg.sample(i) && len(ps.samples) < maxSamples/conns {
					ps.samples = append(ps.samples, sample{i: i, req: r, code: code, resp: bytes.Clone(body)})
				}
			}
		}(lg.conns[c], &parts[c])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &phaseStats{elapsed: time.Since(start)}
	for _, p := range parts {
		out.sent += p.sent
		out.ok += p.ok
		out.failed += p.failed
		out.lat = append(out.lat, p.lat...)
		out.okEnds = append(out.okEnds, p.okEnds...)
		out.samples = append(out.samples, p.samples...)
	}
	return out, nil
}

func (lg *loadGen) close() {
	for _, cc := range lg.conns {
		cc.reset()
	}
}

// clientConn is one keep-alive HTTP/1.1 connection. Requests are written
// raw; responses are parsed by net/http and drained into a reused buffer.
type clientConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	body bytes.Buffer
}

func (cc *clientConn) post(path string, body []byte) (int, []byte, error) {
	if cc.c == nil {
		c, err := net.Dial("tcp", cc.addr)
		if err != nil {
			return 0, nil, err
		}
		cc.c, cc.br = c, bufio.NewReader(c)
	}
	cc.out = fmt.Appendf(cc.out[:0],
		"POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, cc.addr, len(body))
	cc.out = append(cc.out, body...)
	if _, err := cc.c.Write(cc.out); err != nil {
		cc.reset()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(cc.br, nil)
	if err != nil {
		cc.reset()
		return 0, nil, err
	}
	cc.body.Reset()
	_, err = cc.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		cc.reset()
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, cc.body.Bytes(), nil
}

func (cc *clientConn) reset() {
	if cc.c != nil {
		cc.c.Close()
		cc.c, cc.br = nil, nil
	}
}
