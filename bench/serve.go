package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mapit"
	"mapit/internal/serve"
)

// Serve workload constants.
const (
	serveSetups = 3                      // daemon start-ups per run; setup_s is the median
	maxLagMs    = 0.5                    // a step is valid when the generator's p99 lag stays under it
	minAchieved = 98.0                   // ... and it completes at least this % of the target rate
	missEvery   = 8                      // one lookup of an uninferred address per this many hits
	missBase    = mapit.Addr(0xc6120000) // 198.18.0.0/15, the benchmarking range
)

// runServe is serve-read, or with mixed serve-mixed. Untraced, lookups
// go over loopback to a mapitd child process; traced, the same server
// code runs in this process behind a handler that records spans.
func runServe(e *env, mixed bool) error {
	t0 := time.Now()
	w := world(e.sz)
	corpus := filepath.Join(e.work, "startup.bin")
	n, err := writeCorpus(corpus, w, traceConfig(e.seed+1, e.sz.serveDests))
	if err != nil {
		return err
	}
	if err := writeMeta(e.work, w, e.seed); err != nil {
		return err
	}
	var batches [][]byte
	var batchTraces int
	if mixed {
		steps := max(1, int(e.dur/e.sz.ingestEvery))
		for k := 0; k < steps; k++ {
			b, n, err := encodeCorpus(w, traceConfig(e.seed+100+int64(k), e.sz.ingestDests))
			if err != nil {
				return err
			}
			batches, batchTraces = append(batches, b), int(n)
		}
		e.fixture["ingest_batches"], e.fixture["ingest_batch_traces"] = int64(len(batches)), int64(batchTraces)
	}
	e.fixture["traces"], e.fixture["corpus_bytes"] = n, fileSize(corpus)
	cfg, err := loadConfig(e.work)
	if err != nil {
		return err
	}
	ref, err := reference(cfg, corpus, nil)
	if err != nil {
		return err
	}
	seq := lookupSequence(ref, e.seed)
	e.fixture["lookup_addrs"] = int64(len(seq))
	fmt.Fprintf(os.Stderr, "bench: %s fixtures: %d traces, %d lookups in %.1fs\n",
		e.workload, n, len(seq), time.Since(t0).Seconds())

	var tgt target
	if e.traced {
		tgt, err = startInProcess(e.tr, cfg, corpus)
	} else {
		tgt, err = startDaemons(e, corpus)
	}
	if err != nil {
		return err
	}
	g, err := newLoadgen(e, tgt.address(), seq, !mixed)
	if err != nil {
		_ = tgt.stop() // the dial error is the one to report
		return err
	}
	if mixed {
		err = g.mixedPhase(batches, batchTraces)
	} else {
		err = g.readPhase()
	}
	if err == nil {
		err = g.sample(cfg, corpus, batches[:g.ingested])
	}
	peak := tgt.peakMemMB()
	g.close()
	if serr := tgt.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	e.info.set("peak_rss_end_mb", peak, "MB", "peak resident set of mapitd over the whole run")
	return nil
}

// reference builds in process the snapshot mapitd serves after loading
// corpus and ingesting batches: the serve package's ingest options,
// inference and snapshot build.
func reference(cfg mapit.Config, corpus string, batches [][]byte) (*mapit.Snapshot, error) {
	ing := mapit.NewIngestor(mapit.IngestOptions{Workers: cfg.Workers, TrackMonitors: true})
	defer ing.Close()
	f, err := os.Open(corpus)
	if err != nil {
		return nil, err
	}
	_, err = ing.Ingest(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		if _, err := ing.Ingest(bytes.NewReader(b)); err != nil {
			return nil, err
		}
	}
	ev, err := ing.Finish()
	if err != nil {
		return nil, err
	}
	res, err := mapit.InferEvidence(ev, cfg)
	if err != nil {
		return nil, err
	}
	return mapit.BuildSnapshot(res, ev), nil
}

// lookup is one request of the read mix and the body the reference
// snapshot renders for it.
type lookup struct {
	addr mapit.Addr
	path string
	want []byte
}

// lookupSequence is the read mix: every address with an inference in a
// seeded order, plus one address with none after every missEvery hits.
func lookupSequence(snap *mapit.Snapshot, seed int64) []lookup {
	var hits []mapit.Addr
	for _, inf := range snap.HighConfidence() {
		hits = append(hits, inf.Addr)
	}
	seen := make(map[mapit.Addr]bool)
	var addrs []mapit.Addr
	for _, a := range hits {
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	var seq []lookup
	for i, a := range addrs {
		seq = append(seq, newLookup(snap, a))
		if (i+1)%missEvery == 0 {
			m := missBase + mapit.Addr(rng.Intn(1<<17))
			for snap.Lookup(m).Len() > 0 {
				m++
			}
			seq = append(seq, newLookup(snap, m))
		}
	}
	return seq
}

func newLookup(snap *mapit.Snapshot, a mapit.Addr) lookup {
	return lookup{addr: a, path: "/v1/lookup?addr=" + a.String(), want: lookupBody(snap, a)}
}

// lookupBody is what mapitd answers to a one-address /v1/lookup (and
// mapit -lookup prints) for a snapshot.
func lookupBody(snap *mapit.Snapshot, a mapit.Addr) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode([]serve.LookupRecord{serve.NewLookupRecord(snap, a)}) // into a bytes.Buffer
	return buf.Bytes()
}

// target is the server under load.
type target interface {
	address() string
	peakMemMB() float64
	stop() error
}

// daemon is a mapitd child process.
type daemon struct {
	cmd     *exec.Cmd
	listen  string
	log     *lineLog
	exited  chan struct{}
	waitErr error
}

// startDaemons starts mapitd serveSetups times, each time timing spawn
// to the first healthz that reports the startup corpus loaded, and keeps
// the last one running.
func startDaemons(e *env, corpus string) (*daemon, error) {
	args := []string{"-listen", "127.0.0.1:0", "-traces", corpus,
		"-rib", filepath.Join(e.work, "rib.txt"), "-orgs", filepath.Join(e.work, "orgs.txt"),
		"-rels", filepath.Join(e.work, "rels.txt"), "-ixp", filepath.Join(e.work, "ixp.txt")}
	var times, mem []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		d, err := startDaemon(e.mapitd, args)
		if err != nil {
			return nil, err
		}
		if err := waitReady(d.listen); err != nil {
			_ = d.stop() // the readiness error is the one to report
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		mem = append(mem, d.peakMemMB())
		if i == serveSetups-1 {
			e.e2e.set("setup_s", median(times), "s", fmt.Sprintf("median of %d mapitd starts to a ready healthz", serveSetups))
			e.e2e.set("peak_mem_mb", median(mem), "MB",
				fmt.Sprintf("peak resident set of mapitd with the startup corpus loaded, median of %d starts", serveSetups))
			return d, nil
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
}

func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	log := &lineLog{listen: make(chan string, 1)}
	cmd.Stderr = log
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mapitd: %w", err)
	}
	d := &daemon{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.listen = <-log.listen:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("mapitd exited before listening (%v): %s", d.waitErr, log.tail())
	case <-time.After(2 * time.Minute):
		_ = d.stop() // reported below
		return nil, fmt.Errorf("mapitd did not start listening within 2 minutes")
	}
}

func (d *daemon) address() string { return d.listen }

// peakMemMB reads the daemon's peak resident set size (VmHWM).
func (d *daemon) peakMemMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stop drains the daemon with SIGTERM, as a supervisor would, and waits
// for it to exit; it kills the daemon if the drain takes over 30 s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal mapitd: %w", err)
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("mapitd: %v: %s", d.waitErr, d.log.tail())
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // already exiting, or killed now
		<-d.exited
		return fmt.Errorf("mapitd did not drain within 30s")
	}
}

// lineLog is mapitd's stderr: it reports the listening address once and
// keeps the last lines for error messages.
type lineLog struct {
	mu     sync.Mutex
	buf    []byte // unprocessed partial line, then the tail
	lines  []string
	listen chan string // buffered 1; sent to once
	found  bool
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if addr, ok := strings.CutPrefix(line, "mapitd: listening on "); ok && !l.found {
			l.found = true
			l.listen <- addr
		}
		l.lines = append(l.lines, line)
		if len(l.lines) > 20 {
			l.lines = l.lines[1:]
		}
	}
	return len(p), nil
}

func (l *lineLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(append(l.lines, string(l.buf)), "\n")
}

// waitReady polls healthz until the server reports a published snapshot.
func waitReady(addr string) error {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if c, err := dial(addr); err == nil {
			status, _, body, err := c.do("GET", "/v1/healthz", 0, 0, nil)
			c.close()
			if err == nil && status == http.StatusOK && bytes.Contains(body, []byte(`"ready": true`)) {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("mapitd at %s not ready within a minute", addr)
}

// inProcess hosts serve.Server in this process on a loopback listener,
// with every request wrapped in a span. Used by traced runs only.
type inProcess struct {
	srv    *serve.Server
	hs     *http.Server
	ln     net.Listener
	served chan error
}

func startInProcess(tr *tracer, cfg mapit.Config, corpus string) (*inProcess, error) {
	srv, err := serve.NewServer(serve.Options{Config: cfg, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	f, err := os.Open(corpus)
	if err != nil {
		return nil, err
	}
	_, err = srv.Ingest(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inProcess{
		srv:    srv,
		hs:     &http.Server{Handler: traceHandler(tr, srv.Handler()), ReadHeaderTimeout: 10 * time.Second},
		ln:     ln,
		served: make(chan error, 1),
	}
	go func() { p.served <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *inProcess) address() string    { return p.ln.Addr().String() }
func (p *inProcess) peakMemMB() float64 { return 0 }

func (p *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	<-p.served
	if cerr := p.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// Request headers linking a server-side span to the client's round trip.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

// traceHandler records a serve.handler (or serve.ingest) span around
// every request that carries a round-trip span id.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		name := spanHandler
		if r.URL.Path == "/v1/ingest" {
			name = spanIngestRoute
		}
		tk := tr.open(name, parent, req, time.Now())
		h.ServeHTTP(w, r)
		tr.end(tk, nil)
	})
}

// conn is one keep-alive HTTP/1.1 client connection, written and parsed
// directly so the load generator runs no goroutines besides its workers.
type conn struct {
	addr string
	c    net.Conn
	bw   bytes.Buffer
	br   *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.c, c.br = nc, bufio.NewReader(nc)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads the whole response. span and req, when
// nonzero, go out as the headers traceHandler reads.
func (c *conn) do(method, path string, span, req int64, body []byte) (status int, etag string, respBody []byte, err error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return 0, "", nil, err
		}
	}
	c.bw.Reset()
	fmt.Fprintf(&c.bw, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if span != 0 {
		fmt.Fprintf(&c.bw, "%s: %d\r\n%s: %d\r\n", hdrSpan, span, hdrReq, req)
	}
	if body != nil {
		fmt.Fprintf(&c.bw, "Content-Type: application/octet-stream\r\nContent-Length: %d\r\n", len(body))
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(body)
	if _, err := c.c.Write(c.bw.Bytes()); err != nil {
		c.close()
		return 0, "", nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, "", nil, err
	}
	respBody, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, resp.Header.Get("ETag"), respBody, err
}

// loadgen is the open-loop load generator: two workers, one connection
// each, sharing one schedule of due times. A request's latency runs
// from its due time, so a stall also delays every request queued behind
// it; its lag is how late the generator sent it once a connection was
// free.
type loadgen struct {
	e        *env
	conns    [2]*conn
	seq      []lookup
	next     int    // position in seq of the next step's first request
	strict   bool   // every answer must be version 1, byte-equal to seq's
	version  uint64 // published version the daemon should be at
	ingested int    // ingest batches accepted so far
	req      int64  // last request id handed out
}

func newLoadgen(e *env, addr string, seq []lookup, strict bool) (*loadgen, error) {
	g := &loadgen{e: e, seq: seq, strict: strict, version: 1}
	for i := range g.conns {
		c, err := dial(addr)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns[i] = c
	}
	return g, nil
}

func (g *loadgen) close() {
	for _, c := range g.conns {
		if c != nil {
			c.close()
		}
	}
}

// loadStep is one fixed-rate stretch of load.
type loadStep struct {
	rate   float64
	dur    time.Duration
	ingest []byte // posted by worker 0 when the step starts (serve-mixed)
	unit   *unitSpan
}

// stepStats is what one step measured.
type stepStats struct {
	latMs    []float64 // per lookup, from due time to last response byte
	lagMs    []float64 // per lookup, from connection free (or due) to send
	achieved float64   // % of the target rate completed
	ingestS  float64   // POST sent → 200 received
}

// valid reports whether the generator kept up with a step: it completed
// at least minAchieved% of the target rate and, unless the step carried
// an ingest, sent on time (lagTail within maxLagMs). An ingest holds
// both cores by design, so the generator runs late behind it; latency
// counts from due time, so that lateness shows in the lookup
// percentiles rather than hiding from them.
func (s stepStats) valid(ingest bool) bool {
	return (ingest || s.lagTail() <= maxLagMs) && s.achieved >= minAchieved
}

// lagTail is the generator's p99 lag, or for a step too short to have
// ten sends beyond its p99, the highest percentile that has.
func (s stepStats) lagTail() float64 {
	p := min(99, 100*(1-10/float64(max(len(s.lagMs), 20))))
	return percentile(s.lagMs, p)
}

// preciseThread pins the calling goroutine to its thread and sets the
// thread's timer slack to 1 ns, so sleepUntil wakes within microseconds
// instead of Linux's default 50 µs slack. The caller must call
// runtime.UnlockOSThread when done: a goroutine that exits locked takes
// its thread down, and a thread that started the daemon takes the
// daemon with it (Pdeathsig).
func preciseThread() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort
}

// sleepUntil blocks the calling thread in nanosleep until t. time.Sleep
// would park the goroutine on the runtime's timer, whose idle wakeups
// are rounded up to whole milliseconds on Linux — too coarse for
// requests due every 125 µs.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (runtime preemption signals): sleep again
	}
}

// run plays one step and waits for every request in it to finish.
func (g *loadgen) run(st loadStep) stepStats {
	total := int(st.rate * st.dur.Seconds())
	interval := float64(time.Second) / st.rate
	traced := st.unit != nil && st.unit.traced
	base, reqBase := g.next, g.req
	g.next = (g.next + total) % len(g.seq)
	g.req += int64(total) + 1
	var (
		mu      sync.Mutex
		out     stepStats
		last    time.Time
		wg      sync.WaitGroup
		claimed atomic.Int64 // requests taken by a worker so far
	)
	start := time.Now()
	for w := range g.conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			preciseThread()
			defer runtime.UnlockOSThread()
			c := g.conns[w]
			free := start
			var lat, lag []float64
			if w == 0 && st.ingest != nil {
				out.ingestS = g.ingest(c, st, reqBase+int64(total)+1, traced)
				free = time.Now()
			}
			for {
				i := int(claimed.Add(1) - 1)
				if i >= total {
					break
				}
				due := start.Add(time.Duration(float64(i) * interval))
				ready := due
				if free.After(ready) {
					ready = free
				}
				sleepUntil(due)
				lk := g.seq[(base+i)%len(g.seq)]
				sent := time.Now()
				var rq, rt ticket
				if traced {
					id := reqBase + int64(i) + 1
					rq = g.e.tr.open(spanRequest, st.unit.id(), id, due)
					rt = g.e.tr.open(spanRoundTrip, rq.id, id, sent)
				}
				status, etag, body, err := c.do("GET", lk.path, rt.id, rt.req, nil)
				done := time.Now()
				free = done
				ok := g.checkLookup(lk, status, etag, body, err)
				lat = append(lat, float64(done.Sub(due))/1e6)
				lagMs := float64(sent.Sub(ready)) / 1e6
				lag = append(lag, lagMs)
				if traced {
					var rtAttrs, rqAttrs map[string]float64
					if !ok {
						rtAttrs = map[string]float64{attrNon2xx: 1}
					}
					if lagMs > maxLagMs {
						rqAttrs = map[string]float64{attrLate: 1}
					}
					g.e.tr.endAt(rt, done, rtAttrs)
					g.e.tr.endAt(rq, done, rqAttrs)
				}
			}
			mu.Lock()
			out.latMs = append(out.latMs, lat...)
			out.lagMs = append(out.lagMs, lag...)
			if free.After(last) {
				last = free
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := max(last.Sub(start), st.dur)
	out.achieved = 100 * float64(total) / elapsed.Seconds() / st.rate
	return out
}

// checkLookup counts one lookup as an operation: it must answer 200 and,
// on serve-read, carry version 1 and exactly the reference body.
func (g *loadgen) checkLookup(lk lookup, status int, etag string, body []byte, err error) bool {
	ok := err == nil && status == http.StatusOK
	if g.strict {
		ok = ok && etag == `"v1"` && bytes.Equal(body, lk.want)
	}
	return g.e.ops.check(ok, "lookup %s: status %d etag %s err %v", lk.path, status, etag, err)
}

// saturate runs both workers back to back, a closed loop, for dur and
// returns the lookups completed per second.
func (g *loadgen) saturate(dur time.Duration) float64 {
	base := g.next
	var claimed, done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lk := g.seq[(base+int(claimed.Add(1)-1))%len(g.seq)]
				status, etag, body, err := c.do("GET", lk.path, 0, 0, nil)
				g.checkLookup(lk, status, etag, body, err)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	g.next = (base + int(claimed.Load())) % len(g.seq)
	return float64(done.Load()) / time.Since(start).Seconds()
}

// ingest posts one batch and checks that the answer publishes the next
// version.
func (g *loadgen) ingest(c *conn, st loadStep, id int64, traced bool) float64 {
	var rq, rt ticket
	t0 := time.Now()
	if traced {
		rq = g.e.tr.open(spanRequest, st.unit.id(), id, t0)
		rt = g.e.tr.open(spanRoundTrip, rq.id, id, t0)
	}
	status, _, body, err := c.do("POST", "/v1/ingest", rt.id, rt.req, st.ingest)
	secs := time.Since(t0).Seconds()
	g.e.tr.end(rt, nil)
	g.e.tr.end(rq, nil)
	var sum serve.IngestSummary
	if err == nil {
		err = json.Unmarshal(body, &sum)
	}
	if g.e.ops.check(err == nil && status == http.StatusOK && sum.Version == g.version+1,
		"ingest: status %d version %d (want %d) err %v", status, sum.Version, g.version+1, err) {
		g.version = sum.Version
		g.ingested++
	}
	return secs
}

// steps plays a series of steps as units of work, tracing every second
// one in a traced run. In an untraced run it checks each step is valid
// load and pairs the step's operation time, op(step), with a
// calibration run.
func (g *loadgen) steps(n int, mk func(k int) loadStep, cost *costs, op func(stepStats) float64) ([]stepStats, error) {
	var out []stepStats
	for k := 0; k < n; k++ {
		st := mk(k)
		st.unit = g.e.tr.startUnit(int64(k+1), g.e.traced && k%2 == 1)
		s := g.run(st)
		attrs := map[string]float64{"loadgen.achieved_pct": s.achieved}
		g.e.tr.finishUnit(st.unit, op(s), attrs)
		if !g.e.traced {
			// A traced run hosts the server in this process, where its
			// ingests hold both Ps the generator needs; its lateness is
			// reported (loadgen.late_pct), not held against the run.
			g.e.ops.check(s.valid(st.ingest != nil), "%.0f/s step: generator lag p99 %.3f ms, %.1f%% of target rate",
				st.rate, s.lagTail(), s.achieved)
			if err := cost.add(op(s)); err != nil {
				return nil, err
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// lookupP50 is a step's median lookup latency from due time.
func lookupP50(s stepStats) float64 { return percentile(s.latMs, 50) }

// readPhase is serve-read: lookups at the reference rate in loadStep
// steps for seven tenths of the run, then, untraced, three closed-loop
// steps.
func (g *loadgen) readPhase() error {
	n := max(3, int(g.e.dur*7/10/g.e.sz.loadStep))
	ref := func(int) loadStep { return loadStep{rate: g.e.sz.refRate, dur: g.e.sz.loadStep} }
	var cost costs
	steps, err := g.steps(n, ref, &cost, lookupP50)
	if err != nil || g.e.traced {
		return err
	}
	cost.report(g.e, "lookup p50", false)
	p50, p99, count := g.stepPercentiles(steps)
	note := fmt.Sprintf("median over %d steps at %.0f/s, %d lookups each", n, g.e.sz.refRate, count)
	g.e.info.set("lookup_p50_ms", p50, "ms", "from due time, "+note)
	g.e.info.set("lookup_p99_ms", p99, "ms", "from due time, "+note)
	var rates []float64
	for k := 0; k < 3; k++ {
		rates = append(rates, g.saturate(g.e.sz.loadStep))
	}
	g.e.info.set("throughput_per_s", median(rates), "1/s", "closed-loop lookups per second on 2 connections, median of 3 steps")
	return nil
}

// mixedPhase is serve-mixed: lookups at the mixed rate, and every
// ingestEvery one ingest of a fresh batch.
func (g *loadgen) mixedPhase(batches [][]byte, batchTraces int) error {
	mk := func(k int) loadStep {
		return loadStep{rate: g.e.sz.mixedRate, dur: g.e.sz.ingestEvery, ingest: batches[k]}
	}
	var cost costs
	steps, err := g.steps(len(batches), mk, &cost, func(s stepStats) float64 { return 1000 * s.ingestS })
	if err != nil || g.e.traced {
		return err
	}
	cost.report(g.e, "ingest", true)
	note := fmt.Sprintf("mean of %d ingests of %d traces", len(cost.opMs), batchTraces)
	g.e.info.set("ingest_ms", mean(cost.opMs), "ms", "POST sent → 200 with the next version, "+note)
	g.e.info.set("throughput_per_s", float64(batchTraces)/(mean(cost.opMs)/1000), "1/s", "ingested traces per second, "+note)
	p50, p99, count := g.stepPercentiles(steps)
	note = fmt.Sprintf("median over %d steps at %.0f/s with one ingest each, %d lookups per step",
		len(steps), g.e.sz.mixedRate, count)
	g.e.info.set("lookup_p50_ms", p50, "ms", "from due time, "+note)
	g.e.info.set("lookup_p99_ms", p99, "ms", "from due time, "+note)
	return nil
}

// stepPercentiles is the median across steps of each step's lookup p50
// and p99, with the smallest step's sample count; it also prints the
// median step's generator lag tail.
func (g *loadgen) stepPercentiles(steps []stepStats) (p50, p99 float64, n int) {
	var p50s, p99s, lags []float64
	n = math.MaxInt
	for _, s := range steps {
		p50s = append(p50s, percentile(s.latMs, 50))
		p99s = append(p99s, percentile(s.latMs, 99))
		lags = append(lags, s.lagTail())
		n = min(n, len(s.latMs))
	}
	g.e.info.set("lag_p99_ms", median(lags), "ms", fmt.Sprintf("generator lag, median over %d steps", len(steps)))
	return median(p50s), median(p99s), n
}

// sample re-asks samples lookups after the timed phase and checks each
// body against the in-process reference for everything ingested.
func (g *loadgen) sample(cfg mapit.Config, corpus string, batches [][]byte) error {
	want := func(l lookup) []byte { return l.want }
	if len(batches) > 0 {
		snap, err := reference(cfg, corpus, batches)
		if err != nil {
			return err
		}
		want = func(l lookup) []byte { return lookupBody(snap, l.addr) }
	}
	etag := fmt.Sprintf(`"v%d"`, g.version)
	c := g.conns[0]
	for i := 0; i < g.e.sz.samples; i++ {
		l := g.seq[i*len(g.seq)/g.e.sz.samples]
		status, tag, body, err := c.do("GET", l.path, 0, 0, nil)
		g.e.ops.check(err == nil && status == http.StatusOK && tag == etag && bytes.Equal(body, want(l)),
			"sampled lookup %s: status %d etag %s (want %s) err %v", l.path, status, tag, etag, err)
	}
	return nil
}
