package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/forwarding"
	"pinpoint/internal/ingest"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/segstore"
	"pinpoint/internal/serve"
	"pinpoint/internal/trace"
)

// httpServer is one serve.Server on a loopback listener.
type httpServer struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop releases the source's feed streams, then shuts the server down and
// waits for its serving goroutine.
func (s *httpServer) stop(src serve.Source) {
	src.CloseSubscribers()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// chain is one writer → follower pair wired as cmd/ihr wires them.
type chain struct {
	e     *env
	dir   string
	table *ipmap.Table
	probe func(int) (ipmap.ASN, bool)
	meta  serve.Meta

	a    *core.Analyzer
	st   *segstore.Store
	pub  *serve.Publisher
	wsrv *httpServer

	f       *serve.Follower
	fsrv    *httpServer
	ftr     *http.Transport
	fcancel context.CancelFunc
	fdone   chan error

	reconnects atomic.Int64
	feedBytes  atomic.Int64

	// Analyzer figures captured before Close (traced rounds).
	links, routers int
	dstats         delay.CloseStats
	fstats         forwarding.CloseStats

	setupS, metaS, openS, helloS float64
	setupCPU                     float64 // s of process CPU time over the set-up
}

// analyzerConfig is cmd/ihr's default (AutoWorkers) unless the run asked
// for a fixed engine worker count.
func (e *env) analyzerConfig() core.Config {
	if e.engineWorkers > 0 {
		return core.Config{Workers: e.engineWorkers}
	}
	return core.Config{Workers: core.AutoWorkers}
}

// openStore opens the writer's store, through the timing FS when traced.
func (e *env) openStore(dir string) (*segstore.Store, error) {
	if e.tr == nil {
		return segstore.Open(dir)
	}
	fsys, err := segstore.DirFS(dir)
	if err != nil {
		return nil, err
	}
	return segstore.OpenFS(&timedFS{inner: fsys, t: e.tr})
}

// startChain builds the writer from the sidecar and an empty store, serves
// it, and starts a follower tailing its feed. It returns once the follower
// has applied the hello; the set-up times cover exactly that span.
func startChain(e *env, dir string) (*chain, error) {
	c := &chain{e: e, dir: dir}
	sw := startWatch()
	t0 := sw.wall
	mf, err := os.Open(e.fx.meta)
	if err != nil {
		return nil, err
	}
	md, err := atlas.ReadMetadata(mf)
	mf.Close()
	if err != nil {
		return nil, fmt.Errorf("reading sidecar: %w", err)
	}
	if c.table, err = md.Table(); err != nil {
		return nil, fmt.Errorf("sidecar prefixes: %w", err)
	}
	c.probe = md.ProbeASN()
	t1 := time.Now()
	if c.st, err = e.openStore(dir); err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	t2 := time.Now()
	c.meta = serve.Meta{
		Case: e.w.name, Description: "perfbench " + e.w.name,
		Start: e.fx.truth.Start, End: e.fx.truth.End,
	}
	c.a = core.New(e.analyzerConfig(), c.probe, c.table)
	if c.pub, err = serve.NewPublisherWithStore(c.a, c.meta, c.st); err != nil {
		c.a.Close()
		c.st.Close()
		return nil, err
	}
	if e.tr != nil {
		e.tr.wrapBinClose(c.a)
	}
	if c.wsrv, err = listen(serve.NewServer(c.pub, serve.Options{}).Handler()); err != nil {
		c.a.Close()
		c.st.Close()
		return nil, err
	}
	c.ftr = newTransport()
	ft := &feedTransport{inner: c.ftr, hello: make(chan struct{})}
	if e.tr != nil {
		ft.n = &c.feedBytes
	}
	c.f, err = serve.NewFollower(serve.FollowerOptions{
		URL:    c.wsrv.url,
		Client: &http.Client{Transport: ft},
		Logf:   func(string, ...any) { c.reconnects.Add(1) },
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	ft.f = c.f
	fh := serve.NewServer(c.f, serve.Options{}).Handler()
	if e.tr != nil {
		fh = e.tr.timedHandler(fh)
	}
	if c.fsrv, err = listen(fh); err != nil {
		c.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.fcancel = cancel
	c.fdone = make(chan error, 1)
	go func() { c.fdone <- c.f.Run(ctx) }()
	t3 := time.Now()
	// Block until the feed transport sees the hello applied, so the wait
	// holds no P that the writer, follower and servers being timed need.
	select {
	case <-ft.hello:
	case err := <-c.fdone:
		c.fdone <- err
		c.stop()
		return nil, fmt.Errorf("follower stopped before the hello: %v", err)
	}
	end := time.Now()
	c.setupS, c.setupCPU = sw.elapsed()
	c.metaS, c.openS, c.helloS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), end.Sub(t3).Seconds()
	return c, nil
}

// stop tears the chain down and waits for every goroutine it started.
func (c *chain) stop() {
	if c.fcancel != nil {
		c.fcancel()
		<-c.fdone
	}
	if c.fsrv != nil {
		c.fsrv.stop(c.f)
	}
	if c.wsrv != nil {
		c.wsrv.stop(c.pub)
	}
	if c.ftr != nil {
		c.ftr.CloseIdleConnections()
	}
	c.a.Close()
	c.st.Close()
}

func newTransport() *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		DisableCompression:  true,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     30 * time.Second,
	}
}

// feedTransport is the follower's HTTP transport. It closes hello once the
// follower has applied a hello: the follower applies each event as soon as
// its blank line is scanned and only then reads on, so the first body read
// that finds the snapshot's bin size set comes right after the apply. When
// n is set it also counts response body bytes (the feed's size on the wire
// after HTTP framing is stripped).
type feedTransport struct {
	inner http.RoundTripper
	n     *atomic.Int64
	f     *serve.Follower // set before the follower runs
	hello chan struct{}
	once  sync.Once
}

func (t *feedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(r)
	if err == nil {
		resp.Body = &feedBody{ReadCloser: resp.Body, t: t}
	}
	return resp, err
}

type feedBody struct {
	io.ReadCloser
	t *feedTransport
}

func (b *feedBody) Read(p []byte) (int, error) {
	if b.t.f.Snapshot().BinSize != 0 {
		b.t.once.Do(func() { close(b.t.hello) })
	}
	n, err := b.ReadCloser.Read(p)
	if b.t.n != nil {
		b.t.n.Add(int64(n))
	}
	return n, err
}

// delivery is one delta as a Subscribe channel handed it over.
type delivery struct {
	seq uint64
	bin time.Time
	at  time.Time
}

// drain records every delta a subscription delivers until it closes.
func drain(sub *serve.Subscription, out *[]delivery, done chan<- struct{}) {
	for d := range sub.C {
		*out = append(*out, delivery{seq: d.Seq, bin: d.Bin, at: time.Now()})
	}
	close(done)
}

// ingestResult is what one replay of the dump measured.
type ingestResult struct {
	stats   ingest.Stats
	wall    time.Duration // first byte read → follower applied the terminal delta
	cpu     time.Duration // process CPU time over the same span
	fresh   []float64     // ms per closed bin
	batchMS []float64     // traced: release → batch delivery, per result
	lagMS   []float64     // traced: writer receipt → follower receipt, per seq
	deltas  int
	reads   readStats
}

// ingest replays the dump into the writer and waits for the follower to
// apply the terminal delta. On the paced workload an open-loop reader runs
// against the follower meanwhile.
func (c *chain) ingest() (*ingestResult, error) {
	e := c.e
	fx := e.fx
	res := &ingestResult{}
	var wd, fd []delivery
	wsub, fsub := c.pub.Subscribe(), c.f.Subscribe()
	wdone, fdoneSub := make(chan struct{}), make(chan struct{})
	go drain(wsub, &wd, wdone)
	go drain(fsub, &fd, fdoneSub)

	file, err := os.Open(fx.dump)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	rel := &releaseReader{}
	var pacer *pacedReader
	if e.w.paceRate > 0 {
		pacer = newPacedReader(file, fx, e.w.paceRate)
		rel.r = pacer
	} else {
		rel.r = file
	}

	tr := e.tr
	var rt0 runtimeSample
	if tr != nil {
		tr.resetCounters()
		rt0 = sampleRuntime()
	}
	var lines int
	var last time.Time
	var stopReads func() readStats
	sw := startWatch()
	start := sw.wall
	rel.start(start)
	if pacer != nil {
		pacer.start(start)
	}
	if e.w.liveReadRate > 0 {
		stopReads = startOpenLoop(e, c.fsrv.url, start, pacer.duration())
	}
	last = start
	fn := func(rs []trace.Result) error {
		now := time.Now()
		if tr != nil {
			tr.record("ingest.wait", last, now)
			for i := range rs {
				res.batchMS = append(res.batchMS, msSince(rel.releasedAt(fx.ends[lines+i]), now))
			}
		}
		var sp int32 = -1
		if tr != nil {
			sp = tr.begin("core.observe", 0, now)
		}
		c.a.ObserveBatch(rs)
		c.pub.ObserveResults(len(rs))
		lines += len(rs)
		last = time.Now()
		if tr != nil {
			tr.end(sp, last)
		}
		return nil
	}
	res.stats, err = ingest.Decode(context.Background(), rel, ingest.Options{}, fn)
	var sp int32 = -1
	if tr != nil {
		now := time.Now()
		tr.record("ingest.wait", last, now)
		sp = tr.begin("core.flush", 0, now)
	}
	c.a.Flush()
	if tr != nil {
		c.links, c.routers = c.a.LinksSeen(), c.a.RoutersSeen()
		c.dstats, c.fstats = c.a.BinCloseStats()
	}
	c.a.Close()
	c.pub.Finish(err)
	if tr != nil {
		tr.end(sp, time.Now())
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if ferr := <-c.fdone; ferr != nil {
		c.fdone <- ferr
		return nil, fmt.Errorf("follower: %w", ferr)
	}
	c.fdone <- nil
	res.wall, res.cpu = time.Since(start), processCPU()-sw.cpu
	if tr != nil {
		tr.rt = sampleRuntime().sub(rt0)
	}
	if stopReads != nil {
		res.reads = stopReads()
	}
	wsub.Cancel()
	<-fdoneSub
	<-wdone
	if len(fd) == 0 || fd[len(fd)-1].seq != c.f.Snapshot().Seq {
		return nil, errors.New("follower subscription missed deltas")
	}
	res.deltas = len(fd)

	// Freshness: the result that closes bin B is the first one timed at or
	// after B+bin; the moment the reader handed its bytes to the decoder
	// starts the clock. Paced, that is its due time plus the pacer's timer
	// slack; unpaced, it is when the decoder asked for them.
	binSize := c.f.Snapshot().BinSize
	for _, d := range fd {
		if d.bin.IsZero() {
			continue
		}
		closeAt := d.bin.Add(binSize).UnixNano()
		k := sort.Search(len(fx.times), func(i int) bool { return fx.times[i] >= closeAt })
		if k == len(fx.times) {
			continue
		}
		res.fresh = append(res.fresh, msSince(rel.releasedAt(fx.ends[k]), d.at))
	}
	if tr != nil {
		at := make(map[uint64]time.Time, len(wd))
		for _, d := range wd {
			at[d.seq] = d.at
		}
		for _, d := range fd {
			if w, ok := at[d.seq]; ok {
				res.lagMS = append(res.lagMS, msSince(w, d.at))
			}
		}
	}
	return res, nil
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }

// processCPU is the CPU time the process has used so far, user and system,
// over all its threads. The guest kernel leaves out the time the hypervisor
// stole from its vCPUs, which wall time on a shared host cannot.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch reads wall and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{cpu: processCPU(), wall: time.Now()} }

// elapsed returns the wall and CPU seconds since the watch started.
func (s stopwatch) elapsed() (wall, cpu float64) {
	w := time.Since(s.wall)
	return w.Seconds(), (processCPU() - s.cpu).Seconds()
}

// releaseReader records when each read handed bytes to the decoder, so a
// line's release time can be looked up by its end offset. The decoder's
// chunker reads while the analysis goroutine looks up delivered lines.
type releaseReader struct {
	r  io.Reader
	t0 time.Time

	mu   sync.Mutex
	offs []int64 // cumulative bytes after each read
	ats  []int64 // ns since t0 of each read's return
	off  int64
}

func (r *releaseReader) start(t0 time.Time) { r.t0 = t0 }

func (r *releaseReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if n > 0 {
		at := int64(time.Since(r.t0))
		r.mu.Lock()
		r.off += int64(n)
		r.offs = append(r.offs, r.off)
		r.ats = append(r.ats, at)
		r.mu.Unlock()
	}
	return n, err
}

// releasedAt returns when the byte just before end was handed out. Only
// valid for bytes already read, which holds for every delivered result.
func (r *releaseReader) releasedAt(end int64) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.offs), func(i int) bool { return r.offs[i] >= end })
	if i == len(r.offs) {
		i = len(r.offs) - 1
	}
	return r.t0.Add(time.Duration(r.ats[i]))
}

// pacedReader releases the dump's bytes in compressed time: line k becomes
// readable at t0 + (time_k − time_0)/speed, with speed chosen so the mean
// release rate is the workload's pace.
type pacedReader struct {
	f     io.Reader
	fx    *fixture
	t0    time.Time
	speed float64
	off   int64
	next  int // first line not yet due
}

func newPacedReader(f io.Reader, fx *fixture, rate float64) *pacedReader {
	span := float64(fx.times[len(fx.times)-1] - fx.times[0])
	wall := float64(len(fx.times)) / rate * 1e9
	return &pacedReader{f: f, fx: fx, speed: span / wall}
}

func (p *pacedReader) start(t0 time.Time) { p.t0 = t0 }

// duration is the planned wall time of the whole release.
func (p *pacedReader) duration() time.Duration {
	return p.due(len(p.fx.times) - 1).Sub(p.t0)
}

func (p *pacedReader) due(k int) time.Time {
	return p.t0.Add(time.Duration(float64(p.fx.times[k]-p.fx.times[0]) / p.speed))
}

func (p *pacedReader) Read(b []byte) (int, error) {
	ends := p.fx.ends
	if p.off >= ends[len(ends)-1] {
		return 0, io.EOF
	}
	now := time.Now()
	for p.next < len(ends) && !p.due(p.next).After(now) {
		p.next++
	}
	if p.next == 0 || p.off >= ends[p.next-1] {
		// Nothing due beyond what was handed out: wait for the next line.
		time.Sleep(time.Until(p.due(p.next)))
		p.next++
	}
	n := ends[p.next-1] - p.off
	if n > int64(len(b)) {
		n = int64(len(b))
	}
	m, err := io.ReadFull(p.f, b[:n])
	p.off += int64(m)
	return m, err
}

// catchUp joins a fresh follower to the finished writer and returns it once
// Run has applied the terminal delta, with the wall and CPU seconds that
// took.
func (c *chain) catchUp() (f *serve.Follower, wall, cpu float64, err error) {
	tr := newTransport()
	defer tr.CloseIdleConnections()
	sw := startWatch()
	f, err = serve.NewFollower(serve.FollowerOptions{URL: c.wsrv.url, Client: &http.Client{Transport: tr}})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := f.Run(context.Background()); err != nil {
		return nil, 0, 0, err
	}
	wall, cpu = sw.elapsed()
	if !f.Snapshot().Done {
		return nil, 0, 0, errors.New("catch-up follower ended before the terminal delta")
	}
	return f, wall, cpu, nil
}

// restarted is a writer reopened from the finished writer's store.
type restarted struct {
	a   *core.Analyzer
	st  *segstore.Store
	pub *serve.Publisher
	h   http.Handler

	openS, restoreS float64
}

// restart reopens the writer from its store and returns once the restored
// snapshot answers /api/status, with the wall and CPU seconds that took.
func (c *chain) restart() (r *restarted, wall, cpu float64, err error) {
	r = &restarted{}
	sw := startWatch()
	t0 := sw.wall
	if r.st, err = c.e.openStore(c.dir); err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	r.a = core.New(c.e.analyzerConfig(), c.probe, c.table)
	if r.pub, err = serve.NewPublisherWithStore(r.a, c.meta, r.st); err != nil {
		r.a.Close()
		r.st.Close()
		return nil, 0, 0, err
	}
	t2 := time.Now()
	r.h = serve.NewServer(r.pub, serve.Options{}).Handler()
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/status", nil))
	wall, cpu = sw.elapsed()
	if rec.Code != http.StatusOK {
		r.close()
		return nil, 0, 0, fmt.Errorf("restarted writer /api/status: %d", rec.Code)
	}
	r.openS, r.restoreS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	return r, wall, cpu, nil
}

// replay feeds the whole dump to the restarted writer as warmup and
// finishes the run, as cmd/ihr does after reopening a store.
func (r *restarted) replay(dump string) error {
	f, err := os.Open(dump)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = ingest.Decode(context.Background(), f, ingest.Options{}, func(rs []trace.Result) error {
		r.a.ObserveBatch(rs)
		r.pub.ObserveResults(len(rs))
		return nil
	})
	r.a.Flush()
	r.a.Close()
	r.pub.Finish(err)
	return err
}

func (r *restarted) close() {
	r.a.Close()
	r.st.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}
