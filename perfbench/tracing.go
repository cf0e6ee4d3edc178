package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/segstore"
)

// span is one timed call into a layer. Bin-close spans and the store I/O
// under them carry the closing bin as their shared id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	Bin    int64  `json:"bin,omitempty"`
	Round  int    `json:"round"`
}

// tracer keeps spans in memory for the traced rounds of a run. Spans are
// recorded around calls into the layers' public functions from outside.
type tracer struct {
	t0    time.Time
	round int

	mu    sync.Mutex
	spans []span
	cur   atomic.Int32 // innermost open span on the analysis goroutine

	// Store writes and syncs on the writer's files.
	writeNS, syncNS, syncs, writeBytes atomic.Int64
	closeNS, closes                    atomic.Int64 // publisher bin-close hook
	closeStoreNS                       atomic.Int64 // store I/O inside the hook
	readSrv                            [numClasses]sampleSet
	srvReval, srvNM, srvBytes          atomic.Int64
	rt                                 runtimeSample
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

// reset starts a traced round (spans are kept for the output).
func (t *tracer) reset(round int) {
	t.round = round
	t.resetCounters()
}

// resetCounters clears the per-phase counters; a round calls it again when
// ingest starts, so set-up store I/O is not counted as ingest.
func (t *tracer) resetCounters() {
	for _, c := range []*atomic.Int64{&t.writeNS, &t.syncNS, &t.syncs, &t.writeBytes,
		&t.closeNS, &t.closes, &t.closeStoreNS, &t.srvReval, &t.srvNM, &t.srvBytes} {
		c.Store(0)
	}
	for i := range t.readSrv {
		t.readSrv[i].reset()
	}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a span and makes it the analysis goroutine's current one.
func (t *tracer) begin(name string, bin int64, at time.Time) int32 {
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.ns(at), Parent: t.cur.Load(), Bin: bin, Round: t.round})
	t.mu.Unlock()
	t.cur.Store(i)
	return i
}

func (t *tracer) end(i int32, at time.Time) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = t.ns(at)
	p := t.spans[i].Parent
	t.mu.Unlock()
	t.cur.Store(p)
}

// record adds a closed span under the current one, sharing its bin id.
func (t *tracer) record(name string, from, to time.Time) {
	t.mu.Lock()
	sp := span{Name: name, Start: t.ns(from), End: t.ns(to), Parent: t.cur.Load(), Round: t.round}
	if sp.Parent >= 0 {
		sp.Bin = t.spans[sp.Parent].Bin
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// roundSum sums this round's spans of one name.
func (t *tracer) roundSum(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Round == t.round && s.Name == name {
			sum += s.End - s.Start
		}
	}
	return time.Duration(sum)
}

// wrapBinClose times the publisher's bin-close hook; the store I/O it
// performs shows up as child spans through timedFS.
func (t *tracer) wrapBinClose(a *core.Analyzer) {
	inner := a.OnBinClose
	a.OnBinClose = func(bin time.Time) {
		s0 := t.writeNS.Load() + t.syncNS.Load()
		t0 := time.Now()
		sp := t.begin("publish.close", bin.Unix(), t0)
		inner(bin)
		t1 := time.Now()
		t.end(sp, t1)
		t.closeNS.Add(int64(t1.Sub(t0)))
		t.closes.Add(1)
		t.closeStoreNS.Add(t.writeNS.Load() + t.syncNS.Load() - s0)
	}
}

// timedFS wraps the store's filesystem to time its writes and syncs. The
// wrapper hides the unexported mmap capability of the OS files, so traced
// store reads take the ReadAt path.
type timedFS struct {
	inner segstore.FS
	t     *tracer
}

func (f *timedFS) OpenFile(name string) (segstore.File, error) {
	file, err := f.inner.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, t: f.t}, nil
}

type timedFile struct {
	segstore.File
	t *tracer
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	t1 := time.Now()
	f.t.record("segstore.write", t0, t1)
	f.t.writeNS.Add(int64(t1.Sub(t0)))
	f.t.writeBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	t1 := time.Now()
	f.t.record("segstore.sync", t0, t1)
	f.t.syncNS.Add(int64(t1.Sub(t0)))
	f.t.syncs.Add(1)
	return err
}

// sampleSet is a mutex-guarded sample list.
type sampleSet struct {
	mu sync.Mutex
	v  []float64
}

func (s *sampleSet) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *sampleSet) reset() {
	s.mu.Lock()
	s.v = nil
	s.mu.Unlock()
}

func (s *sampleSet) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// classify maps a read request to its class; -1 for anything else
// (the feed stream).
func classify(r *http.Request) int {
	switch r.URL.Path {
	case "/api/status":
		return classStatus
	case "/api/magnitude":
		return classMag
	case "/api/events", "/api/alarms/delay":
		if r.URL.RawQuery == "" {
			return classPoll
		}
		return classDrill
	}
	return -1
}

// timedHandler times the follower's handler per read class.
func (t *tracer) timedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := classify(r)
		if class < 0 {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		t.readSrv[class].add(float64(time.Since(t0)) / 1e3)
		t.srvBytes.Add(cw.n)
		if r.Header.Get("If-None-Match") != "" {
			t.srvReval.Add(1)
			if cw.code == http.StatusNotModified {
				t.srvNM.Add(1)
			}
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	code int
	n    int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// runtimeSample is a snapshot of the runtime counters the runtime layer
// reports as deltas over the ingest phase.
type runtimeSample struct{ gcCPU, cycles, allocBytes float64 }

var runtimeNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes"}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), cycles: v(1), allocBytes: v(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.cycles - b.cycles, a.allocBytes - b.allocBytes}
}

// liveHeapAfterGC collects twice (the second pass drops what sync.Pool
// victim caches kept alive) and returns the heap the collector marked live.
func liveHeapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	return writeFile(path, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// printSelfTimes writes the per-layer self time and count table: a span's
// self time is its duration minus the part its children cover.
func (t *tracer) printSelfTimes(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]int64{}
	count := map[string]int{}
	for _, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += d
		count[s.Name]++
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-18s %12s %9s\n", "span", "self_s", "count")
	fmt.Fprintln(w, strings.Repeat("-", 41))
	for _, n := range names {
		fmt.Fprintf(w, "%-18s %12.4f %9d\n", n, float64(self[n])/1e9, count[n])
	}
}

// writeSpansFile writes the spans under dir and logs where.
func (t *tracer) writeSpansFile(dir, name string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		return
	}
	path := dir + "/" + name
	if err := t.writeSpans(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
}
