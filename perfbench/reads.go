package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pinpoint/internal/ipmap"
	"pinpoint/internal/serve"
)

// Read classes: a revalidating poller of the two list endpoints, a
// drill-down into one day's delay alarms, one AS's magnitude series, and
// the status page. No usage figures of a deployed health report say how
// often each is requested, so every class's latency is reported on its own
// rather than as one figure that would hinge on assumed shares.
const (
	classPoll = iota
	classDrill
	classMag
	classStatus
	numClasses
)

var classNames = [numClasses]string{"poll", "drill", "mag", "status"}

// readStats collects read latencies and outcomes.
type readStats struct {
	lat       []float64 // us, all classes
	byClass   [numClasses][]float64
	attempted int
	failed    int
	lateMaxMS float64 // open loop: how late the generator started a request
}

func (s *readStats) merge(o readStats) {
	s.lat = append(s.lat, o.lat...)
	for i := range s.byClass {
		s.byClass[i] = append(s.byClass[i], o.byClass[i]...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	if o.lateMaxMS > s.lateMaxMS {
		s.lateMaxMS = o.lateMaxMS
	}
}

// request is request i of a run's reads: class i mod numClasses, with the
// rest a pure function of the shape seed and i, so every round and every
// run on the same network issues the same sequence (which days and ASes
// the reads drill into moves their tail). Magnitude requests name an AS of
// mag. The closed loop passes the ASes whose series the finished run
// holds: most ASes of the sidecar have none, and a class mixing empty and
// full answers would put its median between the two.
func (e *env) request(i int, mag []uint32) (class int, path string) {
	class = i % numClasses
	rng := rand.New(rand.NewPCG(e.w.spec.ShapeSeed, uint64(i)))
	switch class {
	case classPoll:
		if rng.IntN(2) == 0 {
			return class, "/api/events"
		}
		return class, "/api/alarms/delay"
	case classDrill:
		day := e.fx.truth.Start.Add(time.Duration(rng.IntN(e.fx.truth.Bins)) * time.Hour).Truncate(24 * time.Hour)
		return class, "/api/alarms/delay?limit=100&from=" + day.Format(time.RFC3339) +
			"&to=" + day.Add(24*time.Hour).Format(time.RFC3339)
	case classMag:
		return class, fmt.Sprintf("/api/magnitude?asn=%d", mag[rng.IntN(len(mag))])
	default:
		return class, "/api/status"
	}
}

// magnitudeASNs returns the ASes of the sidecar that have a magnitude
// series in snap, or all of them if none has.
func (e *env) magnitudeASNs(snap *serve.Snapshot) []uint32 {
	var out []uint32
	for _, asn := range e.asns {
		d, f := snap.Magnitude(ipmap.ASN(asn), snap.MagStart, snap.MagEnd)
		if len(d)+len(f) > 0 {
			out = append(out, asn)
		}
	}
	if len(out) == 0 {
		return e.asns
	}
	return out
}

// reader is one load-generator connection. It keeps the ETags a polling
// client would revalidate with.
type reader struct {
	c     *http.Client
	tr    *http.Transport
	etags map[string]string
	st    readStats
}

func newReader() *reader {
	tr := newTransport()
	return &reader{c: &http.Client{Transport: tr}, tr: tr, etags: map[string]string{}}
}

// do issues one request and records its latency from t0 (its due time in
// the open loop, its send time in the closed loop).
func (r *reader) do(base string, class int, path string, t0 time.Time) {
	r.st.attempted++
	if !r.fetch(base, class, path) {
		r.st.failed++
		return
	}
	us := float64(time.Since(t0)) / 1e3
	r.st.lat = append(r.st.lat, us)
	r.st.byClass[class] = append(r.st.byClass[class], us)
}

// prime fetches both list endpoints once, untimed, so a poller starts out
// holding their ETags as a client that has been polling for a while does.
func (r *reader) prime(base string) {
	for _, path := range []string{"/api/events", "/api/alarms/delay"} {
		r.st.attempted++
		if !r.fetch(base, classPoll, path) {
			r.st.failed++
		}
	}
}

// fetch sends one request, revalidating a poll with its last ETag, and
// reads the whole body. It reports whether the request succeeded.
func (r *reader) fetch(base string, class int, path string) bool {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return false
	}
	if class == classPoll {
		if tag, ok := r.etags[path]; ok {
			req.Header.Set("If-None-Match", tag)
		}
	}
	resp, err := r.c.Do(req)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
		return false
	}
	if class == classPoll {
		r.etags[path] = resp.Header.Get("ETag")
	}
	return true
}

// readConns is the load generator's connection count: one per core of
// the 2-core reference host, so readers never outnumber the cores.
const readConns = 2

// closedLoop issues perClass[c] requests of every class c over readConns
// connections, each sending its next request when the previous one
// completes. The classes run one after another, so one class's latency
// does not depend on what the others cost beside it; the pollers are
// primed first and revalidate from their first timed request on.
func closedLoop(e *env, base string, perClass [numClasses]int, mag []uint32) readStats {
	var out readStats
	for class := range numClasses {
		var next atomic.Int64
		rs := make([]*reader, readConns)
		var wg sync.WaitGroup
		for w := range rs {
			rs[w] = newReader()
			wg.Add(1)
			go func(r *reader) {
				defer wg.Done()
				if class == classPoll {
					r.prime(base)
				}
				for {
					k := int(next.Add(1)) - 1
					if k >= perClass[class] {
						return
					}
					_, path := e.request(k*numClasses+class, mag)
					r.do(base, class, path, time.Now())
				}
			}(rs[w])
		}
		wg.Wait()
		for _, r := range rs {
			r.tr.CloseIdleConnections()
			out.merge(r.st)
		}
	}
	return out
}

// startOpenLoop schedules requests at the workload's fixed rate from start
// over the planned span, on readConns connections, timing each from its due
// time. Its magnitude requests name any AS of the sidecar: which ASes have
// a series is known only once the run has finished. The returned function
// waits for the schedule to finish.
func startOpenLoop(e *env, base string, start time.Time, span time.Duration) func() readStats {
	n := int(span.Seconds() * e.w.liveReadRate)
	interval := time.Duration(float64(time.Second) / e.w.liveReadRate)
	var next atomic.Int64
	rs := make([]*reader, readConns)
	var wg sync.WaitGroup
	for w := range rs {
		rs[w] = newReader()
		wg.Add(1)
		go func(r *reader) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// A request whose connection freed up after its due time is
				// timed from the due time, so a stall counts against every
				// request it delays. One that waited for its due time is timed
				// from when the generator woke: Go's timers wake up to a
				// millisecond late, and that slack is the generator's, not the
				// program's.
				due := start.Add(time.Duration(i) * interval)
				t0 := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					t0 = time.Now()
				}
				if late := float64(time.Since(due)) / 1e6; late > r.st.lateMaxMS {
					r.st.lateMaxMS = late
				}
				class, path := e.request(i, e.asns)
				r.do(base, class, path, t0)
			}
		}(rs[w])
	}
	return func() readStats {
		wg.Wait()
		var out readStats
		for _, r := range rs {
			r.tr.CloseIdleConnections()
			out.merge(r.st)
		}
		return out
	}
}
