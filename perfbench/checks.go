package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"pinpoint/internal/ingest"
	"pinpoint/internal/serve"
)

// role is one server of the read API, queried in-process for the checks.
type role struct {
	name     string
	h        http.Handler
	noStatus bool // skip /api/status (a restarted writer before its replay)
}

func get(h http.Handler, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// checkPaths are the payloads every role must serve byte-identically.
func (e *env) checkPaths() []string {
	paths := []string{"/api/status", "/api/alarms/delay", "/api/alarms/forwarding", "/api/events"}
	for _, asn := range e.asns {
		paths = append(paths, fmt.Sprintf("/api/magnitude?asn=%d", asn))
	}
	return paths
}

// checks compares the roles against each other, the writer's payloads
// against the generator's ground truth and the method's properties, and
// returns every problem found.
func (e *env) checks(roles []role, st ingest.Stats) []string {
	var probs []string
	bad := func(format string, args ...any) {
		if len(probs) < 20 {
			probs = append(probs, fmt.Sprintf(format, args...))
		}
	}
	ref := roles[0]
	body := map[string][]byte{}
	for _, p := range e.checkPaths() {
		code, b := get(ref.h, p)
		if code != http.StatusOK {
			bad("%s %s: status %d", ref.name, p, code)
			continue
		}
		body[p] = b
		for _, r := range roles[1:] {
			if r.noStatus && p == "/api/status" {
				continue
			}
			if code, b2 := get(r.h, p); code != http.StatusOK || !bytes.Equal(b, b2) {
				bad("%s %s differs from %s (status %d, %d vs %d bytes)", r.name, p, ref.name, code, len(b2), len(b))
			}
		}
	}

	// The writer counted every line the generator wrote, and skipped none.
	var status struct {
		Results int  `json:"results"`
		Done    bool `json:"done"`
	}
	if err := json.Unmarshal(body["/api/status"], &status); err != nil {
		bad("status: %v", err)
	}
	if !status.Done || status.Results != e.fx.truth.Lines || st.Results != e.fx.truth.Lines || st.Skipped != 0 {
		bad("status: done=%v results=%d decoded=%d skipped=%d, generator wrote %d",
			status.Done, status.Results, st.Results, st.Skipped, e.fx.truth.Lines)
	}

	// The paper's properties of every alarm and event.
	var delays []serve.DelayAlarm
	var fwds []serve.FwdAlarm
	var evs []serve.Event
	for p, v := range map[string]any{"/api/alarms/delay": &delays, "/api/alarms/forwarding": &fwds, "/api/events": &evs} {
		if err := json.Unmarshal(body[p], v); err != nil {
			bad("%s: %v", p, err)
		}
	}
	for _, a := range delays {
		if !(a.Deviation > 0) || a.ShiftMS < 1 || a.ASes < 3 {
			bad("delay alarm %s @%s: deviation %g, shift %g ms, %d ASes", a.Link, a.Bin, a.Deviation, a.ShiftMS, a.ASes)
		}
	}
	for _, a := range fwds {
		if !(a.Rho < -0.25) {
			bad("forwarding alarm %s @%s: rho %g", a.Router, a.Bin, a.Rho)
		}
	}
	// Each AS's magnitude series, keyed by family and bin.
	type point struct {
		delay bool
		t     int64
	}
	series := map[string]map[point]float64{}
	for _, ev := range evs {
		if math.Abs(ev.Magnitude) < 10 || (ev.Type == "delay-change" && ev.Magnitude <= 0) {
			bad("event %s %s @%s: magnitude %g", ev.ASN, ev.Type, ev.Bin, ev.Magnitude)
			continue
		}
		pts, ok := series[ev.ASN]
		if !ok {
			var mag struct{ Delay, Forwarding []serve.Point }
			if err := json.Unmarshal(body["/api/magnitude?asn="+strings.TrimPrefix(ev.ASN, "AS")], &mag); err != nil {
				bad("event %s: magnitude series: %v", ev.ASN, err)
				continue
			}
			pts = map[point]float64{}
			for _, pt := range mag.Delay {
				pts[point{true, pt.T.UnixNano()}] = pt.V
			}
			for _, pt := range mag.Forwarding {
				pts[point{false, pt.T.UnixNano()}] = pt.V
			}
			series[ev.ASN] = pts
		}
		v, found := pts[point{ev.Type == "delay-change", ev.Bin.UnixNano()}]
		if !found || v != ev.Magnitude {
			bad("event %s %s @%s: magnitude %g not the series point", ev.ASN, ev.Type, ev.Bin, ev.Magnitude)
		}
	}

	// Ground truth: every disruption the method can see raised an alarm on
	// the disrupted link or next to it, inside its window.
	for _, d := range e.fx.truth.Disruptions {
		if visible(d) && !detected(d, delays, fwds) {
			bad("%s %s>%s [%s, %s) (diversity %d): no alarm", d.Kind, d.From, d.To,
				d.Start.Format(time.RFC3339), d.End.Format(time.RFC3339), d.Diversity)
		}
	}
	return probs
}

// visible is the criterion under which the method must see a disruption:
// see the README.
func visible(d disruption) bool {
	return d.Kind == "congestion" && d.ExtraMS >= 20 && d.Diversity >= 5
}

// detected reports whether an alarm inside d's window names one of the
// disrupted routers or a router next to them.
func detected(d disruption, delays []serve.DelayAlarm, fwds []serve.FwdAlarm) bool {
	near := map[string]bool{}
	for _, a := range d.Adjacent {
		near[a] = true
	}
	in := func(bin time.Time) bool { return !bin.Before(d.Start.Truncate(time.Hour)) && bin.Before(d.End) }
	for _, a := range delays {
		if !in(a.Bin) {
			continue
		}
		if i := strings.IndexByte(a.Link, '>'); i > 0 && (near[a.Link[:i]] || near[a.Link[i+1:]]) {
			return true
		}
	}
	for _, a := range fwds {
		if in(a.Bin) && (near[a.Router] || near[a.TopHop]) {
			return true
		}
	}
	return false
}
