// Command perfbench is the repository's end-to-end benchmark. It replays a
// seeded traceroute dump through the same chain cmd/ihr runs — sidecar
// metadata, core.Analyzer with AutoWorkers, ingest.Decode with its default
// decode workers, serve.Publisher on a segstore.Store, serve.Server on a
// loopback listener, and a serve.Follower tailing /api/stream — and reads
// the follower over loopback HTTP while or after it ingests.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload backfill --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare setA setB
//	bash perfbench/run.sh toy
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics untraced, the per-layer ones
// with --trace 1). See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pinpoint/internal/atlas"
)

// env is one run's fixed context.
type env struct {
	w    workload
	fx   *fixture
	asns []uint32 // every AS the sidecar's prefixes name, ascending
	tr   *tracer  // non-nil during traced rounds
	work string   // scratch directory for stores

	engineWorkers int // 0: AutoWorkers, as cmd/ihr
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "toy":
			os.Exit(toyMain())
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: backfill, history or live")
	seed := fs.Uint64("seed", 1, "workload seed: measurement noise of the dump")
	shape := fs.Uint64("shape-seed", 1, "second seed: topology, disruption schedule and the ASes and days reads ask for")
	seconds := fs.Int("seconds", 30, "how long the run measures (whole rounds are run until it is over)")
	traced := fs.Int("trace", 0, "1: report the per-layer metrics from traced rounds")
	engine := fs.Int("engine-workers", 0, "analysis engine workers (0: AutoWorkers, as cmd/ihr; for reference figures only)")
	fs.Parse(os.Args[1:])

	// A run must end within three minutes whatever happens inside it.
	time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 175 s, aborting")
		os.Exit(3)
	})
	w, ok := findWorkload(*name, false)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	w.spec.ShapeSeed = *shape
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func findWorkload(name string, toy bool) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			if toy {
				w = w.toy()
			}
			return w, true
		}
	}
	return workload{}, false
}

// buildDir holds everything a run leaves behind, under the checkout it
// runs from.
const buildDir = ".bench_build"

// run generates (or reuses) the fixture, then runs whole rounds until the
// measuring time is over and summarizes them.
func run(w workload, seed uint64, seconds time.Duration, traced bool, engineWorkers int) (*result, error) {
	t0 := time.Now()
	fx, err := loadOrGenerate(filepath.Join(buildDir, "fixtures"), w.name, w.spec, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s (fixture ready in %.1fs)\n", w.name, seed, fx.describe(), time.Since(t0).Seconds())
	e := &env{w: w, fx: fx, work: filepath.Join(buildDir, "work", fmt.Sprint(os.Getpid())), engineWorkers: engineWorkers}
	if e.asns, err = sidecarASNs(fx.meta); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)

	var rounds []*round
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	for i := 0; ; i++ {
		// Traced runs alternate untraced and traced rounds, so the tracing
		// overhead is measured inside the run.
		e.tr = nil
		if traced && i%2 == 1 {
			e.tr = tr
			tr.reset(i)
		}
		st0 := readSteal()
		r, err := e.runRound(i)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		r.steal = readSteal().since(st0)
		fmt.Fprintf(os.Stderr, "perfbench: round %d (traced %v): %.0f results/s, setup %.2f ms, catch-up %.2f ms, restart %.2f ms, heap %.2f MB, steal %.1f%%\n",
			i, r.traced, r.rps, 1e3*median(r.setup), 1e3*median(r.catchup), 1e3*median(r.restart), r.heapMB, r.steal)
		fmt.Fprintf(os.Stderr, "perfbench:   process CPU: %.0f results/s, setup %.2f ms, catch-up %.2f ms, restart %.2f ms\n",
			r.cpuRPS, 1e3*median(r.setupCPU), 1e3*median(r.catchCPU), 1e3*median(r.restCPU))
		fmt.Fprintf(os.Stderr, "perfbench:   phases: %s\n", r.phases)
		logReads("closed-loop reads", r.reads)
		if len(r.liveReads.lat) > 0 {
			logReads("open-loop reads during ingest", r.liveReads)
			fmt.Fprintf(os.Stderr, "perfbench:     p50 %.0f us, p99 %.0f us, generator late by up to %.1f ms\n",
				quantile(r.liveReads.lat, 0.5), quantile(r.liveReads.lat, 0.99), r.liveReads.lateMaxMS)
		}
		for _, p := range r.probs {
			fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
		}
		if time.Since(start) >= seconds && (!traced || i >= 1) {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds in %.1fs\n", len(rounds), time.Since(start).Seconds())
	res := summarize(rounds, traced)
	if traced {
		tr.printSelfTimes(os.Stderr)
		tr.writeSpansFile(filepath.Join(buildDir, "traces"), fmt.Sprintf("%s-s%d.spans.jsonl", w.name, seed))
	}
	printMetrics(res)
	return res, nil
}

func sidecarASNs(path string) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	md, err := atlas.ReadMetadata(f)
	if err != nil {
		return nil, err
	}
	seen := map[uint32]bool{}
	var out []uint32
	for _, p := range md.Prefixes {
		if !seen[p.ASN] {
			seen[p.ASN] = true
			out = append(out, p.ASN)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// cpuTicks is the machine-wide CPU time and the part of it the hypervisor
// stole, from /proc/stat; zero where that file is not readable.
type cpuTicks struct{ total, steal float64 }

func readSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		var v float64
		fmt.Sscan(f, &v)
		if i < 8 { // user .. steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the stolen share of CPU time since t0, in percent.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return 100 * (t.steal - t0.steal) / (t.total - t0.total)
}

// logReads writes one read phase's per-class latencies to standard error.
func logReads(what string, st readStats) {
	var parts []string
	for c, name := range classNames {
		if v := st.byClass[c]; len(v) > 0 {
			parts = append(parts, fmt.Sprintf("%s n=%d p50=%.0f p90=%.0f p99=%.0f", name, len(v), quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99)))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench:   %s (us): %s\n", what, join(parts))
}

// printMetrics writes the metrics table to standard error.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-26s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d (GOMAXPROCS %d)\n",
		res.Correct, res.Attempted, res.Failed, runtime.GOMAXPROCS(0))
}

// quantile is the linear-interpolation quantile of xs (0 ≤ q ≤ 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func join(xs []string) string { return strings.Join(xs, ", ") }
