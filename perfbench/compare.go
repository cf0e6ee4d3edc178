package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// benchFileName is the benchmark definition, at the root of the checkout.
const benchFileName = "BENCHMARK.json"

// benchFile is the part of BENCHMARK.json the comparator and the toy check
// read.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBench(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles returns the quartiles as Python's statistics.quantiles(xs, n=4)
// computes them (the default exclusive method): the rank is clamped to
// [1, n-1] before the interpolation weight is taken from it, so on small
// sets the outer quartiles extrapolate beyond the extreme runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// loadSet reads a set of runs: every *.jsonl file in dir holds the result
// lines of one workload, named by the file.
func loadSet(dir string) (map[string][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.jsonl files", dir)
	}
	out := map[string][]result{}
	for _, f := range files {
		wl := strings.TrimSuffix(filepath.Base(f), ".jsonl")
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			out[wl] = append(out[wl], r)
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verdict compares set B against set A on one metric. A change counts as
// better only when it exceeds both sets' own spreads, as worse only when it
// exceeds the bound; a spread wider than the bound leaves it unresolved
// unless every run of one side beats every run of the other.
func verdict(a, b []float64, better string, bound float64) string {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	gain := sign * (bm - am) / am
	spreadA := (a3 - a1) / math.Abs(am)
	spreadB := (b3 - b1) / math.Abs(bm)
	if math.Max(spreadA, spreadB) > bound {
		switch {
		case beatsAll(b, a, sign):
			return "better"
		case beatsAll(a, b, sign):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > math.Max(spreadA, spreadB):
		return "better"
	}
	return "unchanged"
}

// beatsAll reports whether every x is better than every y.
func beatsAll(xs, ys []float64, sign float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if sign*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare SET_A SET_B")
		fmt.Fprintln(os.Stderr, "Each set is a directory of <workload>.jsonl files holding the last line of each run.")
		return 2
	}
	bf, err := readBench(benchFileName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	sa, err := loadSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	sb, err := loadSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	type spec struct {
		unit, better string
		bound        float64
	}
	specs := map[string]spec{}
	var names []string
	for _, m := range bf.EndToEnd {
		specs[m.Name] = spec{m.Unit, m.Better, m.Bound}
		names = append(names, m.Name)
	}
	for _, m := range bf.PerLayer {
		specs[m.Name] = spec{m.Unit, m.Better, -1}
		names = append(names, m.Name)
	}
	var wls []string
	for wl := range sa {
		if _, ok := sb[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	for _, wl := range wls {
		ra, rb := sa[wl], sb[wl]
		fmt.Printf("== %s: %d runs vs %d runs; failed share %s vs %s\n", wl, len(ra), len(rb), failedShare(ra), failedShare(rb))
		fmt.Printf("%-26s %-6s %12s %12s %12s %12s %12s %12s %8s  %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "verdict")
		for _, name := range names {
			var va, vb []float64
			for _, r := range ra {
				if m, ok := r.Metrics[name]; ok {
					va = append(va, m.Value)
				}
			}
			for _, r := range rb {
				if m, ok := r.Metrics[name]; ok {
					vb = append(vb, m.Value)
				}
			}
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sp := specs[name]
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			v := "-"
			if sp.bound >= 0 {
				v = verdict(va, vb, sp.better, sp.bound)
			}
			fmt.Printf("%-26s %-6s %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g %+7.1f%%  %s\n",
				name, sp.unit, a1, am, a3, b1, bm, b3, 100*(bm-am)/math.Abs(am), v)
		}
	}
	return 0
}

func failedShare(rs []result) string {
	var a, f int
	for _, r := range rs {
		a += r.Attempted
		f += r.Failed
	}
	return fmt.Sprintf("%d/%d", f, a)
}

// toyMain runs every workload at toy scale, untraced and traced, and checks
// that each run is correct and reports exactly the metrics BENCHMARK.json
// names, so the schema cannot rot unnoticed.
func toyMain() int {
	bf, err := readBench(benchFileName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench toy:", err)
		return 1
	}
	var errs []error
	for _, wl := range bf.Workloads {
		w, ok := findWorkload(wl.Name, true)
		if !ok {
			errs = append(errs, fmt.Errorf("BENCHMARK.json names unknown workload %q", wl.Name))
			continue
		}
		w.spec.ShapeSeed = 1
		for _, traced := range []bool{false, true} {
			res, err := run(w, 1, time.Second, traced, 0)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s (traced %v): %w", wl.Name, traced, err))
				continue
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					errs = append(errs, fmt.Errorf("%s (traced %v): metric %s missing or not in %s", wl.Name, traced, name, unit))
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					errs = append(errs, fmt.Errorf("%s (traced %v): metric %s not in BENCHMARK.json", wl.Name, traced, name))
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				errs = append(errs, fmt.Errorf("%s (traced %v): correct=%v failed=%d attempted=%d",
					wl.Name, traced, res.Correct, res.Failed, res.Attempted))
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench toy: FAILED\n"+err.Error())
		return 1
	}
	fmt.Println("perfbench toy: all workloads ran correct at toy scale and match BENCHMARK.json")
	return 0
}
