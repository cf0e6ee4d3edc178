package main

import "math"

// stealSlack is how many points of hypervisor steal above the run's
// least-stolen round a round may show and still count in the metrics.
const stealSlack = 5.0

// summarize turns a run's rounds into its result. Untraced runs report the
// end-to-end metrics: medians over rounds for per-round figures, medians
// over groups of rounds for percentiles. Traced runs report the per-layer
// metrics as medians over the traced rounds, the wall-clock chain figures
// of the untraced rounds, and the tracing overhead against the untraced
// rounds of the same run.
//
// Every round counts in correct, attempted and failed, but a round during
// which the hypervisor stole more than stealSlack points above the run's
// least-stolen round of its kind is left out of the metrics: on a shared
// host, steal comes in bursts that slow every phase of a round by as much
// as it takes.
func summarize(rounds []*round, traced bool) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setupCPU, catchCPU, restCPU, rps, cpuRPS, heap, store, tracedCPURPS []float64
	var fresh [][]float64
	var reads [numClasses][][]float64
	layers := map[string][]float64{}
	units := map[string]string{}
	// The least-stolen round of each kind (traced, untraced) always counts.
	minSteal := map[bool]float64{false: math.Inf(1), true: math.Inf(1)}
	for _, r := range rounds {
		minSteal[r.traced] = math.Min(minSteal[r.traced], r.steal)
	}
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if len(r.probs) > 0 {
			res.Correct = false
		}
		if r.steal > minSteal[r.traced]+stealSlack {
			continue
		}
		if r.traced {
			tracedCPURPS = append(tracedCPURPS, r.cpuRPS)
			for k, v := range r.layer {
				layers[k] = append(layers[k], v.Value)
				units[k] = v.Unit
			}
			continue
		}
		setupCPU = append(setupCPU, r.setupCPU...)
		fresh = append(fresh, r.fresh)
		catchCPU = append(catchCPU, r.catchCPU...)
		restCPU = append(restCPU, r.restCPU...)
		rps = append(rps, r.rps)
		cpuRPS = append(cpuRPS, r.cpuRPS)
		heap = append(heap, r.heapMB)
		store = append(store, r.storeMB)
		for c := range reads {
			reads[c] = append(reads[c], r.reads.byClass[c])
		}
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	if traced {
		for k, vs := range layers {
			set(k, units[k], median(vs))
		}
		set("ingest.results_per_s", "1/s", median(rps))
		set("freshness.p50_ms", "ms", groupedQuantile(fresh, 0.5))
		set("freshness.p90_ms", "ms", groupedQuantile(fresh, 0.9))
		set("trace.overhead_pct", "%", (median(cpuRPS)/median(tracedCPURPS)-1)*100)
		return res
	}
	set("setup_s", "s", median(setupCPU))
	set("results_per_cpu_s", "1/s", median(cpuRPS))
	for c, name := range classNames {
		set("read_"+name+"_p50_us", "us", groupedQuantile(reads[c], 0.5))
	}
	set("catchup_cpu_s", "s", median(catchCPU))
	set("restart_cpu_s", "s", median(restCPU))
	set("heap_mb", "MB", median(heap))
	set("store_mb", "MB", median(store))
	return res
}

// groupedQuantile pools consecutive rounds' samples into groups just large
// enough to hold ten samples beyond the q-quantile, takes the quantile of
// each group and returns their median; a slow round then moves one group,
// not the whole figure. Leftover rounds join the last group.
func groupedQuantile(rounds [][]float64, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	var groups [][]float64
	var cur []float64
	for _, r := range rounds {
		cur = append(cur, r...)
		if len(cur) >= need {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(groups) == 0 {
		return quantile(cur, q)
	}
	groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	qs := make([]float64, len(groups))
	for i, g := range groups {
		qs[i] = quantile(g, q)
	}
	return median(qs)
}
