package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pinpoint/internal/serve"
)

// round is one full pass of a workload: set-up, replay, reads, catch-up,
// restart and the output checks.
type round struct {
	traced    bool
	setup     []float64 // s
	setupCPU  []float64 // s
	rps       float64
	cpuRPS    float64   // results per second of process CPU time
	fresh     []float64 // ms
	reads     readStats // closed loop, after ingest
	liveReads readStats // open loop, during ingest (live only)
	catchup   []float64 // s
	restart   []float64 // s
	catchCPU  []float64 // s
	restCPU   []float64 // s
	heapMB    float64
	storeMB   float64
	attempted int
	failed    int
	probs     []string
	layer     map[string]metric
	phases    string
	steal     float64 // % of the machine's CPU time the hypervisor took during the round
}

func (e *env) runRound(i int) (*round, error) {
	r := &round{traced: e.tr != nil}
	ph := newPhases()
	var metaS, openS, helloS []float64
	// Extra set-ups on throwaway stores, so the millisecond-scale set-up
	// time is a median of several. Each millisecond-scale phase starts
	// right after a collection, so the collector's phase does not decide
	// which samples pay for a cycle.
	for k := 0; k < setups-1; k++ {
		dir := filepath.Join(e.work, fmt.Sprintf("setup%d", k))
		runtime.GC()
		c, err := startChain(e, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setup, r.setupCPU = append(r.setup, c.setupS), append(r.setupCPU, c.setupCPU)
		metaS, openS, helloS = append(metaS, c.metaS), append(openS, c.openS), append(helloS, c.helloS)
		c.stop()
		os.RemoveAll(dir)
	}

	base := liveHeapAfterGC()
	dir := filepath.Join(e.work, "store")
	defer os.RemoveAll(dir)
	c, err := startChain(e, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer c.stop()
	r.setup, r.setupCPU = append(r.setup, c.setupS), append(r.setupCPU, c.setupCPU)
	metaS, openS, helloS = append(metaS, c.metaS), append(openS, c.openS), append(helloS, c.helloS)

	ph.mark("setup")
	ing, err := c.ingest()
	if err != nil {
		return nil, err
	}
	lines := ing.stats.Results
	r.rps = float64(lines) / ing.wall.Seconds()
	r.cpuRPS = float64(lines) / ing.cpu.Seconds()
	r.fresh = ing.fresh
	var layer map[string]metric
	if e.tr != nil {
		layer = e.ingestLayers(c, ing)
	}
	ing.batchMS, ing.lagMS = nil, nil
	r.heapMB = (liveHeapAfterGC() - base) / 1e6

	ph.mark("ingest")
	r.liveReads = ing.reads
	r.reads = closedLoop(e, c.fsrv.url, classReads, e.magnitudeASNs(c.f.Snapshot()))
	ph.mark("reads")

	var cf *serve.Follower
	for k := 0; k < e.w.catchups; k++ {
		runtime.GC()
		f, wall, cpu, err := c.catchUp()
		if err != nil {
			return nil, fmt.Errorf("catch-up: %w", err)
		}
		cf = f
		r.catchup, r.catchCPU = append(r.catchup, wall), append(r.catchCPU, cpu)
	}
	ph.mark("catch-up")
	var rs *restarted
	var rOpen, rRestore []float64
	for k := 0; k < e.w.restarts; k++ {
		if rs != nil {
			rs.close()
		}
		runtime.GC()
		x, wall, cpu, err := c.restart()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		r.restart, r.restCPU = append(r.restart, wall), append(r.restCPU, cpu)
		rOpen, rRestore = append(rOpen, x.openS), append(rRestore, x.restoreS)
		rs = x
	}
	defer rs.close()
	ph.mark("restart")
	sb, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	r.storeMB = float64(sb) / 1e6

	if layer != nil {
		snap := c.pub.Snapshot()
		t0 := time.Now()
		ds, ok := c.pub.CatchUp(0, snap.Seq)
		layer["catchup.writer_s"] = metric{time.Since(t0).Seconds(), "s"}
		if !ok {
			ds = nil
		}
		layer["catchup.deltas"] = metric{float64(len(ds)), "count"}
		layer["restart.open_s"] = metric{median(rOpen), "s"}
		layer["restart.restore_s"] = metric{median(rRestore), "s"}
		layer["setup.meta_s"] = metric{median(metaS), "s"}
		layer["setup.open_s"] = metric{median(openS), "s"}
		layer["setup.hello_s"] = metric{median(helloS), "s"}
		e.readLayers(layer)
		r.layer = layer
	}

	// A restarted writer serves its durable history at once, but its status
	// (completion, identity counters) only matches after the input is
	// replayed as warmup, as cmd/ihr does on restart. The first round of
	// every run pays that replay and checks the status too.
	replayed := i == 0
	if replayed {
		if err := rs.replay(e.fx.dump); err != nil {
			return nil, fmt.Errorf("restart replay: %w", err)
		}
	}
	ph.mark("replay")
	roles := []role{
		{"writer", serve.NewServer(c.pub, serve.Options{}).Handler(), false},
		{"follower", serve.NewServer(c.f, serve.Options{}).Handler(), false},
		{"catch-up follower", serve.NewServer(cf, serve.Options{}).Handler(), false},
		{"restarted writer", rs.h, !replayed},
	}
	r.probs = e.checks(roles, ing.stats)
	ph.mark("checks")
	r.phases = ph.String()

	// Operations: every result, every read, every committed bin and every
	// follower connection (tailing, catch-up and reconnects).
	r.attempted = lines + r.reads.attempted + r.liveReads.attempted + c.st.Len() + 1 + e.w.catchups + int(c.reconnects.Load())
	r.failed = r.reads.failed + r.liveReads.failed
	return r, nil
}

// ingestLayers reads the ingest-phase per-layer figures of a traced round.
func (e *env) ingestLayers(c *chain, ing *ingestResult) map[string]metric {
	t := e.tr
	m := map[string]metric{}
	closeS := float64(t.closeNS.Load()) / 1e9
	storeS := float64(t.closeStoreNS.Load()) / 1e9
	m["ingest.wait_s"] = metric{t.roundSum("ingest.wait").Seconds(), "s"}
	m["ingest.lines"] = metric{float64(ing.stats.Lines), "count"}
	m["ingest.mb"] = metric{float64(ing.stats.Bytes) / 1e6, "MB"}
	m["ingest.batch_delay_ms"] = metric{median(ing.batchMS), "ms"}
	m["core.observe_s"] = metric{(t.roundSum("core.observe") + t.roundSum("core.flush")).Seconds() - closeS, "s"}
	m["core.links"] = metric{float64(c.links), "count"}
	m["core.routers"] = metric{float64(c.routers), "count"}
	ds, fs := c.dstats, c.fstats
	m["detect.close_s"] = metric{(ds.Dur + fs.Dur).Seconds(), "s"}
	m["detect.link_bins"] = metric{float64(ds.Links), "count"}
	m["detect.flow_bins"] = metric{float64(fs.Flows), "count"}
	m["detect.samples"] = metric{float64(ds.Samples), "count"}
	m["publish.close_s"] = metric{closeS - storeS, "s"}
	m["publish.bins"] = metric{float64(t.closes.Load()), "count"}
	m["segstore.write_s"] = metric{float64(t.writeNS.Load()) / 1e9, "s"}
	m["segstore.sync_s"] = metric{float64(t.syncNS.Load()) / 1e9, "s"}
	m["segstore.syncs"] = metric{float64(t.syncs.Load()), "count"}
	m["segstore.mb_written"] = metric{float64(t.writeBytes.Load()) / 1e6, "MB"}
	m["feed.mb"] = metric{float64(c.feedBytes.Load()) / 1e6, "MB"}
	m["feed.deltas"] = metric{float64(ing.deltas), "count"}
	m["feed.reconnects"] = metric{float64(c.reconnects.Load()), "count"}
	m["follower.lag_ms"] = metric{median(ing.lagMS), "ms"}
	m["runtime.gc_cpu_s"] = metric{t.rt.gcCPU, "s"}
	m["runtime.gc_cycles"] = metric{t.rt.cycles, "count"}
	m["runtime.alloc_mb"] = metric{t.rt.allocBytes / 1e6, "MB"}
	return m
}

// readLayers adds the server-side read figures of a traced round.
func (e *env) readLayers(m map[string]metric) {
	t := e.tr
	for class, name := range classNames {
		m["read."+name+"_us"] = metric{median(t.readSrv[class].values()), "us"}
	}
	share := 0.0
	if n := t.srvReval.Load(); n > 0 {
		share = float64(t.srvNM.Load()) / float64(n)
	}
	m["read.not_modified_share"] = metric{share, "share"}
	m["read.mb"] = metric{float64(t.srvBytes.Load()) / 1e6, "MB"}
}

// phases records how long each part of a round took, for the log.
type phases struct {
	last  time.Time
	parts []string
}

func newPhases() *phases { return &phases{last: time.Now()} }

func (p *phases) mark(name string) {
	now := time.Now()
	p.parts = append(p.parts, fmt.Sprintf("%s %.2fs", name, now.Sub(p.last).Seconds()))
	p.last = now
}

func (p *phases) String() string { return join(p.parts) }
