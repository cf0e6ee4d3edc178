package main

import (
	"time"

	"pinpoint/internal/netsim"
)

// Per round, every workload builds the chain setups times (only the last
// one ingests) and runs classReads[c] closed-loop reads of each class c
// against the finished follower, at least ten times the hundred samples
// that put ten beyond a 90th percentile. A magnitude read of a two-month
// series costs milliseconds, so that class gets fewer.
const setups = 15

var classReads = [numClasses]int{classPoll: 2000, classDrill: 1000, classMag: 400, classStatus: 2000}

// workload is one benchmark input and drive.
type workload struct {
	name string
	spec fixtureSpec

	// paceRate, when > 0, releases the dump's bytes in compressed time at
	// this mean rate (results/s) instead of as fast as ingest accepts them.
	paceRate float64
	// liveReadRate is the open-loop read rate (requests/s) during ingest;
	// 0 runs no reads beside ingest.
	liveReadRate float64
	// catchups and restarts are repetitions per round of those
	// millisecond-scale phases, reported as medians.
	catchups, restarts int
}

var (
	backfillStart = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	historyStart  = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	liveStart     = time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
)

func workloads() []workload {
	return []workload{
		{
			name: "backfill",
			spec: fixtureSpec{
				Topo: netsim.TopoConfig{
					Tier1: 6, Transit: 60, Stub: 1000,
					RoutersPerTier1: 6, RoutersPerTransit: 4, RoutersPerStub: 2,
					IXPs: 4, IXPMembers: 12, Roots: 2, RootInstances: 8, Anchors: 20,
				},
				Start: backfillStart, Hours: 30, AnchorProbes: 10,
				FirstAfter: 12, Every: 1, Duration: 2,
				Kinds:        []netsim.EventKind{netsim.EventCongestion},
				MinDiversity: 5, MaxDiversity: 60,
			},
			catchups: 15, restarts: 15,
		},
		{
			name: "history",
			spec: fixtureSpec{
				Topo: netsim.TopoConfig{
					Tier1: 3, Transit: 8, Stub: 30,
					RoutersPerTier1: 4, IXPs: 1, IXPMembers: 5,
					Roots: 2, RootInstances: 4, Anchors: 2,
				},
				Start: historyStart, Hours: 1440, AnchorProbes: 5,
				FirstAfter: 48, Every: 13, Duration: 3,
				Kinds:        []netsim.EventKind{netsim.EventCongestion, netsim.EventLoss, netsim.EventBlackhole},
				MinDiversity: 5, MaxDiversity: 60,
			},
			catchups: 5, restarts: 9,
		},
		{
			name: "live",
			spec: fixtureSpec{
				Topo: netsim.TopoConfig{
					Tier1: 4, Transit: 20, Stub: 200,
					RoutersPerTier1: 5, IXPs: 2, IXPMembers: 8,
					Roots: 2, RootInstances: 6, Anchors: 4,
				},
				Start: liveStart, Hours: 150, AnchorProbes: 10,
				FirstAfter: 30, Every: 3, Duration: 3,
				Kinds:        []netsim.EventKind{netsim.EventCongestion},
				MinDiversity: 5, MaxDiversity: 60,
			},
			paceRate: 20000, liveReadRate: 400,
			catchups: 15, restarts: 15,
		},
	}
}

// toy shrinks a workload so all three run in seconds (the schema check of
// `perfbench toy`).
func (w workload) toy() workload {
	w.name = "toy-" + w.name
	s := &w.spec
	s.Topo.Tier1, s.Topo.Transit, s.Topo.Stub = 2, 6, 24
	s.Topo.IXPs, s.Topo.IXPMembers, s.Topo.Anchors = 1, 4, 2
	s.Topo.RoutersPerTier1, s.Topo.RoutersPerTransit, s.Topo.RoutersPerStub = 3, 2, 2
	s.Hours, s.FirstAfter, s.Every, s.Duration = 40, 26, 6, 3
	s.MinDiversity = 3
	if w.paceRate > 0 {
		w.paceRate = 50000
	}
	w.catchups, w.restarts = 1, 1
	return w
}
