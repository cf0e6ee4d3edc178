package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pinpoint/internal/atlas"
	"pinpoint/internal/ipmap"
	"pinpoint/internal/netsim"
	"pinpoint/internal/trace"
)

// fixtureSpec is everything the generator needs besides the run's seed.
// Equal specs and seeds give byte-identical dumps.
type fixtureSpec struct {
	// ShapeSeed draws the topology and the disruption schedule; the run's
	// seed draws the measurement noise. Runs on different seeds then
	// measure the same network under different noise, so their spread is
	// the benchmark's and not the spread between networks.
	ShapeSeed    uint64
	Topo         netsim.TopoConfig // Seed is overwritten by ShapeSeed
	Start        time.Time
	Hours        int
	AnchorProbes int // probes per anchoring measurement

	// Disruption schedule: the first event starts FirstAfter hours into
	// the dump, then one every Every hours, each lasting Duration hours.
	// Kinds rotate through Kinds.
	FirstAfter, Every, Duration int
	Kinds                       []netsim.EventKind
	// Probe ASes a disrupted link must carry: at least MinDiversity so the
	// method can see it, at most MaxDiversity so no single event dominates
	// the alarm count.
	MinDiversity, MaxDiversity int
}

// disruption is one injected event as the ground truth records it.
type disruption struct {
	Kind      string    `json:"kind"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	From      string    `json:"from"` // link kinds: near router address
	To        string    `json:"to"`   // link kinds: far router address; blackhole: the router
	ExtraMS   float64   `json:"extra_ms,omitempty"`
	Loss      float64   `json:"loss,omitempty"`
	Diversity int       `json:"diversity"` // probe ASes crossing the link when quiet
	Adjacent  []string  `json:"adjacent"`  // addresses of routers next to the disrupted one(s)
}

// truth is the generator's record of what it wrote: counts to check the
// pipeline against and the disruption schedule.
type truth struct {
	Seed        uint64       `json:"seed"`
	Spec        string       `json:"spec"`
	ASes        int          `json:"ases"`
	Probes      int          `json:"probes"`
	Links       int          `json:"links"` // directed router links in the topology
	Lines       int          `json:"lines"`
	Bytes       int64        `json:"bytes"`
	Bins        int          `json:"bins"`
	Start       time.Time    `json:"start"`
	End         time.Time    `json:"end"`
	Disruptions []disruption `json:"disruptions"`
}

// fixture is a generated dump on disk plus its in-memory line index.
type fixture struct {
	dump, meta string
	truth      truth
	ends       []int64 // byte offset just past each line's newline
	times      []int64 // each line's result time (unix ns)
}

// generatorVersion is part of the cache key; bump it whenever the
// generator's output for a given spec and seed changes.
const generatorVersion = 3

// specKey identifies a (spec, seed) pair for the on-disk cache.
func specKey(name string, spec fixtureSpec, seed uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d %+v", generatorVersion, spec)
	return fmt.Sprintf("%s-s%d-%016x", name, seed, h.Sum64())
}

// loadOrGenerate returns the fixture for (spec, seed), generating it under
// dir unless a complete copy is already there. Older fixtures of the same
// workload are removed so the cache holds one dump per workload.
func loadOrGenerate(dir, name string, spec fixtureSpec, seed uint64) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, specKey(name, spec, seed))
	fx := &fixture{dump: base + ".ndjson", meta: base + ".meta.json"}
	if err := fx.load(base); err == nil {
		return fx, nil
	}
	olds, _ := filepath.Glob(filepath.Join(dir, name+"-s*"))
	for _, o := range olds {
		os.Remove(o)
	}
	if err := generate(base, spec, seed); err != nil {
		return nil, fmt.Errorf("generating %s fixture: %w", name, err)
	}
	if err := fx.load(base); err != nil {
		return nil, err
	}
	return fx, nil
}

// load reads the truth (written last, so its presence marks a complete
// fixture) and the line index.
func (fx *fixture) load(base string) error {
	b, err := os.ReadFile(base + ".truth.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &fx.truth); err != nil {
		return err
	}
	idx, err := os.ReadFile(base + ".idx")
	if err != nil {
		return err
	}
	if len(idx) != 16*fx.truth.Lines {
		return fmt.Errorf("index holds %d bytes, want %d", len(idx), 16*fx.truth.Lines)
	}
	fx.ends = make([]int64, fx.truth.Lines)
	fx.times = make([]int64, fx.truth.Lines)
	for i := range fx.ends {
		fx.ends[i] = int64(binary.LittleEndian.Uint64(idx[16*i:]))
		fx.times[i] = int64(binary.LittleEndian.Uint64(idx[16*i+8:]))
	}
	return nil
}

// dirLink is a directed router pair.
type dirLink struct{ from, to netsim.RouterID }

// linkDiversity maps every directed link on a quiet forward path of one
// of the platform's measurements to the number of probe ASes crossing it.
func linkDiversity(p *atlas.Platform, at time.Time) map[dirLink]int {
	n := p.Net()
	sets := make(map[dirLink]map[ipmap.ASN]bool)
	for _, m := range p.Measurements() {
		for _, id := range m.Probes {
			pr, _ := p.Probe(id)
			path, ok := n.ForwardPath(pr.Router, m.Target, at, 0)
			if !ok {
				continue
			}
			for i := 0; i+1 < len(path); i++ {
				l := dirLink{path[i], path[i+1]}
				if sets[l] == nil {
					sets[l] = make(map[ipmap.ASN]bool)
				}
				sets[l][pr.ASN] = true
			}
		}
	}
	out := make(map[dirLink]int, len(sets))
	for l, s := range sets {
		out[l] = len(s)
	}
	return out
}

// buildPlatform attaches one probe per stub AS, builtin measurements to
// every root and anchoring measurements to every anchor.
func buildPlatform(n *netsim.Net, topo *netsim.Topo, seed uint64, anchorProbes int) *atlas.Platform {
	p := atlas.NewPlatform(n, seed, netsim.TracerouteOpts{})
	probes := p.AddProbes(topo.ProbeSites())
	for _, rt := range topo.Roots {
		p.AddBuiltin(rt.Addr)
	}
	for i, an := range topo.Anchors {
		var ids []int
		for j := 0; j < anchorProbes && j < len(probes); j++ {
			ids = append(ids, probes[(i*7+j)%len(probes)].ID)
		}
		p.AddAnchoring(an.Addr, ids)
	}
	return p
}

// planDisruptions draws the event schedule on the quiet network: each
// event lands on a link (or, for a blackhole, the far router of a link)
// that at least MinDiversity probe ASes cross, so the method has the
// probe diversity §4.3 requires to see it.
func planDisruptions(spec fixtureSpec, quiet *netsim.Net, topo *netsim.Topo) ([]netsim.Event, []disruption) {
	div := linkDiversity(buildPlatform(quiet, topo, spec.ShapeSeed, spec.AnchorProbes), spec.Start)
	var cands []dirLink
	for l, d := range div {
		if d >= spec.MinDiversity && d <= spec.MaxDiversity {
			cands = append(cands, l)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].from != cands[j].from {
			return cands[i].from < cands[j].from
		}
		return cands[i].to < cands[j].to
	})
	if len(cands) == 0 || len(spec.Kinds) == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewPCG(spec.ShapeSeed, 0xd15c0))
	end := spec.Start.Add(time.Duration(spec.Hours) * time.Hour)
	addrs := func(ids ...netsim.RouterID) []string {
		var out []string
		for _, id := range ids {
			out = append(out, quiet.Router(id).Addr.String())
			for _, nb := range quiet.Neighbors(id) {
				out = append(out, quiet.Router(nb).Addr.String())
			}
		}
		return out
	}
	var evs []netsim.Event
	var gt []disruption
	for i := 0; ; i++ {
		s := spec.Start.Add(time.Duration(spec.FirstAfter+i*spec.Every) * time.Hour)
		e := s.Add(time.Duration(spec.Duration) * time.Hour)
		if e.After(end) {
			break
		}
		l := cands[rng.IntN(len(cands))]
		kind := spec.Kinds[i%len(spec.Kinds)]
		ev := netsim.Event{Name: fmt.Sprintf("bench-%d", i), Kind: kind, Start: s, End: e}
		d := disruption{
			Kind: kind.String(), Start: s, End: e,
			From: quiet.Router(l.from).Addr.String(), To: quiet.Router(l.to).Addr.String(),
			Diversity: div[l],
		}
		switch kind {
		case netsim.EventCongestion:
			ev.From, ev.To, ev.Both = l.from, l.to, true
			ev.ExtraDelayMS = 20 + float64(rng.IntN(41))
			d.ExtraMS = ev.ExtraDelayMS
			d.Adjacent = addrs(l.from, l.to)
		case netsim.EventLoss:
			ev.From, ev.To = l.from, l.to
			ev.Loss = 0.5
			d.Loss = ev.Loss
			d.Adjacent = addrs(l.from, l.to)
		case netsim.EventBlackhole:
			ev.Router = l.to
			ev.Loss = 1
			d.Loss = ev.Loss
			d.Adjacent = addrs(l.to)
		}
		evs = append(evs, ev)
		gt = append(gt, d)
	}
	return evs, gt
}

// generate writes base.ndjson, base.meta.json, base.idx and, last,
// base.truth.json.
func generate(base string, spec fixtureSpec, seed uint64) error {
	cfg := spec.Topo
	cfg.Seed = spec.ShapeSeed
	topo, err := netsim.Generate(cfg)
	if err != nil {
		return err
	}
	quiet, err := topo.Build(nil)
	if err != nil {
		return err
	}
	evs, gt := planDisruptions(spec, quiet, topo)
	n, err := topo.Build(netsim.NewScenario(evs...))
	if err != nil {
		return err
	}
	p := buildPlatform(n, topo, seed, spec.AnchorProbes)
	p.SetWorkers(runtime.GOMAXPROCS(0))

	end := spec.Start.Add(time.Duration(spec.Hours) * time.Hour)
	t := truth{
		Seed: seed, Spec: fmt.Sprintf("%+v", spec),
		ASes:   len(topo.Tier1) + len(topo.Transit) + len(topo.Stub),
		Probes: len(p.Probes()), Links: n.NumEdges(),
		Bins: spec.Hours, Start: spec.Start, End: end, Disruptions: gt,
	}
	if err := writeDump(base, p, spec.Start, end, &t); err != nil {
		return err
	}
	if err := writeFile(base+".meta.json", func(w *bufio.Writer) error {
		return atlas.WriteMetadata(w, p.Metadata())
	}); err != nil {
		return err
	}
	return writeFile(base+".truth.json", func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(t)
	})
}

// writeDump runs the campaign into base.ndjson, one result per line, and
// records each line's end offset and time in base.idx.
func writeDump(base string, p *atlas.Platform, from, to time.Time, t *truth) error {
	var idx []byte
	var line []byte
	err := writeFile(base+".ndjson", func(w *bufio.Writer) error {
		return p.Run(from, to, func(r trace.Result) error {
			var err error
			if line, err = trace.AppendResult(line[:0], r); err != nil {
				return err
			}
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return err
			}
			t.Lines++
			t.Bytes += int64(len(line))
			idx = binary.LittleEndian.AppendUint64(idx, uint64(t.Bytes))
			idx = binary.LittleEndian.AppendUint64(idx, uint64(r.Time.UnixNano()))
			return nil
		})
	})
	if err != nil {
		return err
	}
	return writeFile(base+".idx", func(w *bufio.Writer) error {
		_, err := w.Write(idx)
		return err
	})
}

// writeFile creates path through a buffered writer and checks every step
// of closing it.
func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	// Write the dump back now rather than while a run measures: background
	// writeback of a freshly generated dump slows the store's fsyncs.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// describe is the one-line make-up of a fixture for logs and the README.
func (fx *fixture) describe() string {
	var kinds []string
	for _, d := range fx.truth.Disruptions {
		kinds = append(kinds, d.Kind)
	}
	return fmt.Sprintf("%d ASes, %d probes, %d directed links, %d results, %.1f MB, %d bins, %d disruptions [%s]",
		fx.truth.ASes, fx.truth.Probes, fx.truth.Links, fx.truth.Lines, float64(fx.truth.Bytes)/1e6,
		fx.truth.Bins, len(fx.truth.Disruptions), strings.Join(kinds, " "))
}
