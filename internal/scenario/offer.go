package scenario

import (
	"fmt"
	"os"
	"path/filepath"

	"contra/internal/flowtrace"
	"contra/internal/sim"
	"contra/internal/topo"
	"contra/internal/workload"
)

// This file holds the offer half of the run layer. Every workload kind
// reduces to an offer: its flows in injection order, the flow-trace
// meta describing them, and a class label per flow. Run then measures
// the offer with one of two shapes (measureFCT, measureCBR), and a
// recorded trace is replayed by offering its flows as captured — so a
// replay is measured by the same code as the run that recorded it.

// offered is a materialized workload. Meta carries the axis labels a
// Result reports (dist, pattern, load, rate) and the absolute deadline
// (fct shape) or end (cbr shape) the run is measured to.
type offered struct {
	flows []sim.FlowSpec
	meta  flowtrace.Meta
	class func(i int) string // trace class label of flows[i]
}

// offer materializes the scenario's workload. It reads only the
// scenario and the topology, never the engine, so each measure shape
// calls it at the point its engine-call order puts it.
func (s *Scenario) offer(g *topo.Graph, warmup int64, surges []Event, replay *flowtrace.Trace) (*offered, error) {
	switch s.Workload.Kind {
	case WorkloadCBR:
		return s.offerCBR(g, warmup)
	case WorkloadCohorts:
		return s.offerCohorts(g, warmup)
	case WorkloadTrace:
		return s.offerTrace(g, replay)
	}
	return s.offerFCT(g, warmup, surges)
}

// capacity is the reference an FCT load fraction normalizes against.
func (w *Workload) capacity(g *topo.Graph) float64 {
	if w.CapacityBps == 0 {
		return FabricCapacity(g)
	}
	return w.CapacityBps
}

// offerFCT generates the Poisson workload plus any surges.
func (s *Scenario) offerFCT(g *topo.Graph, warmup int64, surges []Event) (*offered, error) {
	w := s.Workload
	senders, receivers := workload.SplitHosts(g)
	pairs := s.PairIDs
	if len(pairs) == 0 && len(w.Pairs) > 0 {
		for _, p := range w.Pairs {
			a, ok := g.NodeByName(p[0])
			if !ok {
				return nil, fmt.Errorf("scenario %q: unknown pair host %q", s.Name, p[0])
			}
			b, ok := g.NodeByName(p[1])
			if !ok {
				return nil, fmt.Errorf("scenario %q: unknown pair host %q", s.Name, p[1])
			}
			pairs = append(pairs, [2]topo.NodeID{a, b})
		}
	}
	dist := w.DistObj
	if dist == nil {
		dist = mustDist(w.Dist)
	}
	base := workload.Config{
		Dist: dist, Senders: senders, Receivers: receivers,
		Pairs:   pairs,
		Pattern: w.Pattern, IncastTargets: w.IncastTargets,
		Load: w.Load, CapacityBps: w.capacity(g),
		StartNs: warmup, DurationNs: w.DurationNs,
		Seed: s.Seed, MaxFlows: w.MaxFlows,
	}
	flows := workload.Generate(g, base)
	if len(flows) == 0 {
		return nil, fmt.Errorf("scenario %q: workload produced no flows (load %.2f)", s.Name, w.Load)
	}
	deadline := warmup + w.DurationNs + w.DrainNs
	// Surge traffic rides on the same host sets with distinct flow-ID
	// ranges and a seed derived from the base seed and the surge index,
	// so adding a surge never perturbs the base arrival sequence.
	for i, ev := range surges {
		c := base
		c.Load, c.StartNs, c.DurationNs = ev.Load, ev.AtNs, ev.DurationNs
		c.Seed, c.FirstFlowID = s.Seed+101+int64(i), uint64(i+1)<<32
		flows = append(flows, workload.Generate(g, c)...)
		if end := ev.AtNs + ev.DurationNs + w.DrainNs; end > deadline {
			deadline = end
		}
	}
	return &offered{
		flows: flows,
		meta: flowtrace.Meta{
			Kind: flowtrace.KindFCT, Dist: dist.Name, Pattern: w.Pattern,
			Load: w.Load, DeadlineNs: deadline,
		},
		class: func(i int) string {
			if co := flows[i].ID >> 32; co > 0 {
				return fmt.Sprintf("surge%d", co)
			}
			return "base"
		},
	}, nil
}

// offerCohorts composes the cohort workload. Cohort i's flow IDs carry
// i in their top 32 bits, so class_stats cohort rows line up with the
// spec's cohort order.
func (s *Scenario) offerCohorts(g *topo.Graph, warmup int64) (*offered, error) {
	w := s.Workload
	senders, receivers := workload.SplitHosts(g)
	flows, err := workload.GenerateCohorts(g, workload.CohortConfig{
		Cohorts:     w.Cohorts,
		Senders:     senders,
		Receivers:   receivers,
		CapacityBps: w.capacity(g),
		StartNs:     warmup,
		DurationNs:  w.DurationNs,
		Seed:        s.Seed,
		LoadScale:   w.Load,
		MaxFlows:    w.MaxFlows,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	return &offered{
		flows: flows,
		meta: flowtrace.Meta{
			Kind: flowtrace.KindCohorts, Dist: "cohorts",
			Load: w.Load, DeadlineNs: warmup + w.DurationNs + w.DrainNs,
		},
		class: func(i int) string { return w.Cohorts[flows[i].ID>>32].Name },
	}, nil
}

// offerCBR builds the Figure 14 constant-bit-rate workload: every
// sender streams to a receiver across the fabric until EndNs.
func (s *Scenario) offerCBR(g *topo.Graph, warmup int64) (*offered, error) {
	w := s.Workload
	senders, receivers := workload.SplitHosts(g)
	if len(senders) == 0 || len(receivers) == 0 {
		return nil, fmt.Errorf("scenario %q: cbr workload needs hosts", s.Name)
	}
	per := w.RateBps / float64(len(senders))
	// Snap the per-flow packet gap to divide the measurement bin, so
	// bins hold an integral packet count: otherwise a slow beat between
	// the CBR period and the bin width shows up as phantom throughput
	// dips that drown the failure signal.
	pktBits := float64((sim.MSS + sim.FrameHeader) * 8)
	gapRaw := pktBits / per * 1e9
	divisions := int64(float64(s.BinNs)/gapRaw + 0.5)
	if divisions < 1 {
		divisions = 1
	}
	per = pktBits * float64(divisions) / float64(s.BinNs) * 1e9
	// Pair each sender with a receiver in a different part of the
	// fabric (offset by a quarter of the host set) so that every flow
	// crosses the core and a failed link actually carries traffic.
	var flows []sim.FlowSpec
	for i, src := range senders {
		dst := receivers[(i+len(receivers)/4+1)%len(receivers)]
		for tries := 0; g.HostEdge(src) == g.HostEdge(dst) && tries < len(receivers); tries++ {
			dst = receivers[(i+len(receivers)/4+1+tries)%len(receivers)]
		}
		flows = append(flows, sim.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst,
			RateBps: per, Start: warmup,
		})
	}
	return &offered{
		flows: flows,
		meta:  flowtrace.Meta{Kind: flowtrace.KindCBR, RateBps: w.RateBps, EndNs: w.EndNs},
		class: func(int) string { return "cbr" },
	}, nil
}

// offerTrace offers a recorded trace's flows exactly as captured, with
// the recording's meta: a replay reports the recording's axes and is
// measured to the recording's deadline or end.
func (s *Scenario) offerTrace(g *topo.Graph, tr *flowtrace.Trace) (*offered, error) {
	if len(tr.Flows) == 0 {
		return nil, fmt.Errorf("scenario %q: trace carries no flows", s.Name)
	}
	flows := make([]sim.FlowSpec, 0, len(tr.Flows))
	for i, tf := range tr.Flows {
		src, ok := g.NodeByName(tf.Src)
		if !ok {
			return nil, fmt.Errorf("scenario %q: trace flow %d: no node %q in topo %s", s.Name, i, tf.Src, g.Name)
		}
		dst, ok := g.NodeByName(tf.Dst)
		if !ok {
			return nil, fmt.Errorf("scenario %q: trace flow %d: no node %q in topo %s", s.Name, i, tf.Dst, g.Name)
		}
		flows = append(flows, sim.FlowSpec{
			ID:      tf.ID,
			Src:     src,
			Dst:     dst,
			Size:    tf.Bytes,
			RateBps: tf.RateBps,
			Start:   tf.StartNs,
		})
	}
	return &offered{
		flows: flows,
		meta:  tr.Meta,
		class: func(i int) string { return tr.Flows[i].Class },
	}, nil
}

// record renders the offer as a v1 flow trace carrying the scenario's
// identity: endpoints by node name (stable across processes), flows in
// injection order. Re-recording a replay reproduces the trace it read,
// so record→replay→record is a fixpoint.
func (o *offered) record(s *Scenario, g *topo.Graph, topoName string) *flowtrace.Trace {
	meta := o.meta
	meta.Topo = topoName
	meta.Seed = s.Seed
	meta.Key = s.Key()
	t := &flowtrace.Trace{Meta: meta, Flows: make([]flowtrace.Flow, 0, len(o.flows))}
	for i, f := range o.flows {
		t.Flows = append(t.Flows, flowtrace.Flow{
			ID:      f.ID,
			Src:     g.Node(f.Src).Name,
			Dst:     g.Node(f.Dst).Name,
			Bytes:   f.Size,
			RateBps: f.RateBps,
			StartNs: f.Start,
			Class:   o.class(i),
		})
	}
	return t
}

// loadReplay resolves and loads a trace workload's recording. A
// directory path resolves per cell by sanitized scenario name — the
// record-dir layout — so one replay spec with the recording campaign's
// axes replays every cell against its own trace.
func loadReplay(s *Scenario, g *topo.Graph) (*flowtrace.Trace, error) {
	path := s.Workload.TracePath
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		if s.Name == "" {
			return nil, fmt.Errorf("scenario: trace path %q is a directory, which resolves per campaign cell; name the scenario or point at a trace file", path)
		}
		path = filepath.Join(path, flowtrace.FileName(s.Name))
	}
	tr, err := flowtrace.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	topoName := s.TopoSpec
	if topoName == "" {
		topoName = g.Name
	}
	if tr.Meta.Topo != topoName {
		return nil, fmt.Errorf("scenario %q: trace %s was recorded on topo %q, this scenario runs %q", s.Name, path, tr.Meta.Topo, topoName)
	}
	return tr, nil
}
