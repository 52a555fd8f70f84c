package scenario

import (
	"fmt"
	"sort"
	"time"

	"contra/internal/baseline"
	"contra/internal/chaos"
	"contra/internal/cliutil"
	"contra/internal/core"
	"contra/internal/dataplane"
	"contra/internal/flowtrace"
	"contra/internal/metrics"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/stats"
	"contra/internal/topo"
	"contra/internal/trace"
	"contra/internal/workload"
)

// Result summarizes one scenario run. Every field that reaches JSON is
// a deterministic function of the Scenario, so a campaign's aggregated
// output is byte-identical however its runs are scheduled; wall-clock
// time and bulky artifacts (series, queue samples) stay out of the
// encoding.
type Result struct {
	Name    string  `json:"name,omitempty"`
	Topo    string  `json:"topo"`
	Scheme  Scheme  `json:"scheme"`
	Script  string  `json:"script,omitempty"`
	Dist    string  `json:"dist,omitempty"`
	Pattern string  `json:"pattern,omitempty"`
	Load    float64 `json:"load,omitempty"`
	RateBps float64 `json:"rate_bps,omitempty"`
	Seed    int64   `json:"seed"`

	Flows     int   `json:"flows"`
	Completed int64 `json:"completed"`

	MeanFCT float64 `json:"mean_fct,omitempty"` // seconds
	P50FCT  float64 `json:"p50_fct,omitempty"`
	// P95FCT comes from the O(1)-memory P² streaming tracker
	// (stats.Quantiles), deterministic for a given scenario; p50/p99
	// still read the exact retained Sample to keep historical values
	// byte-stable. The tracker follows all three so the Sample can be
	// dropped from this path wholesale once that compatibility window
	// closes.
	P95FCT float64 `json:"p95_fct,omitempty"`
	P99FCT float64 `json:"p99_fct,omitempty"`

	FabricBytes   float64 `json:"fabric_bytes"`
	DataBytes     float64 `json:"data_bytes"`
	AckBytes      float64 `json:"ack_bytes"`
	ProbeBytes    float64 `json:"probe_bytes"`
	TagBytes      float64 `json:"tag_bytes"`
	QueueDrops    float64 `json:"queue_drops"`
	LinkDownDrops float64 `json:"linkdown_drops"`
	LoopedFrac    float64 `json:"looped_frac,omitempty"`
	LoopBreaks    float64 `json:"loop_breaks,omitempty"`

	// Probe aggregation (probe_packing / suppress_eps / refresh_every):
	// on-wire probe transmissions avoided by packing and per-origin
	// re-advertisements skipped by delta suppression. Zero (and absent
	// from the JSON) when the knobs are off, so historical campaign
	// output is byte-identical. ProbeAggOn records that a knob was
	// enabled, so downstream aggregation can tell a genuine zero
	// saving apart from knobs-off.
	ProbeAggOn      bool    `json:"probe_agg_on,omitempty"`
	ProbeTxSaved    float64 `json:"probe_tx_saved,omitempty"`
	ProbeSuppressed float64 `json:"probe_suppressed,omitempty"`

	// Time-series telemetry (metrics_interval_ns): MetricsOn records
	// that the sampler ran (so downstream views can tell "no samples"
	// from "metrics off"), MetricsSamples counts retained ticks. Both
	// are absent from the JSON when metrics are off, keeping historical
	// campaign output byte-identical; the recorder itself is an
	// artifact (Metrics below, excluded from JSON).
	MetricsOn      bool `json:"metrics_on,omitempty"`
	MetricsSamples int  `json:"metrics_samples,omitempty"`

	// Decision tracing (trace_level): the summary counts ride the
	// deterministic encoding — absent when tracing is off, so
	// historical campaign output stays byte-identical. The recorder
	// itself is an artifact (Trace below, excluded from JSON).
	TraceLevel     string `json:"trace_level,omitempty"`
	TraceFlows     int64  `json:"trace_flows,omitempty"`
	TraceDecisions int64  `json:"trace_decisions,omitempty"`
	TraceDivergent int64  `json:"trace_divergent,omitempty"`

	// Per-class FCT attribution (class_stats): elephant vs. mice
	// quantiles, per-cohort stats, Jain fairness. Nil when off.
	Classes *ClassStats `json:"classes,omitempty"`

	// Failover analysis (BinNs > 0 and a runtime link_down/degrade
	// event): throughput before the first event, the deepest dip after
	// it, and how long delivered throughput stayed depressed. For
	// scripts with several disruptions these top-level fields keep
	// describing the first one (the historical single-failure report)
	// and Recoveries carries one window per disruption instant.
	BaselineBps float64          `json:"baseline_bps,omitempty"`
	MinBps      float64          `json:"min_bps,omitempty"`
	RecoveryNs  int64            `json:"recovery_ns,omitempty"`
	FailAtNs    int64            `json:"fail_at_ns,omitempty"`
	BinNs       int64            `json:"bin_ns,omitempty"` // Series bin width
	Recoveries  []RecoveryWindow `json:"recoveries,omitempty"`

	// Chaos measurements (switch failures, probe loss, policy swaps).
	// NodeDownDrops counts packets lost to whole-switch failures;
	// ProbeLossSeen/Dropped count probes offered to and discarded by
	// loss-injected channels (their ratio is ProbeLossFrac); Swaps
	// carries one convergence window per policy_swap event.
	NodeDownDrops    float64            `json:"nodedown_drops,omitempty"`
	ProbeLossSeen    int64              `json:"probe_loss_seen,omitempty"`
	ProbeLossDropped int64              `json:"probe_loss_dropped,omitempty"`
	ProbeLossFrac    float64            `json:"probe_loss_frac,omitempty"`
	Swaps            []chaos.SwapWindow `json:"swaps,omitempty"`

	SimulatedNs int64 `json:"simulated_ns"`

	// Artifacts excluded from the deterministic encoding.
	WallTime  time.Duration     `json:"-"`
	Series    []stats.Point     `json:"-"` // bin start ns -> delivered bits/sec
	QueueMSS  *stats.Sample     `json:"-"`
	Trace     *trace.Recorder   `json:"-"` // set when TraceLevel is active
	Metrics   *metrics.Recorder `json:"-"` // set when MetricsIntervalNs > 0
	FlowTrace *flowtrace.Trace  `json:"-"` // set when RecordFlows is on
}

// ProbeFrac returns probe bytes as a fraction of all fabric bytes.
func (r *Result) ProbeFrac() float64 {
	if r.FabricBytes <= 0 {
		return 0
	}
	return r.ProbeBytes / r.FabricBytes
}

// SwapConvergenceNs summarizes the policy-swap outcome for flat
// reports: no swaps (0, false); at least one swap that never converged
// before the run ended (-1, true); otherwise the widest convergence
// window across the scenario's swaps (ns, true).
func (r *Result) SwapConvergenceNs() (int64, bool) {
	if len(r.Swaps) == 0 {
		return 0, false
	}
	var widest int64
	for _, w := range r.Swaps {
		if w.ConvergenceNs < 0 {
			return -1, true
		}
		if w.ConvergenceNs > widest {
			widest = w.ConvergenceNs
		}
	}
	return widest, true
}

// String renders one result row.
func (r *Result) String() string {
	return fmt.Sprintf("%-7s load=%.0f%% %-9s flows=%d done=%d meanFCT=%.3fms p95=%.3fms p99=%.3fms probes=%.2f%% drops=%.0f",
		r.Scheme, r.Load*100, r.Dist, r.Flows, r.Completed,
		r.MeanFCT*1e3, r.P95FCT*1e3, r.P99FCT*1e3, 100*r.ProbeFrac(), r.QueueDrops)
}

// FabricCapacity sums edge-uplink bandwidth (edge/leaf to the rest of
// the fabric), the reference the paper's load fractions normalize
// against. Down links still count: the asymmetric experiments keep the
// symmetric load reference ("75% of capacity remains").
func FabricCapacity(g *topo.Graph) float64 {
	var total float64
	for _, l := range g.Links() {
		a, b := g.Node(l.A), g.Node(l.B)
		if a.Kind != topo.Switch || b.Kind != topo.Switch {
			continue
		}
		if a.Role == topo.RoleEdge || b.Role == topo.RoleEdge {
			total += l.Bandwidth
		}
	}
	if total == 0 {
		// Non-hierarchical (WAN) topology: use a single link's worth,
		// scaled by sender count elsewhere.
		for _, l := range g.Links() {
			if g.Node(l.A).Kind == topo.Switch && g.Node(l.B).Kind == topo.Switch {
				total = l.Bandwidth
				break
			}
		}
	}
	return total
}

// AutoFailLink picks the first edge-fabric link: the default target of
// "auto" link events and the link the paper's Figure 14 fails.
func AutoFailLink(g *topo.Graph) (topo.LinkID, error) {
	for _, l := range g.Links() {
		if g.Node(l.A).Kind == topo.Switch && g.Node(l.B).Kind == topo.Switch {
			if g.Node(l.A).Role == topo.RoleEdge || g.Node(l.B).Role == topo.RoleEdge {
				return l.ID, nil
			}
		}
	}
	return -1, fmt.Errorf("scenario: no fabric link to fail in %s", g.Name)
}

// AutoFailSwitch picks the default target of "auto" switch events: the
// first core switch (whole-spine failure, the classic node-failure
// experiment), falling back to the first aggregation switch and then
// any switch.
func AutoFailSwitch(g *topo.Graph) (topo.NodeID, error) {
	var firstAgg, firstAny topo.NodeID = -1, -1
	for _, id := range g.Switches() {
		switch g.Node(id).Role {
		case topo.RoleCore:
			return id, nil
		case topo.RoleAgg:
			if firstAgg < 0 {
				firstAgg = id
			}
		}
		if firstAny < 0 {
			firstAny = id
		}
	}
	if firstAgg >= 0 {
		return firstAgg, nil
	}
	if firstAny >= 0 {
		return firstAny, nil
	}
	return -1, fmt.Errorf("scenario: no switch to fail in %s", g.Name)
}

// findSwitch resolves a switch name ("auto"/empty via AutoFailSwitch).
func findSwitch(g *topo.Graph, name string) (topo.NodeID, error) {
	if name == "" || name == "auto" {
		return AutoFailSwitch(g)
	}
	id, ok := g.NodeByName(name)
	if !ok {
		return -1, fmt.Errorf("scenario: no node %q in %s", name, g.Name)
	}
	if g.Node(id).Kind != topo.Switch {
		return -1, fmt.Errorf("scenario: node %q in %s is a host, not a switch", name, g.Name)
	}
	return id, nil
}

// fabricLinksOf lists the switch-switch links attached to a switch
// (the per-switch probe_loss target set).
func fabricLinksOf(g *topo.Graph, id topo.NodeID) []topo.LinkID {
	var out []topo.LinkID
	for _, p := range g.Ports(id) {
		if g.Node(p.Peer).Kind == topo.Switch {
			out = append(out, p.Link)
		}
	}
	return out
}

// Deploy installs a scheme's routers on a network, returning the
// Contra fleet handle when applicable (diagnostics and runtime policy
// swaps; fleet.Routers() exposes the per-switch routers). A non-nil
// rec attaches decision tracing to the routers that capture decisions
// (contra and hula); a non-nil ovr pins flows for counterfactual
// replay (contra only — Validate enforces that); a non-nil mrec
// registers per-router churn accumulators with the telemetry recorder
// (contra and hula — static-table schemes have no probe tables to
// churn).
func Deploy(n *sim.Network, scheme Scheme, g *topo.Graph, policySrc string, opts core.Options, rec *trace.Recorder, ovr *trace.Overrides, mrec *metrics.Recorder) (*dataplane.Fleet, *core.Compiled, error) {
	switch scheme {
	case SchemeContra:
		pol, err := policy.Parse(policySrc, policy.ParseOptions{Symbols: g.SortedNames()})
		if err != nil {
			return nil, nil, err
		}
		comp, err := core.Compile(g, pol, opts)
		if err != nil {
			return nil, nil, err
		}
		fleet := dataplane.DeployFleet(n, comp)
		if rec != nil {
			fleet.SetTracer(rec)
		}
		if ovr != nil {
			fleet.SetOverrides(ovr)
		}
		if mrec != nil {
			fleet.SetMetrics(mrec)
		}
		return fleet, comp, nil
	case SchemeECMP:
		baseline.DeployECMP(n)
	case SchemeSP:
		baseline.DeploySP(n)
	case SchemeHula:
		// HULA's probes climb and descend Clos tiers; a switch without
		// an edge/agg/core role would otherwise panic in Attach.
		for _, id := range g.Switches() {
			if g.Node(id).Role == topo.RoleNone {
				return nil, nil, fmt.Errorf("scenario: hula needs a Clos topology with switch roles; switch %q in %s has none", g.Node(id).Name, g.Name)
			}
		}
		routers := baseline.DeployHula(n, baseline.HulaConfig{
			ProbePeriodNs:    opts.ProbePeriodNs,
			FlowletTimeoutNs: opts.FlowletTimeoutNs,
			ProbePacking:     opts.ProbePacking,
			SuppressEps:      opts.SuppressEps,
			RefreshEvery:     opts.RefreshEvery,
		})
		if rec != nil {
			for _, r := range routers {
				r.SetTracer(rec)
			}
		}
		if mrec != nil {
			// Topology order for clarity; the recorder sorts by name.
			for _, id := range g.Switches() {
				routers[id].SetChurn(mrec.RegisterRouter(g.Node(id).Name))
			}
		}
	case SchemeSpain:
		baseline.DeploySpain(n, baseline.SpainConfig{})
	default:
		return nil, nil, fmt.Errorf("scenario: unknown scheme %q", scheme)
	}
	return nil, nil, nil
}

// resolveTopo materializes the scenario's topology. The caller owns
// the returned graph: it is cloned whenever pre-fail events would
// otherwise mutate a graph the scenario was handed.
func (s *Scenario) resolveTopo() (*topo.Graph, error) {
	g := s.Topo
	if g == nil {
		var err error
		g, err = cliutil.BuildTopology(s.TopoSpec)
		if err != nil {
			return nil, err
		}
		return g, nil
	}
	for _, ev := range s.Events {
		if ev.Kind == LinkDown && ev.AtNs <= 0 {
			return g.Clone(), nil
		}
	}
	return g, nil
}

// resolvedEvents splits the script into topology-level pre-fails,
// runtime link events for the sim injector, traffic surges, and the
// chaos plan (switch failures, probe loss, policy swaps) that
// chaos.Arm schedules.
func (s *Scenario) resolvedEvents(g *topo.Graph) (pre []topo.LinkID, net []sim.NetworkEvent, surges []Event, plan chaos.Plan, err error) {
	plan.Seed = s.Seed
	for _, ev := range s.Events {
		switch ev.Kind {
		case Surge:
			surges = append(surges, ev)
			continue
		case SwitchDown, SwitchUp:
			var node topo.NodeID
			node, err = findSwitch(g, ev.Node)
			if err != nil {
				return nil, nil, nil, plan, err
			}
			plan.Nodes = append(plan.Nodes, chaos.NodeEvent{
				At: ev.AtNs, Node: node, Up: ev.Kind == SwitchUp,
			})
			continue
		case PolicySwap:
			plan.Swaps = append(plan.Swaps, chaos.SwapEvent{At: ev.AtNs, Source: ev.NewPolicy})
			continue
		case ProbeLoss:
			var links []topo.LinkID
			if ev.Node != "" {
				var node topo.NodeID
				node, err = findSwitch(g, ev.Node)
				if err != nil {
					return nil, nil, nil, plan, err
				}
				links = fabricLinksOf(g, node)
				if len(links) == 0 {
					err = fmt.Errorf("scenario %q: switch %q has no fabric links for probe_loss", s.Name, ev.Node)
					return nil, nil, nil, plan, err
				}
			} else {
				var id topo.LinkID
				if ev.Link == "" || ev.Link == "auto" {
					id, err = AutoFailLink(g)
				} else {
					id, err = cliutil.FindLink(g, ev.Link)
				}
				if err != nil {
					return nil, nil, nil, plan, err
				}
				links = []topo.LinkID{id}
			}
			plan.Loss = append(plan.Loss, chaos.LossEvent{At: ev.AtNs, Links: links, Rate: ev.Rate})
			continue
		case LinkDown, LinkUp, Degrade:
		}
		var id topo.LinkID
		if ev.Link == "" || ev.Link == "auto" {
			id, err = AutoFailLink(g)
		} else {
			id, err = cliutil.FindLink(g, ev.Link)
		}
		if err != nil {
			return nil, nil, nil, plan, err
		}
		if ev.Kind == LinkDown && ev.AtNs <= 0 {
			pre = append(pre, id)
			continue
		}
		ne := sim.NetworkEvent{At: ev.AtNs, Link: id}
		switch ev.Kind {
		case LinkDown:
			ne.Kind = sim.EvLinkDown
		case LinkUp:
			ne.Kind = sim.EvLinkUp
		case Degrade:
			ne.Kind = sim.EvLinkScale
			ne.Scale = ev.Scale
		}
		net = append(net, ne)
	}
	return pre, net, surges, plan, nil
}

// Run executes a scenario and collects its Result. Execution is
// deterministic: the same scenario (including seed) produces an
// identical Result on every run, serial or inside a parallel campaign.
func Run(s Scenario) (*Result, error) {
	// Validate before fill: fill expands ramp sugar into surges, so a
	// malformed ramp (e.g. negative steps) must be rejected while it
	// is still visible — otherwise a Go-constructed scenario would
	// silently lose the event instead of failing like a decoded spec.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.fill()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wallStart := time.Now()
	g, err := s.resolveTopo()
	if err != nil {
		return nil, err
	}
	pre, netEvents, surges, plan, err := s.resolvedEvents(g)
	if err != nil {
		return nil, err
	}
	for _, id := range pre {
		g.SetDown(id, true)
	}

	// A trace workload resolves and loads its recording up front: its
	// meta kind picks the measurement shape, which decides the
	// engine-seed offset and the default bin width before any
	// simulation state exists.
	var replay *flowtrace.Trace
	cbr := s.Workload.Kind == WorkloadCBR
	if s.Workload.Kind == WorkloadTrace {
		replay, err = loadReplay(&s, g)
		if err != nil {
			return nil, err
		}
		cbr = replay.Meta.Kind == flowtrace.KindCBR
	}
	if cbr && s.BinNs == 0 {
		s.BinNs = 500_000
	}

	// Engine seeds are offset per shape to stay bit-compatible with the
	// harness this engine replaced (FCT runs used seed+1, failover runs
	// seed+5), keeping historical runs reproducible; a replay shares its
	// recording's shape, so the two runs' event streams align exactly.
	engSeed := s.Seed + 1
	if cbr {
		engSeed = s.Seed + 5
	}
	e := sim.NewEngine(engSeed)
	n := sim.NewNetwork(e, g, sim.Config{TrackVisited: s.TrackLoops})
	// TraceLevel was validated above; a non-off level attaches the
	// recorder to both the network (flow summaries) and, via Deploy,
	// the decision-capturing routers.
	var rec *trace.Recorder
	if lvl, _ := trace.ParseLevel(s.TraceLevel); lvl != trace.Off {
		rec = trace.NewRecorder(lvl)
		n.Trace = rec
	}
	// A positive metrics interval attaches the telemetry recorder (link
	// and drop registration here, per-router churn via Deploy) and
	// schedules the sampler timer. Off (0) schedules nothing and leaves
	// every hook nil, so the run is byte-identical to the seed.
	var mrec *metrics.Recorder
	if s.MetricsIntervalNs > 0 {
		mrec = metrics.NewRecorder(s.MetricsIntervalNs)
		n.AttachMetrics(mrec)
	}
	fleet, _, err := Deploy(n, s.Scheme, g, s.Policy, core.Options{
		ProbePeriodNs:        s.ProbePeriodNs,
		FlowletTimeoutNs:     s.FlowletTimeoutNs,
		FailureDetectPeriods: s.FailureDetectPeriods,
		ProbePacking:         s.ProbePacking,
		SuppressEps:          s.SuppressEps,
		RefreshEvery:         s.RefreshEvery,
	}, rec, s.Overrides, mrec)
	if err != nil {
		return nil, err
	}
	if mrec != nil {
		e.Every(0, s.MetricsIntervalNs, n.SampleMetrics)
	}
	if s.BinNs > 0 {
		n.RxSeries = stats.NewTimeseries(s.BinNs)
	}
	n.Start()
	// Arm the chaos plan (switch failures, probe loss, policy swaps)
	// before any simulated time passes, so its events land on the
	// calendar queue in script order. Scenarios without chaos events
	// schedule nothing here and replay their historical event streams
	// byte-identically.
	chaosRT, err := chaos.Arm(n, fleet, plan, s.ProbePeriodNs)
	if err != nil {
		return nil, err
	}

	warmup := 12 * s.ProbePeriodNs
	// Result.Topo carries the campaign's axis value (the spec string)
	// when there is one, so every downstream view — CSV rows, failed
	// outcomes, seed aggregation of either report JSON or shard JSONL —
	// keys topologies identically; graphs handed in as Go values fall
	// back to the graph's own name.
	topoName := s.TopoSpec
	if topoName == "" {
		topoName = g.Name
	}
	res := &Result{
		Name:   s.Name,
		Topo:   topoName,
		Scheme: s.Scheme,
		Script: s.Script,
		Seed:   s.Seed,
	}
	offer := func() (*offered, error) { return s.offer(g, warmup, surges, replay) }
	measure := measureFCT
	if cbr {
		measure = measureCBR
	}
	o, err := measure(&s, e, n, warmup, netEvents, offer, res)
	if err != nil {
		return nil, err
	}
	if s.RecordFlows {
		res.FlowTrace = o.record(&s, g, topoName)
	}

	n.FoldCounters()
	res.FabricBytes = n.FabricBytes()
	res.DataBytes = n.Counters.Get("bytes_data")
	res.AckBytes = n.Counters.Get("bytes_ack")
	res.ProbeBytes = n.Counters.Get("bytes_probe")
	res.TagBytes = n.Counters.Get("bytes_tag_overhead")
	res.QueueDrops = n.Counters.Get("drop_queue")
	res.LinkDownDrops = n.Counters.Get("drop_linkdown")
	res.NodeDownDrops = n.Counters.Get("drop_nodedown")
	res.LoopBreaks = n.Counters.Get("loop_break")
	res.ProbeAggOn = s.ProbePacking || s.SuppressEps > 0 || s.RefreshEvery > 0
	res.ProbeTxSaved = n.Counters.Get("probe_tx_saved")
	res.ProbeSuppressed = n.Counters.Get("probe_suppressed")
	if chaosRT != nil {
		rep := chaosRT.Report()
		res.Swaps = rep.Swaps
		res.ProbeLossSeen = rep.ProbeLossSeen
		res.ProbeLossDropped = rep.ProbeLossDropped
		res.ProbeLossFrac = rep.ProbeLossFrac()
	}
	if rec != nil {
		res.TraceLevel = rec.Level().String()
		res.TraceFlows, res.TraceDecisions, res.TraceDivergent = rec.Totals()
		res.Trace = rec
	}
	if mrec != nil {
		res.MetricsOn = true
		res.MetricsSamples = mrec.Samples()
		res.Metrics = mrec
	}
	if n.DataPkts > 0 {
		res.LoopedFrac = float64(n.LoopedPkts) / float64(n.DataPkts)
	}
	res.QueueMSS = n.QueueMSS
	res.SimulatedNs = e.Now()
	if n.RxSeries != nil {
		res.BinNs = s.BinNs
		pts := n.RxSeries.Points()
		res.Series = make([]stats.Point, len(pts))
		for i, p := range pts {
			res.Series[i] = stats.Point{T: p.T, V: n.RxSeries.Rate(p.V)}
		}
		analyzeRecovery(&s, res)
	}
	res.WallTime = time.Since(wallStart)
	return res, nil
}

// measureFCT is the FCT measurement shape, shared by fct, cohorts and
// their recorded traces. Events inject before the warmup run so a
// script can disrupt the control plane itself; the workload is offered
// after it and drained until every flow completes or the offer's
// deadline passes.
func measureFCT(s *Scenario, e *sim.Engine, n *sim.Network, warmup int64, netEvents []sim.NetworkEvent, offer func() (*offered, error), res *Result) (*offered, error) {
	n.Inject(netEvents...)
	e.Run(warmup)
	o, err := offer()
	if err != nil {
		return nil, err
	}
	var classes *classCollector
	if s.ClassStats {
		classes = newClassCollector(s.ElephantBytes)
		n.FlowDone = classes.add
	}
	startFlows(s, e, n, warmup, o.flows)
	// Run until all flows complete or the drain budget expires; under
	// extreme load some flows stay incomplete and the FCT statistics
	// cover the completed ones, as in testbed practice.
	for e.Now() < o.meta.DeadlineNs && n.CompletedFlows() < int64(len(o.flows)) {
		e.Run(e.Now() + 10_000_000)
	}
	res.Dist = o.meta.Dist
	res.Pattern = o.meta.Pattern
	res.Load = o.meta.Load
	res.Flows = len(o.flows)
	res.Completed = n.CompletedFlows()
	res.MeanFCT = n.FCT.Mean()
	res.P50FCT = n.FCT.Quantile(0.5)
	res.P95FCT = n.FCTQuant.Quantile(0.95)
	res.P99FCT = n.FCT.Quantile(0.99)
	if classes != nil {
		res.Classes = classes.stats()
	}
	return o, nil
}

// measureCBR is the throughput measurement shape, shared by cbr and its
// recorded traces. Flow starts are scheduled before the event script —
// the ordering the original failover harness used — so historical seeds
// replay identically; the run then goes straight to the offer's end.
func measureCBR(s *Scenario, e *sim.Engine, n *sim.Network, warmup int64, netEvents []sim.NetworkEvent, offer func() (*offered, error), res *Result) (*offered, error) {
	o, err := offer()
	if err != nil {
		return nil, err
	}
	startFlows(s, e, n, warmup, o.flows)
	n.Inject(netEvents...)
	e.Run(o.meta.EndNs)
	res.Flows = len(o.flows)
	res.RateBps = o.meta.RateBps
	return o, nil
}

// startFlows schedules the offered flows and, with SampleQueues, the
// fabric queue sampler from the end of warmup on.
func startFlows(s *Scenario, e *sim.Engine, n *sim.Network, warmup int64, flows []sim.FlowSpec) {
	n.StartFlows(flows)
	if s.SampleQueues {
		e.Every(warmup, 100_000, n.SampleQueues)
	}
}

// RecoveryWindow is the failover analysis of one disruption instant:
// the delivered-throughput baseline immediately before it, the deepest
// dip afterwards, and how long throughput stayed depressed. Disruptions
// scheduled at the same nanosecond (a multi-link failure) coalesce into
// one window.
type RecoveryWindow struct {
	Kind        EventKind `json:"kind"`
	AtNs        int64     `json:"at_ns"`
	BaselineBps float64   `json:"baseline_bps"`
	MinBps      float64   `json:"min_bps"`
	RecoveryNs  int64     `json:"recovery_ns"`
}

// disruptionSeverity orders coalescing: when several disruptions land
// on the same nanosecond, the merged window is labeled with the most
// severe kind — a whole-switch failure over a link failure over a
// degradation.
func disruptionSeverity(k EventKind) int {
	switch k {
	case SwitchDown:
		return 3
	case LinkDown:
		return 2
	case Degrade:
		return 1
	}
	return 0
}

// disruptions returns the runtime disruption instants in time order. A
// disruption is a switch_down, a link_down at AtNs > 0, or a degrade
// that actually shrinks bandwidth (0 < Scale < 1); switch_up, link_up
// and degrade-restores are recovery actions, not disruptions, so they
// bound the preceding window instead of opening one of their own.
//
// Overlapping disruptions merge by splitting the timeline: each
// disruption closes the previous window at its own instant and opens
// its own (analyzeRecovery bounds every window at the next disruption
// and anchors a nested disruption's baseline at the previous one), so
// a switch_down landing inside an open link_down window yields two
// windows — the link_down's, measured up to the switch failure, and
// the switch_down's, measured against the already-degraded throughput
// delivered between the two events. Disruptions at the same nanosecond
// coalesce into one window labeled with the most severe kind.
func (s *Scenario) disruptions() []RecoveryWindow {
	var ds []RecoveryWindow
	for _, ev := range s.Events {
		if ev.AtNs <= 0 {
			continue
		}
		switch {
		case ev.Kind == LinkDown || ev.Kind == SwitchDown:
		case ev.Kind == Degrade && ev.Scale > 0 && ev.Scale < 1:
		default:
			continue
		}
		ds = append(ds, RecoveryWindow{Kind: ev.Kind, AtNs: ev.AtNs})
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].AtNs < ds[j].AtNs })
	out := ds[:0]
	for _, d := range ds {
		if len(out) > 0 && out[len(out)-1].AtNs == d.AtNs {
			if disruptionSeverity(d.Kind) > disruptionSeverity(out[len(out)-1].Kind) {
				out[len(out)-1].Kind = d.Kind
			}
			continue
		}
		out = append(out, d)
	}
	return out
}

// analyzeRecovery derives the failover metrics from the throughput
// series, one window per disruption instant: pre-event baseline,
// deepest post-event dip, and the time the series stayed depressed
// below the pre-event floor. Each window is bounded by the next
// disruption, so a script with several failures reports each on its
// own (ROADMAP: generalize the one-disruption-per-run assumption).
func analyzeRecovery(s *Scenario, res *Result) {
	wins := s.disruptions()
	if len(wins) == 0 {
		return
	}
	end := s.Workload.EndNs
	if end == 0 {
		end = res.SimulatedNs
	}
	for i := range wins {
		w := &wins[i]
		// Baseline: mean and floor of the bins in the 10ms before the
		// disruption. Residual measurement noise shows up in the
		// pre-failure floor, so "depressed" means below that floor,
		// not below the mean. For a disruption that follows another
		// within 10ms the baseline starts at the previous disruption,
		// so it reflects the throughput actually delivered just before
		// this event rather than mixing in healthy bins whose floor
		// would mask the new dip.
		lo := w.AtNs - 10_000_000
		if i > 0 && wins[i-1].AtNs > lo {
			lo = wins[i-1].AtNs
		}
		var base, cnt float64
		floor := -1.0
		for _, p := range res.Series {
			if p.T >= lo && p.T < w.AtNs-s.BinNs {
				base += p.V
				cnt++
				if floor < 0 || p.V < floor {
					floor = p.V
				}
			}
		}
		if cnt > 0 {
			base /= cnt
		}
		w.BaselineBps = base
		w.MinBps = base
		// The window ends at the next disruption or the last full bin.
		limit := end - s.BinNs
		if i+1 < len(wins) && wins[i+1].AtNs < limit {
			limit = wins[i+1].AtNs
		}
		// Recovery: the end of the last bin still depressed below 99%
		// of the pre-disruption floor. A dip that never crosses the
		// threshold recovered within one bin.
		lastLow := int64(-1)
		for _, p := range res.Series {
			if p.T < w.AtNs || p.T >= limit {
				continue
			}
			if p.V < w.MinBps {
				w.MinBps = p.V
			}
			if p.V < 0.99*floor {
				lastLow = p.T + s.BinNs
			}
		}
		switch {
		case base <= 0:
			w.RecoveryNs = -1
		case lastLow < 0:
			w.RecoveryNs = s.BinNs
		default:
			w.RecoveryNs = lastLow - w.AtNs
		}
	}
	res.Recoveries = wins
	// The historical top-level fields report the first disruption.
	res.FailAtNs = wins[0].AtNs
	res.BaselineBps = wins[0].BaselineBps
	res.MinBps = wins[0].MinBps
	res.RecoveryNs = wins[0].RecoveryNs
}

// mustDist resolves a distribution name, defaulting to web-search on
// the empty string; Validate vets spec files, so an unknown name here
// is a programming error.
func mustDist(name string) *workload.Distribution {
	if name == "" {
		return workload.WebSearch()
	}
	d, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return d
}
