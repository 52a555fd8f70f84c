package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"contra/internal/baseline"
	"contra/internal/cliutil"
	"contra/internal/core"
	"contra/internal/dataplane"
	"contra/internal/policy"
	"contra/internal/scenario"
	"contra/internal/sim"
	"contra/internal/stats"
	"contra/internal/topo"
	"contra/internal/workload"
)

// This file rebuilds one campaign cell from the layers' exported calls,
// in the order scenario.Run makes them, so the benchmark can time each
// layer from outside. It covers what the benchmark's workloads use: the
// contra and ecmp schemes, fct and cbr workloads, and link events.

// drainChunkNs is scenario.Run's drain step: an fct cell runs in 10 ms
// slices until every flow completes or the deadline passes, so the
// chunking decides where the run stops and therefore SimulatedNs.
const drainChunkNs = 10_000_000

// filled applies the scenario defaults scenario.Run applies (§6.3 probe
// period, websearch sizes, 20 ms window, 1 s drain, 4000 flows,
// Figure 14's CBR rate and horizon) to the fields the rebuild reads.
func filled(sc scenario.Scenario) scenario.Scenario {
	if sc.Scheme == "" {
		sc.Scheme = scenario.SchemeContra
	}
	if sc.Policy == "" {
		sc.Policy = "minimize(path.util)"
	}
	if sc.ProbePeriodNs == 0 {
		sc.ProbePeriodNs = 256_000
	}
	w := &sc.Workload
	if w.Kind == "" {
		w.Kind = scenario.WorkloadFCT
	}
	switch w.Kind {
	case scenario.WorkloadFCT:
		if w.Dist == "" {
			w.Dist = "websearch"
		}
		if w.DurationNs == 0 {
			w.DurationNs = 20_000_000
		}
		if w.DrainNs == 0 {
			w.DrainNs = 1_000_000_000
		}
		if w.MaxFlows == 0 {
			w.MaxFlows = 4000
		}
	case scenario.WorkloadCBR:
		if w.RateBps == 0 {
			w.RateBps = 4.25e9
		}
		if w.EndNs == 0 {
			w.EndNs = 80_000_000
		}
		if sc.BinNs == 0 {
			sc.BinNs = 500_000
		}
	}
	return sc
}

// rebuildable reports why the rebuild cannot reproduce a scenario, or
// nil when it can.
func rebuildable(sc scenario.Scenario) error {
	switch sc.Scheme {
	case scenario.SchemeContra, scenario.SchemeECMP, "":
	default:
		return fmt.Errorf("cellbench: rebuild does not cover scheme %q", sc.Scheme)
	}
	switch sc.Workload.Kind {
	case scenario.WorkloadFCT, scenario.WorkloadCBR, "":
	default:
		return fmt.Errorf("cellbench: rebuild does not cover workload kind %q", sc.Workload.Kind)
	}
	if sc.Topo != nil || sc.TrackLoops || sc.SampleQueues || sc.ClassStats || sc.TraceLevel != "" ||
		sc.MetricsIntervalNs != 0 || sc.SuppressEps != 0 || sc.RefreshEvery != 0 ||
		sc.FlowletTimeoutNs != 0 || sc.FailureDetectPeriods != 0 || len(sc.Workload.Pairs) > 0 {
		return fmt.Errorf("cellbench: rebuild does not cover the optional knobs of scenario %q", sc.Name)
	}
	for _, ev := range sc.Events {
		if ev.Kind != scenario.LinkDown && ev.Kind != scenario.LinkUp {
			return fmt.Errorf("cellbench: rebuild does not cover %s events", ev.Kind)
		}
	}
	return nil
}

// warmupNs is the control-plane warmup scenario.Run runs before any
// traffic: 12 probe periods.
func warmupNs(sc scenario.Scenario) int64 { return 12 * sc.ProbePeriodNs }

// fctFlows generates an fct cell's flows with the configuration
// scenario.Run passes to workload.Generate.
func fctFlows(sc scenario.Scenario, g *topo.Graph) ([]sim.FlowSpec, error) {
	w := sc.Workload
	dist, err := workload.ByName(w.Dist)
	if err != nil {
		return nil, err
	}
	capacity := w.CapacityBps
	if capacity == 0 {
		capacity = scenario.FabricCapacity(g)
	}
	senders, receivers := workload.SplitHosts(g)
	return workload.Generate(g, workload.Config{
		Dist: dist, Senders: senders, Receivers: receivers,
		Pattern: w.Pattern, IncastTargets: w.IncastTargets,
		Load: w.Load, CapacityBps: capacity,
		StartNs: warmupNs(sc), DurationNs: w.DurationNs,
		Seed: sc.Seed, MaxFlows: w.MaxFlows,
	}), nil
}

// cbrFlows builds a cbr cell's streams as scenario.Run does: each
// sender paired with a receiver a quarter of the host set away, the
// per-stream rate snapped so a bin holds a whole number of packets.
func cbrFlows(sc scenario.Scenario, g *topo.Graph) []sim.FlowSpec {
	senders, receivers := workload.SplitHosts(g)
	per := sc.Workload.RateBps / float64(len(senders))
	pktBits := float64((sim.MSS + sim.FrameHeader) * 8)
	divisions := int64(float64(sc.BinNs)/(pktBits/per*1e9) + 0.5)
	if divisions < 1 {
		divisions = 1
	}
	per = pktBits * float64(divisions) / float64(sc.BinNs) * 1e9
	var flows []sim.FlowSpec
	for i, src := range senders {
		dst := receivers[(i+len(receivers)/4+1)%len(receivers)]
		for tries := 0; g.HostEdge(src) == g.HostEdge(dst) && tries < len(receivers); tries++ {
			dst = receivers[(i+len(receivers)/4+1+tries)%len(receivers)]
		}
		flows = append(flows, sim.FlowSpec{ID: uint64(i + 1), Src: src, Dst: dst, RateBps: per, Start: warmupNs(sc)})
	}
	return flows
}

// cbrSentPkts counts the packets a cbr cell's streams emit up to its
// horizon: one every gap from the warmup on, the horizon included.
func cbrSentPkts(sc scenario.Scenario, flows []sim.FlowSpec) int64 {
	var sent int64
	for _, f := range flows {
		gap := int64(float64((sim.MSS+sim.FrameHeader)*8) / f.RateBps * 1e9)
		if gap < 1 {
			gap = 1
		}
		sent += (sc.Workload.EndNs-f.Start)/gap + 1
	}
	return sent
}

// cell is one rebuilt scenario, set up and ready to run.
type cell struct {
	sc     scenario.Scenario
	g      *topo.Graph
	e      *sim.Engine
	n      *sim.Network
	events []sim.NetworkEvent
	pids   int
	// hs collects the wrapped routers' Handle counts and times.
	hs *handleStats
}

// linkEvents resolves a scenario's link events on g as scenario.Run
// does: links failed at or before time 0 are set down on the graph, the
// rest become network events.
func linkEvents(sc scenario.Scenario, g *topo.Graph) ([]sim.NetworkEvent, error) {
	var events []sim.NetworkEvent
	for _, ev := range sc.Events {
		var id topo.LinkID
		var err error
		if ev.Link == "" || ev.Link == "auto" {
			id, err = scenario.AutoFailLink(g)
		} else {
			id, err = cliutil.FindLink(g, ev.Link)
		}
		if err != nil {
			return nil, err
		}
		if ev.Kind == scenario.LinkDown && ev.AtNs <= 0 {
			g.SetDown(id, true)
			continue
		}
		ne := sim.NetworkEvent{At: ev.AtNs, Link: id, Kind: sim.EvLinkDown}
		if ev.Kind == scenario.LinkUp {
			ne.Kind = sim.EvLinkUp
		}
		events = append(events, ne)
	}
	return events, nil
}

// engineSeed offsets the engine seed per workload kind exactly as
// scenario.Run does (fct seed+1, cbr seed+5).
func engineSeed(sc scenario.Scenario) int64 {
	if sc.Workload.Kind == scenario.WorkloadCBR {
		return sc.Seed + 5
	}
	return sc.Seed + 1
}

// programSetup runs scenario.Run's set-up through the program's own
// exported calls, as setup_s times it: Validate, the topology, link
// events, engine and network, scenario.Deploy and Start. It leaves out
// what scenario.Run does there through unexported code (fill and event
// resolution, for which filled and linkEvents stand in) and what the
// benchmark's cells do not use (trace and metrics recorders, the chaos
// plan, replay loading).
func programSetup(sc scenario.Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	sc = filled(sc)
	g, err := cliutil.BuildTopology(sc.TopoSpec)
	if err != nil {
		return err
	}
	if _, err := linkEvents(sc, g); err != nil {
		return err
	}
	n := sim.NewNetwork(sim.NewEngine(engineSeed(sc)), g, sim.Config{})
	opts := core.Options{ProbePeriodNs: sc.ProbePeriodNs, ProbePacking: sc.ProbePacking}
	if _, _, err := scenario.Deploy(n, sc.Scheme, g, sc.Policy, opts, nil, nil, nil); err != nil {
		return err
	}
	if sc.BinNs > 0 {
		n.RxSeries = stats.NewTimeseries(sc.BinNs)
	}
	n.Start()
	return nil
}

// setupCell runs the set-up half of scenario.Run for the traced
// rebuild, with the layers' calls split so each gets its own span:
// topology, link events, engine and network, policy parse and compile,
// router deploy and attach. Every switch's router is wrapped so its
// Handle calls are counted and timed in hs. Spans go to tr under parent.
func setupCell(sc scenario.Scenario, tr *tracer, parent int, hs *handleStats) (*cell, error) {
	if err := rebuildable(sc); err != nil {
		return nil, err
	}
	sc = filled(sc)
	c := &cell{sc: sc, hs: hs}

	sp := tr.start("topo.build", parent)
	g, err := cliutil.BuildTopology(sc.TopoSpec)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	c.g = g
	if c.events, err = linkEvents(sc, g); err != nil {
		return nil, err
	}

	sp = tr.start("sim.network", parent)
	c.e = sim.NewEngine(engineSeed(sc))
	c.n = sim.NewNetwork(c.e, g, sim.Config{})
	tr.finish(sp)
	hs.eng = c.e

	switch sc.Scheme {
	case scenario.SchemeContra:
		sp = tr.start("policy.parse", parent)
		pol, err := policy.Parse(sc.Policy, policy.ParseOptions{Symbols: g.SortedNames()})
		tr.finish(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("core.compile", parent)
		comp, err := core.Compile(g, pol, core.Options{ProbePeriodNs: sc.ProbePeriodNs, ProbePacking: sc.ProbePacking})
		tr.finish(sp)
		if err != nil {
			return nil, err
		}
		c.pids = comp.Stats.Pids
		sp = tr.start("dataplane.deploy", parent)
		fleet := dataplane.DeployFleet(c.n, comp)
		for _, id := range g.Switches() {
			c.n.SetRouter(id, &countingRouter{inner: fleet.Router(id), hs: hs})
		}
	default:
		sp = tr.start("baseline.deploy", parent)
		for _, id := range g.Switches() {
			c.n.SetRouter(id, &countingRouter{inner: baseline.NewECMP(), hs: hs})
		}
	}
	if sc.BinNs > 0 {
		c.n.RxSeries = stats.NewTimeseries(sc.BinNs)
	}
	c.n.Start()
	tr.finish(sp)
	return c, nil
}

// runCell runs the simulated half of scenario.Run on a cell set up with
// wrapped routers and returns the deterministic facts it produced.
// Spans go to tr under parent, and per-layer counters to lay: the event
// loop's allocations, its self time (the sim.run span minus the router
// Handle time inside it), and the Handle counts and times.
func runCell(c *cell, tr *tracer, parent int, lay layers) (facts, error) {
	sc, e, n := c.sc, c.e, c.n
	warmup := warmupNs(sc)
	var flows []sim.FlowSpec
	var deadline int64
	var err error
	var handleBefore int64
	var runDur time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	if sc.Workload.Kind == scenario.WorkloadCBR {
		// runCBR schedules streams before the event script and then
		// runs straight to the horizon; pausing at the warmup boundary
		// leaves the event order unchanged.
		sp := tr.start("workload.generate", parent)
		flows = cbrFlows(sc, c.g)
		tr.finish(sp)
		n.StartFlows(flows)
		n.Inject(c.events...)
		sp = tr.start("sim.warmup", parent)
		e.Run(warmup)
		tr.finish(sp)
		handleBefore = c.hs.totalNs()
		sp = tr.start("sim.run", parent)
		e.Run(sc.Workload.EndNs)
		runDur = tr.finish(sp)
	} else {
		n.Inject(c.events...)
		sp := tr.start("sim.warmup", parent)
		e.Run(warmup)
		tr.finish(sp)
		sp = tr.start("workload.generate", parent)
		flows, err = fctFlows(sc, c.g)
		tr.finish(sp)
		if err != nil {
			return facts{}, err
		}
		if len(flows) == 0 {
			return facts{}, fmt.Errorf("cellbench: cell %q generated no flows", sc.Name)
		}
		deadline = warmup + sc.Workload.DurationNs + sc.Workload.DrainNs
		handleBefore = c.hs.totalNs()
		sp = tr.start("sim.run", parent)
		n.StartFlows(flows)
		for e.Now() < deadline && n.CompletedFlows() < int64(len(flows)) {
			e.Run(e.Now() + drainChunkNs)
		}
		runDur = tr.finish(sp)
	}
	runtime.ReadMemStats(&m1)
	lay.add("sim.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	lay.add("sim.mallocs", float64(m1.Mallocs-m0.Mallocs))
	lay.add("sim.gc_cycles", float64(m1.NumGC-m0.NumGC))
	lay.add("sim.self_s", (runDur - time.Duration(c.hs.totalNs()-handleBefore)).Seconds())

	n.FoldCounters()
	f := facts{
		Flows:         len(flows),
		Completed:     n.CompletedFlows(),
		FabricBytes:   n.FabricBytes(),
		DataBytes:     n.Counters.Get("bytes_data"),
		AckBytes:      n.Counters.Get("bytes_ack"),
		ProbeBytes:    n.Counters.Get("bytes_probe"),
		TagBytes:      n.Counters.Get("bytes_tag_overhead"),
		QueueDrops:    n.Counters.Get("drop_queue"),
		LinkDownDrops: n.Counters.Get("drop_linkdown"),
		ProbeTxSaved:  n.Counters.Get("probe_tx_saved"),
		SimulatedNs:   e.Now(),
	}
	if sc.Workload.Kind != scenario.WorkloadCBR {
		f.MeanFCT = n.FCT.Mean()
		f.P50FCT = n.FCT.Quantile(0.5)
		f.P95FCT = n.FCTQuant.Quantile(0.95)
		f.P99FCT = n.FCT.Quantile(0.99)
	}
	if n.RxSeries != nil {
		for _, p := range n.RxSeries.Points() {
			f.Series = append(f.Series, stats.Point{T: p.T, V: n.RxSeries.Rate(p.V)})
		}
	}

	lay.add("sim.queue_drops", f.QueueDrops)
	lay.add("dataplane.probe_tx_saved", f.ProbeTxSaved)
	lay.add("workload.flows", float64(len(flows)))
	lay.add("core.pids", float64(c.pids))
	offered := workload.OfferedBytes(flows)
	if sc.Workload.Kind == scenario.WorkloadCBR {
		offered = float64(cbrSentPkts(sc, flows) * (sim.MSS + sim.FrameHeader))
	}
	lay.add("sim.host_data_bytes", float64(c.hs.hostDataBytes))
	lay.add("sim.offered_bytes", offered)
	lay.max("sim.pending_peak", float64(c.hs.pendingPeak))
	layer := "dataplane"
	if sc.Scheme == scenario.SchemeECMP {
		layer = "baseline"
	}
	for k, name := range [...]string{sim.Data: "data", sim.Ack: "ack", sim.Probe: "probe"} {
		if layer == "baseline" && sim.Kind(k) == sim.Probe {
			continue
		}
		lay.add(layer+"."+name+"_pkts", float64(c.hs.pkts[k]))
		lay.add(layer+"."+name+"_s", float64(c.hs.ns[k])/1e9)
	}
	return f, nil
}

// facts are the deterministic fields of a scenario.Result that the
// rebuild reproduces: flow counts, FCT quantiles, byte and drop
// counters, simulated time and the delivered-throughput series the
// failover analysis reads.
type facts struct {
	Flows         int
	Completed     int64
	MeanFCT       float64
	P50FCT        float64
	P95FCT        float64
	P99FCT        float64
	FabricBytes   float64
	DataBytes     float64
	AckBytes      float64
	ProbeBytes    float64
	TagBytes      float64
	QueueDrops    float64
	LinkDownDrops float64
	ProbeTxSaved  float64
	SimulatedNs   int64
	Series        []stats.Point
}

// resultFacts extracts the same fields from scenario.Run's Result.
func resultFacts(r *scenario.Result) facts {
	return facts{
		Flows: r.Flows, Completed: r.Completed,
		MeanFCT: r.MeanFCT, P50FCT: r.P50FCT, P95FCT: r.P95FCT, P99FCT: r.P99FCT,
		FabricBytes: r.FabricBytes, DataBytes: r.DataBytes, AckBytes: r.AckBytes,
		ProbeBytes: r.ProbeBytes, TagBytes: r.TagBytes,
		QueueDrops: r.QueueDrops, LinkDownDrops: r.LinkDownDrops,
		ProbeTxSaved: r.ProbeTxSaved, SimulatedNs: r.SimulatedNs,
		Series: r.Series,
	}
}

// handleStats aggregates the Handle calls of one cell's routers by
// packet kind. Only counters are kept: a cell handles tens of millions
// of packets, far too many for one span each.
type handleStats struct {
	eng           *sim.Engine
	pkts          [3]int64 // indexed by sim.Kind
	ns            [3]int64
	hostDataBytes int64 // data bytes entering the fabric from hosts
	pendingPeak   int
}

func (h *handleStats) totalNs() int64 {
	return h.ns[0] + h.ns[1] + h.ns[2]
}

// countingRouter decorates a switch's router: it counts and times each
// Handle call by packet kind and samples the event queue's size.
// Handle's time includes the work it triggers synchronously, such as
// enqueueing on a channel and host delivery. Router timers (probe
// origination, packed-probe flushes) run outside Handle.
type countingRouter struct {
	inner sim.Router
	sw    *sim.SwitchDev
	hs    *handleStats
}

func (r *countingRouter) Attach(sw *sim.SwitchDev) {
	r.sw = sw
	r.inner.Attach(sw)
}

func (r *countingRouter) Handle(pkt *sim.Packet, inPort int) {
	// Handle owns the packet and may recycle it: read it first.
	kind := pkt.Kind
	if kind == sim.Data && r.sw.IsHostPort(inPort) {
		r.hs.hostDataBytes += int64(pkt.Size)
	}
	if p := r.hs.eng.Pending(); p > r.hs.pendingPeak {
		r.hs.pendingPeak = p
	}
	t0 := time.Now()
	r.inner.Handle(pkt, inPort)
	r.hs.ns[kind] += int64(time.Since(t0))
	r.hs.pkts[kind]++
}

// Reboot forwards a switch reboot to the wrapped router when it keeps
// soft state (sim.Rebooter).
func (r *countingRouter) Reboot() {
	if rb, ok := r.inner.(sim.Rebooter); ok {
		rb.Reboot()
	}
}

// span is one timed phase of a traced run; Parent 0 marks a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory; they are written out when the
// run ends. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: int64(time.Since(t.origin))})
	return len(t.spans)
}

// finish closes a span and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.origin))
	return time.Duration(s.EndNs - s.StartNs)
}

// layers accumulates per-layer metrics by name.
type layers map[string]float64

func (l layers) add(name string, v float64) { l[name] += v }

func (l layers) max(name string, v float64) {
	if v > l[name] {
		l[name] = v
	}
}
