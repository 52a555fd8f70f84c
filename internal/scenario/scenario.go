// Package scenario is the declarative experiment layer: a Scenario
// value describes one complete simulation — topology, routing scheme
// and policy, offered workload, and a timed script of network events
// (failures, recoveries, capacity degradations, traffic surges) — and
// Run executes it deterministically on the packet-level simulator.
//
// Scenarios are plain data: construct them in Go, or decode them from
// the JSON spec format used by campaign files. The same engine backs
// the contra facade (RunScenario), the figure driver, the benchmarks
// and examples, and the contracamp campaign runner, so every
// experiment in the repo flows through one code path.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"

	"contra/internal/topo"
	"contra/internal/trace"
	"contra/internal/workload"
)

// Scheme names a routing system under test.
type Scheme string

// Supported schemes.
const (
	SchemeContra Scheme = "contra"
	SchemeECMP   Scheme = "ecmp"
	SchemeHula   Scheme = "hula"
	SchemeSpain  Scheme = "spain"
	SchemeSP     Scheme = "sp"
)

// Schemes lists every supported scheme (CLI help, campaign specs).
func Schemes() []Scheme {
	return []Scheme{SchemeContra, SchemeECMP, SchemeHula, SchemeSpain, SchemeSP}
}

// EventKind names a scripted scenario event.
type EventKind string

// Scenario event kinds.
const (
	// LinkDown fails a link at AtNs. An event with AtNs <= 0 pre-fails
	// the link in the topology itself, before routers deploy: baselines
	// that compute static tables offline (sp, spain) see it, which is
	// how the paper's "asymmetric" setups are modeled.
	LinkDown EventKind = "link_down"
	// LinkUp restores a previously failed link.
	LinkUp EventKind = "link_up"
	// Degrade multiplies a link's nominal bandwidth by Scale
	// (0 < Scale < 1 degrades; Scale <= 0 restores nominal).
	Degrade EventKind = "degrade"
	// Surge injects extra FCT traffic at Load fraction of fabric
	// capacity over [AtNs, AtNs+DurationNs]. FCT workloads only.
	Surge EventKind = "surge"
	// SwitchDown fails a whole switch at AtNs: every attached port
	// goes dark, packets in flight toward it are lost, and anything it
	// transmits is dropped. Node selects the switch ("auto" picks the
	// first core switch, falling back to agg then any switch).
	SwitchDown EventKind = "switch_down"
	// SwitchUp reboots a failed switch: its links come back (unless
	// independently failed) and its learned forwarding/probe state is
	// flushed (Contra and HULA, via sim.Rebooter), so adaptive control
	// planes pay a cold-start warm-up; static-table baselines
	// (ecmp/sp/spain) resume with their offline-computed tables, which
	// is what those schemes model.
	SwitchUp EventKind = "switch_up"
	// ProbeLoss sets a probabilistic probe-drop rate (Rate in [0,1],
	// 0 clears) on a link (Link) or on every fabric link of a switch
	// (Node) from AtNs on. Drops are drawn from a dedicated RNG
	// deterministic in the scenario seed, so measurement noise
	// replays identically per seed. Only probes are affected.
	ProbeLoss EventKind = "probe_loss"
	// PolicySwap recompiles NewPolicy against the running topology at
	// arm time and atomically hot-swaps it into every Contra router at
	// AtNs, then measures the convergence window until every route
	// that was live just before the swap is live again under the new
	// policy (Result.Swaps). Contra scheme only.
	PolicySwap EventKind = "policy_swap"
	// Ramp is sugar for a diurnal load swell: it expands into a chain
	// of Surge steps rising linearly to Load over the first half of
	// DurationNs and falling back over the second half (Steps levels
	// each way, default 4). FCT workloads only.
	Ramp EventKind = "ramp"
)

// Event is one entry of a scenario's timed script. Times are absolute
// simulation nanoseconds; note that the workload starts only after the
// control-plane warmup (12 probe periods, ~3ms at the default probe
// period).
type Event struct {
	Kind EventKind `json:"kind"`
	AtNs int64     `json:"at_ns"`

	// Link selects the target of link events: "A-B" names two nodes,
	// and "auto" (or empty) picks the first edge-fabric link, the same
	// one the paper's Figure 14 experiment fails.
	Link string `json:"link,omitempty"`

	// Node selects the target switch of switch_down/switch_up, or the
	// switch whose fabric links a probe_loss covers; "auto" (or empty
	// for switch events) picks the first core switch.
	Node string `json:"node,omitempty"`

	// Scale is the Degrade bandwidth multiplier.
	Scale float64 `json:"scale,omitempty"`

	// Rate is the ProbeLoss drop probability in [0,1]; 0 clears.
	Rate float64 `json:"rate,omitempty"`

	// NewPolicy is the PolicySwap target policy source.
	NewPolicy string `json:"policy,omitempty"`

	// Load and DurationNs shape a Surge or a Ramp.
	Load       float64 `json:"load,omitempty"`
	DurationNs int64   `json:"duration_ns,omitempty"`

	// Steps is the Ramp resolution: load levels per ramp direction
	// (default 4, so a ramp expands into 7 surge segments).
	Steps int `json:"steps,omitempty"`
}

// Workload kinds.
const (
	// WorkloadFCT offers Poisson flow arrivals from an empirical size
	// distribution and measures flow completion times.
	WorkloadFCT = "fct"
	// WorkloadCBR offers steady constant-bit-rate (UDP-like) flows and
	// measures a delivered-throughput time series — the Figure 14
	// failover workload.
	WorkloadCBR = "cbr"
	// WorkloadCohorts composes named client cohorts — each with its own
	// interarrival process, size distribution, temporal profile, and
	// placement policy — into one FCT-measured load (docs/workloads.md).
	WorkloadCohorts = "cohorts"
	// WorkloadTrace replays a recorded v1 flow trace
	// (docs/trace-format.md) byte-deterministically: the trace's flows
	// are offered exactly as captured and the run is measured like the
	// recording's kind.
	WorkloadTrace = "trace"
)

// Workload describes a scenario's offered traffic.
type Workload struct {
	// Kind is "fct" (default) or "cbr".
	Kind string `json:"kind,omitempty"`

	// FCT knobs.
	Dist       string  `json:"dist,omitempty"`        // websearch (default) | cache
	Load       float64 `json:"load,omitempty"`        // fraction of fabric capacity
	DurationNs int64   `json:"duration_ns,omitempty"` // arrival window; default 20ms
	DrainNs    int64   `json:"drain_ns,omitempty"`    // post-arrival budget; default 1s
	MaxFlows   int     `json:"max_flows,omitempty"`   // default 4000

	// Pattern selects the traffic pattern: "random" (default),
	// "incast", or "all_to_all" (workload.Patterns). FCT workloads
	// only; ignored when Pairs is set.
	Pattern string `json:"pattern,omitempty"`

	// IncastTargets bounds the hot receiver set of the incast pattern
	// (<= 0 means 1).
	IncastTargets int `json:"incast_targets,omitempty"`

	// CapacityBps normalizes Load; 0 derives it from the topology's
	// fabric links.
	CapacityBps float64 `json:"capacity_bps,omitempty"`

	// Pairs restricts traffic to fixed sender-receiver host pairs
	// (§6.4's Abilene experiment), named by topology node.
	Pairs [][2]string `json:"pairs,omitempty"`

	// DistObj, when non-nil, overrides Dist with a custom distribution
	// built via workload.NewDistribution (Go construction only — not
	// expressible in JSON specs).
	DistObj *workload.Distribution `json:"-"`

	// CBR knobs.
	RateBps float64 `json:"rate_bps,omitempty"` // aggregate; default 4.25 Gbps
	EndNs   int64   `json:"end_ns,omitempty"`   // absolute end; default 80ms

	// Cohorts declares the cohorts workload's client populations
	// (kind "cohorts" only). Load, when set (the campaign load axis),
	// scales every cohort's rate together.
	Cohorts []workload.CohortSpec `json:"cohorts,omitempty"`

	// TracePath locates the recorded flow trace of a trace workload
	// (kind "trace" only): a trace file, or a record directory in which
	// each campaign cell resolves its own trace by cell name.
	TracePath string `json:"trace,omitempty"`
}

// Scenario is one declarative experiment.
type Scenario struct {
	Name string `json:"name,omitempty"`

	// TopoSpec builds the topology (the cliutil.BuildTopology syntax:
	// "dc", "fattree:8", "leafspine:4:4:2", "abilene+hosts", "@file").
	// A non-nil Topo overrides it.
	TopoSpec string      `json:"topo"`
	Topo     *topo.Graph `json:"-"`

	Scheme Scheme `json:"scheme"`
	Policy string `json:"policy,omitempty"` // Contra only; default minimize(path.util)
	Seed   int64  `json:"seed,omitempty"`

	Workload Workload `json:"workload"`
	Events   []Event  `json:"events,omitempty"`

	// Script labels the event script for campaign grouping.
	Script string `json:"script,omitempty"`

	// Protocol knobs (§6.3 defaults when zero).
	ProbePeriodNs        int64 `json:"probe_period_ns,omitempty"`
	FlowletTimeoutNs     int64 `json:"flowlet_timeout_ns,omitempty"`
	FailureDetectPeriods int   `json:"failure_detect_periods,omitempty"`

	// Probe aggregation knobs (contra and hula; no-ops for static
	// schemes). ProbePacking batches per-origin probes into one packed
	// probe per port per period. SuppressEps / RefreshEvery enable
	// delta suppression: setting either turns it on (RefreshEvery
	// defaults to 4 periods when only the epsilon is given), and
	// suppressed origins are force-refreshed every RefreshEvery
	// periods. Defaults-off preserves the historical byte-identical
	// probe protocol.
	ProbePacking bool    `json:"probe_packing,omitempty"`
	SuppressEps  float64 `json:"suppress_eps,omitempty"`
	RefreshEvery int     `json:"refresh_every,omitempty"`

	// BinNs enables the delivered-throughput time series (and, with a
	// link_down event, recovery analysis). CBR defaults to 500us.
	BinNs int64 `json:"bin_ns,omitempty"`

	SampleQueues bool `json:"sample_queues,omitempty"`
	TrackLoops   bool `json:"track_loops,omitempty"`

	// TraceLevel attaches the decision-trace recorder: "flows" keeps
	// per-flow summaries (path, hops, queueing, FCT), "decisions"
	// additionally records every fresh forwarding decision with its
	// chosen and runner-up rank. Empty and "off" (normalized away by
	// fill) record nothing and leave the simulation byte-identical.
	TraceLevel string `json:"trace_level,omitempty"`

	// MetricsIntervalNs enables the time-series telemetry sampler: every
	// interval the network snapshots per-fabric-link utilization and
	// backlog, cumulative drops by reason, and per-router probe-table
	// churn/route flaps into internal/metrics ring buffers. 0 (the
	// default) is off and leaves the simulation byte-identical — the
	// sampler timer is never scheduled and every hook stays nil.
	MetricsIntervalNs int64 `json:"metrics_interval_ns,omitempty"`

	// ClassStats enables per-class FCT attribution on fct workloads:
	// elephant vs. mice quantiles split at ElephantBytes (default
	// 1MB), per-cohort (surge) stats, and Jain fairness indices over
	// per-flow throughput.
	ClassStats    bool  `json:"class_stats,omitempty"`
	ElephantBytes int64 `json:"elephant_bytes,omitempty"`

	// RecordFlows captures the materialized workload as a v1 flow trace
	// (Result.FlowTrace), the -record / -record-dir hook. Go-only and
	// excluded from the Key: recording observes a run, it never changes
	// one, so a recorded cell keys (and checkpoints) identically to an
	// unrecorded one.
	RecordFlows bool `json:"-"`

	// Overrides pins flows to an alternative forwarding choice — the
	// counterfactual replay hook, honored by the Contra data plane.
	// Go-only: replay artifacts never enter the canonical encoding or
	// the scenario Key.
	Overrides *trace.Overrides `json:"-"`

	// Pairs resolved from Workload.Pairs, or set directly in Go.
	PairIDs [][2]topo.NodeID `json:"-"`
}

// fill applies the paper's defaults in place and expands event sugar.
func (s *Scenario) fill() {
	if s.Scheme == "" {
		s.Scheme = SchemeContra
	}
	s.expandRamps()
	if s.Policy == "" {
		s.Policy = "minimize(path.util)"
	}
	if s.ProbePeriodNs == 0 {
		s.ProbePeriodNs = 256_000 // §6.3
	}
	if s.TraceLevel == "off" {
		// "off" and absent are the same level; normalizing here keeps
		// an explicit -trace-level off run byte-identical to one that
		// never mentioned tracing.
		s.TraceLevel = ""
	}
	if s.ClassStats && s.ElephantBytes == 0 {
		s.ElephantBytes = 1_000_000
	}
	w := &s.Workload
	if w.Kind == "" {
		w.Kind = WorkloadFCT
	}
	switch w.Kind {
	case WorkloadFCT:
		if w.Dist == "" && w.DistObj == nil {
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
	case WorkloadCohorts:
		// Cohort loads share the FCT window defaults; the size
		// distribution lives inside each cohort, so Dist stays empty.
		if w.DurationNs == 0 {
			w.DurationNs = 20_000_000
		}
		if w.DrainNs == 0 {
			w.DrainNs = 1_000_000_000
		}
		if w.MaxFlows == 0 {
			w.MaxFlows = 4000
		}
	case WorkloadCBR:
		if w.RateBps == 0 {
			w.RateBps = 4.25e9 // Figure 14
		}
		if w.EndNs == 0 {
			w.EndNs = 80_000_000
		}
		if s.BinNs == 0 {
			s.BinNs = 500_000
		}
	}
	// The trace kind fills nothing: its window, rates, and measurement
	// deadline all come from the recorded trace's meta line.
}

// Validate rejects malformed scenarios before they burn a worker.
func (s *Scenario) Validate() error {
	if s.Topo == nil && s.TopoSpec == "" {
		return fmt.Errorf("scenario %q: no topology", s.Name)
	}
	switch s.Scheme {
	case SchemeContra, SchemeECMP, SchemeHula, SchemeSpain, SchemeSP, "":
	default:
		return fmt.Errorf("scenario %q: unknown scheme %q", s.Name, s.Scheme)
	}
	switch s.Workload.Kind {
	case "", WorkloadFCT, WorkloadCBR, WorkloadCohorts, WorkloadTrace:
	default:
		return fmt.Errorf("scenario %q: unknown workload kind %q", s.Name, s.Workload.Kind)
	}
	if s.Workload.Dist != "" {
		if _, err := workload.ByName(s.Workload.Dist); err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
	}
	if !workload.ValidPattern(s.Workload.Pattern) {
		return fmt.Errorf("scenario %q: unknown traffic pattern %q (want one of %v)",
			s.Name, s.Workload.Pattern, workload.Patterns())
	}
	switch s.Workload.Kind {
	case WorkloadCohorts:
		// Cohorts own their sizes and placement; the flat FCT knobs
		// would silently be ignored, so reject them loudly.
		if s.Workload.Dist != "" {
			return fmt.Errorf("scenario %q: cohorts workload does not take dist %q (size distributions live in each cohort)", s.Name, s.Workload.Dist)
		}
		if s.Workload.Pattern != "" {
			return fmt.Errorf("scenario %q: cohorts workload does not take pattern %q (placement lives in each cohort)", s.Name, s.Workload.Pattern)
		}
		if len(s.Workload.Pairs) > 0 {
			return fmt.Errorf("scenario %q: cohorts workload does not take pairs", s.Name)
		}
		if err := workload.ValidateCohorts(s.Workload.Cohorts); err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
	case WorkloadTrace:
		if s.Workload.TracePath == "" {
			return fmt.Errorf("scenario %q: trace workload needs a trace file (workload.trace)", s.Name)
		}
		if s.Workload.Dist != "" || s.Workload.Pattern != "" || len(s.Workload.Pairs) > 0 || len(s.Workload.Cohorts) > 0 {
			return fmt.Errorf("scenario %q: trace workload takes only a trace path (generation knobs come from the recording)", s.Name)
		}
	default:
		if len(s.Workload.Cohorts) > 0 {
			return fmt.Errorf("scenario %q: cohorts require workload kind %q, not %q", s.Name, WorkloadCohorts, s.Workload.Kind)
		}
		if s.Workload.TracePath != "" {
			return fmt.Errorf("scenario %q: a trace path requires workload kind %q, not %q", s.Name, WorkloadTrace, s.Workload.Kind)
		}
	}
	if _, err := trace.ParseLevel(s.TraceLevel); err != nil {
		return fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	if s.ElephantBytes < 0 {
		return fmt.Errorf("scenario %q: elephant_bytes %d is negative", s.Name, s.ElephantBytes)
	}
	if s.MetricsIntervalNs < 0 {
		return fmt.Errorf("scenario %q: metrics_interval_ns %d is negative", s.Name, s.MetricsIntervalNs)
	}
	if s.Overrides != nil && s.Scheme != SchemeContra && s.Scheme != "" {
		return fmt.Errorf("scenario %q: counterfactual overrides require the contra scheme", s.Name)
	}
	if s.SuppressEps < 0 {
		return fmt.Errorf("scenario %q: suppress_eps %g is negative", s.Name, s.SuppressEps)
	}
	if s.RefreshEvery < 0 {
		return fmt.Errorf("scenario %q: refresh_every %d is negative", s.Name, s.RefreshEvery)
	}
	for i, ev := range s.Events {
		switch ev.Kind {
		case LinkDown, LinkUp, Degrade:
		case Surge:
			// Trace replays keep surge events as script labels: the surge
			// traffic itself is already materialized in the recording, so
			// replay offers it from the trace, not from the event.
			if k := s.Workload.Kind; k != "" && k != WorkloadFCT && k != WorkloadTrace {
				return fmt.Errorf("scenario %q: surge events require an fct workload", s.Name)
			}
			if ev.Load <= 0 || ev.DurationNs <= 0 {
				return fmt.Errorf("scenario %q: surge event %d needs load and duration_ns", s.Name, i)
			}
		case Ramp:
			if k := s.Workload.Kind; k != "" && k != WorkloadFCT && k != WorkloadTrace {
				return fmt.Errorf("scenario %q: ramp events require an fct workload", s.Name)
			}
			if ev.Load <= 0 || ev.DurationNs <= 0 {
				return fmt.Errorf("scenario %q: ramp event %d needs load and duration_ns", s.Name, i)
			}
			if ev.Steps < 0 {
				return fmt.Errorf("scenario %q: ramp event %d has negative steps", s.Name, i)
			}
		case SwitchDown, SwitchUp:
			// No pre-fail form: a switch that never exists is a
			// different topology, not an event.
			if ev.AtNs <= 0 {
				return fmt.Errorf("scenario %q: %s event %d needs at_ns > 0", s.Name, ev.Kind, i)
			}
		case ProbeLoss:
			if ev.Rate < 0 || ev.Rate > 1 {
				return fmt.Errorf("scenario %q: probe_loss event %d rate %g outside [0,1]", s.Name, i, ev.Rate)
			}
			if ev.Link != "" && ev.Node != "" {
				return fmt.Errorf("scenario %q: probe_loss event %d sets both link and node", s.Name, i)
			}
			// at_ns 0 means "from the start"; a negative time is a spec
			// typo, not a pre-fail form (loss has none).
			if ev.AtNs < 0 {
				return fmt.Errorf("scenario %q: probe_loss event %d needs at_ns >= 0", s.Name, i)
			}
		case PolicySwap:
			if s.Scheme != SchemeContra && s.Scheme != "" {
				return fmt.Errorf("scenario %q: policy_swap requires the contra scheme, not %q", s.Name, s.Scheme)
			}
			if ev.NewPolicy == "" {
				return fmt.Errorf("scenario %q: policy_swap event %d needs a policy", s.Name, i)
			}
			if ev.AtNs <= 0 {
				return fmt.Errorf("scenario %q: policy_swap event %d needs at_ns > 0", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %q: unknown event kind %q", s.Name, ev.Kind)
		}
	}
	return nil
}

// expandRamps rewrites every Ramp event into its chain of Surge steps:
// Steps levels rising linearly to Load across the first half of
// DurationNs, then the mirror image falling back — 2*Steps-1 equal
// segments in all, the diurnal swell of the ROADMAP's time-varying
// load item. Non-ramp events pass through in order; the scenario's
// Events slice is replaced, never mutated in place (campaign cells
// share backing arrays).
func (s *Scenario) expandRamps() {
	any := false
	for _, ev := range s.Events {
		if ev.Kind == Ramp {
			any = true
			break
		}
	}
	if !any {
		return
	}
	out := make([]Event, 0, len(s.Events)+8)
	for _, ev := range s.Events {
		if ev.Kind != Ramp {
			out = append(out, ev)
			continue
		}
		steps := ev.Steps
		if steps <= 0 {
			// Validate rejects negatives before expansion runs; the
			// clamp keeps a defensive default for the zero value.
			steps = 4
		}
		segs := 2*steps - 1
		segNs := ev.DurationNs / int64(segs)
		if segNs <= 0 {
			segNs = 1
		}
		for i := 0; i < segs; i++ {
			level := i + 1
			if i >= steps {
				level = segs - i
			}
			out = append(out, Event{
				Kind:       Surge,
				AtNs:       ev.AtNs + int64(i)*segNs,
				Load:       ev.Load * float64(level) / float64(steps),
				DurationNs: segNs,
			})
		}
	}
	s.Events = out
}

// Key returns a stable canonical identifier for the scenario: its name
// followed by a short hash of every spec-expressible parameter that
// affects execution. Campaign checkpointing keys completed work on it,
// so it must not change across process restarts, shard layouts, or
// field reordering in spec files — it is computed from the scenario's
// canonical JSON encoding, not from the spec's raw bytes.
//
// Go-only fields that JSON cannot express (Topo, DistObj, PairIDs) do
// not enter the hash; checkpoint/resume is defined for spec-driven
// scenarios, which identify their topology by TopoSpec.
func (s *Scenario) Key() string {
	c := *s
	c.Name = "" // the name is a label; parameters are the identity
	if c.TraceLevel == "off" {
		c.TraceLevel = "" // same level as absent; see fill()
	}
	b, err := json.Marshal(&c)
	if err != nil {
		// Scenario has no unmarshalable fields; keep the signature clean.
		panic(fmt.Sprintf("scenario: key encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s#%x", s.Name, sum[:8])
}

// Decode parses a scenario JSON spec, rejecting unknown fields so a
// typo in a spec file fails loudly instead of silently running the
// default.
func Decode(data []byte) (*Scenario, error) {
	var s Scenario
	if err := strictUnmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and decodes a scenario spec file.
func LoadFile(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// strictUnmarshal is json.Unmarshal with DisallowUnknownFields.
func strictUnmarshal(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
