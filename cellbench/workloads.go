package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"contra/internal/cliutil"
	"contra/internal/scenario"
	"contra/internal/sim"
	"contra/internal/workload"
)

// benchWorkload is one named benchmark input. Cell workloads build
// their scenarios from the seed; the campaign workload runs a committed
// spec with its own pinned seeds.
type benchWorkload struct {
	name string
	why  string
	// gated marks the workloads BENCHMARK.json lists; the others run on
	// request only (see README.md).
	gated bool
	cells func(seed int64) []scenario.Scenario // nil for the campaign
}

// Paths of the campaign workload, relative to the repository root. The
// golden digests are read at run time, so an intentional refresh of
// them carries over to the benchmark.
const (
	smokeSpec    = "examples/campaign/fattree_smoke.json"
	smokeGolden  = "examples/campaign/golden/fattree_smoke.sha256"
	smokeWorkers = 2
)

// ecmpCells is the size of the ft4-ecmp batch. One ECMP cell's cost
// moves with its seed's flow sizes; a batch of cells with seeds derived
// from the run's seed averages that out.
const ecmpCells = 12

var workloads = []benchWorkload{
	{
		name:  "ft4-ecmp",
		why:   "fattree:4:2 ECMP at websearch load 0.6 over 40 ms, 12 seeds: no probes and no compile, so probe-path changes must leave it unchanged",
		gated: true,
		cells: func(seed int64) []scenario.Scenario {
			var out []scenario.Scenario
			for i := int64(0); i < ecmpCells; i++ {
				out = append(out, ft4(scenario.SchemeECMP, seed+1000*i))
			}
			return out
		},
	},
	{
		name:  "ft8-packed-cbr",
		why:   "fattree:8:2 Contra with packed probes, 4.25 Gbps CBR, link e0_0-a0_1 failed at 50 ms: largest compile and deploy, Fig 14 failover",
		gated: true,
		cells: func(seed int64) []scenario.Scenario { return []scenario.Scenario{ft8PackedCBR(seed)} },
	},
	{
		name:  "smoke-campaign",
		why:   "the golden fattree_smoke campaign, 16 cells on 2 workers: campaign layer, report encoding and the post-drain probe storm straggler",
		gated: true,
	},
	{
		name:  "ft4-contra",
		why:   "the ft4-ecmp seed's cell routed by Contra with unpacked probes: the ROADMAP hot cell, probe handling dominates",
		cells: func(seed int64) []scenario.Scenario { return []scenario.Scenario{ft4(scenario.SchemeContra, seed)} },
	},
}

func findWorkload(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// ft4 is the ROADMAP hot cell: fattree:4:2, websearch sizes at load 0.6
// over a 40 ms arrival window, which completes over a thousand flows so
// the p99 FCT has at least ten flows beyond it.
func ft4(scheme scenario.Scheme, seed int64) scenario.Scenario {
	return scenario.Scenario{
		Name:     fmt.Sprintf("ft4-%s/seed%d", scheme, seed),
		TopoSpec: "fattree:4:2",
		Scheme:   scheme,
		Policy:   "minimize(path.util)",
		Seed:     seed,
		Workload: scenario.Workload{Kind: scenario.WorkloadFCT, Dist: "websearch", Load: 0.6, DurationNs: 40_000_000},
	}
}

// ft8PackedCBR is the Figure 14 failover on fattree:8:2 with packed
// probes. The failed link carries CBR streams under both Contra and
// ECMP; the default "auto" link carries none on this topology.
func ft8PackedCBR(seed int64) scenario.Scenario {
	return scenario.Scenario{
		Name:         fmt.Sprintf("ft8-packed-cbr/seed%d", seed),
		TopoSpec:     "fattree:8:2",
		Scheme:       scenario.SchemeContra,
		Policy:       "minimize(path.util)",
		Seed:         seed,
		ProbePacking: true,
		Workload:     scenario.Workload{Kind: scenario.WorkloadCBR, RateBps: 4.25e9, EndNs: 80_000_000},
		Events:       []scenario.Event{{Kind: scenario.LinkDown, AtNs: 50_000_000, Link: "e0_0-a0_1"}},
	}
}

// cellModel is the simulated (model) outcome of one cell: the raw sums
// and quantiles the model metrics are built from.
type cellModel struct {
	Name    string `json:"name"`
	Errored bool   `json:"errored,omitempty"`
	CBR     bool   `json:"cbr,omitempty"`
	// fct cells: flows offered and completed, FCT quantiles.
	Flows     int64   `json:"flows,omitempty"`
	Completed int64   `json:"completed,omitempty"`
	P50Ms     float64 `json:"p50_ms,omitempty"`
	P99Ms     float64 `json:"p99_ms,omitempty"`
	// cbr cells: data packets sent and delivered, and the failover.
	SentPkts    float64 `json:"sent_pkts,omitempty"`
	RxPkts      float64 `json:"rx_pkts,omitempty"`
	RecoveryMs  float64 `json:"recovery_ms,omitempty"`
	BaselineBps float64 `json:"baseline_bps,omitempty"`
	MinBps      float64 `json:"min_bps,omitempty"`
	// PayloadBits is the payload delivered (fct: only when every flow
	// completed) over MeasuredNs, the simulated time after the warmup.
	PayloadBits float64 `json:"payload_bits,omitempty"`
	MeasuredNs  float64 `json:"measured_ns,omitempty"`
	ProbeBytes  float64 `json:"probe_bytes,omitempty"`
	FabricBytes float64 `json:"fabric_bytes,omitempty"`
}

// failed reports whether the cell errored or left flows incomplete.
func (m cellModel) failed() bool { return m.Errored || m.Completed < m.Flows }

// modelOf derives a cell's model outcome from scenario.Run's Result.
// The flows are regenerated with the calls scenario.Run makes, outside
// any timed interval.
func modelOf(sc scenario.Scenario, res *scenario.Result) (cellModel, error) {
	sc = filled(sc)
	g, err := cliutil.BuildTopology(sc.TopoSpec)
	if err != nil {
		return cellModel{}, err
	}
	m := cellModel{
		Name:        sc.Name,
		MeasuredNs:  float64(res.SimulatedNs - warmupNs(sc)),
		ProbeBytes:  res.ProbeBytes,
		FabricBytes: res.FabricBytes,
	}
	if sc.Workload.Kind == scenario.WorkloadCBR {
		m.CBR = true
		m.SentPkts = float64(cbrSentPkts(sc, cbrFlows(sc, g)))
		// The series counts delivered frames; every cbr frame is full.
		var frameBits float64
		for _, p := range res.Series {
			frameBits += p.V * float64(sc.BinNs) / 1e9
		}
		m.RxPkts = frameBits / float64((sim.MSS+sim.FrameHeader)*8)
		m.PayloadBits = m.RxPkts * sim.MSS * 8
		m.RecoveryMs = float64(res.RecoveryNs) / 1e6
		m.BaselineBps, m.MinBps = res.BaselineBps, res.MinBps
		return m, nil
	}
	flows, err := fctFlows(sc, g)
	if err != nil {
		return cellModel{}, err
	}
	if len(flows) != res.Flows {
		return cellModel{}, fmt.Errorf("cell %q: regenerated %d flows, scenario.Run offered %d", sc.Name, len(flows), res.Flows)
	}
	m.Flows, m.Completed = int64(res.Flows), res.Completed
	m.P50Ms, m.P99Ms = res.P50FCT*1e3, res.P99FCT*1e3
	if m.Completed == m.Flows {
		m.PayloadBits = 8 * workload.OfferedBytes(flows)
	}
	return m, nil
}

// modelMetrics turns cell outcomes into the model metrics that apply:
// fail_frac always; goodput_gbps when every flow completed; probe_share
// when the fabric carried bytes; FCT quantiles (the median over fct
// cells, with the smallest completed-flow count as fct_flows; p99 only
// when that count leaves ten flows beyond it) and recovery_ms (the
// median over cbr cells) where such cells ran.
func modelMetrics(ms []cellModel) map[string]float64 {
	var t cellModel
	var p50, p99, rec []float64
	complete := true
	fctFlows := -1.0
	for _, m := range ms {
		complete = complete && !m.failed()
		t.Flows += m.Flows
		t.Completed += m.Completed
		t.SentPkts += m.SentPkts
		t.RxPkts += m.RxPkts
		t.PayloadBits += m.PayloadBits
		t.MeasuredNs += m.MeasuredNs
		t.ProbeBytes += m.ProbeBytes
		t.FabricBytes += m.FabricBytes
		switch {
		case m.Errored:
		case m.CBR:
			rec = append(rec, m.RecoveryMs)
		default:
			p50 = append(p50, m.P50Ms)
			p99 = append(p99, m.P99Ms)
			if fctFlows < 0 || float64(m.Completed) < fctFlows {
				fctFlows = float64(m.Completed)
			}
		}
	}
	out := map[string]float64{}
	switch {
	case t.Flows > 0:
		out["fail_frac"] = float64(t.Flows-t.Completed) / float64(t.Flows)
	case t.SentPkts > 0:
		out["fail_frac"] = 1 - t.RxPkts/t.SentPkts
	}
	if complete && t.MeasuredNs > 0 {
		out["goodput_gbps"] = t.PayloadBits / t.MeasuredNs
	}
	if t.FabricBytes > 0 {
		out["probe_share"] = t.ProbeBytes / t.FabricBytes
	}
	if len(p50) > 0 {
		out["fct_p50_ms"], out["fct_flows"] = median(p50), fctFlows
		// p99 needs at least ten flows beyond it in every cell.
		if fctFlows >= 1000 {
			out["fct_p99_ms"] = median(p99)
		}
	}
	if len(rec) > 0 {
		out["recovery_ms"] = median(rec)
	}
	return out
}

// readGolden reads a sha256sum-style digest file into file name →
// digest.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 {
			out[filepath.Base(fields[1])] = fields[0]
		}
	}
	return out, sc.Err()
}
