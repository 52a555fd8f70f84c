package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"contra/internal/scenario"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, the benchmark reports %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v, the benchmark reports %+v", bf.PerLayer, perLayer)
	}
	var gated []string
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w.name+": "+w.why)
		}
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(listed, gated) {
		t.Errorf("BENCHMARK.json workloads = %q, gated workloads are %q", listed, gated)
	}

	seen := map[string]bool{}
	for _, table := range [][]metric{endToEnd, ungated, perLayer} {
		for _, m := range table {
			if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) {
				t.Errorf("metric %q (unit %q) does not match %s / %s", m.Name, m.Unit, nameRe, unitRe)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range workloads {
		if !nameRe.MatchString(w.name) {
			t.Errorf("workload %q does not match %s", w.name, nameRe)
		}
	}
}

// shrunk returns small cells covering what the rebuild reproduces:
// Contra and ECMP fct cells, a link failure and recovery, and a packed
// cbr failover.
func shrunk() []scenario.Scenario {
	contra := ft4(scenario.SchemeContra, 3)
	contra.Workload.DurationNs, contra.Workload.MaxFlows = 2_000_000, 40
	ecmp := ft4(scenario.SchemeECMP, 3)
	ecmp.Workload.DurationNs, ecmp.Workload.MaxFlows = 2_000_000, 40
	linkfail := contra
	linkfail.Name = "ft4-contra-linkfail"
	linkfail.BinNs = 500_000
	linkfail.Events = []scenario.Event{
		{Kind: scenario.LinkDown, AtNs: 4_000_000, Link: "auto"},
		{Kind: scenario.LinkUp, AtNs: 6_000_000, Link: "auto"},
	}
	cbr := ft8PackedCBR(2)
	cbr.TopoSpec = "fattree:4:2"
	cbr.Workload.EndNs = 12_000_000
	cbr.Events = []scenario.Event{{Kind: scenario.LinkDown, AtNs: 8_000_000, Link: "e0_0-a0_1"}}
	return []scenario.Scenario{contra, ecmp, linkfail, cbr}
}

func TestTracedRebuildMatchesScenarioRun(t *testing.T) {
	for _, sc := range shrunk() {
		want, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		tr := newTracer()
		hs := &handleStats{}
		lay := layers{}
		c, err := setupCell(sc, tr, 0, hs)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got, err := runCell(c, tr, 0, lay)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got, resultFacts(want)) {
			t.Errorf("%s: rebuild %+v, scenario.Run %+v", sc.Name, summary(got), summary(resultFacts(want)))
		}
		if hs.totalNs() <= 0 || hs.pkts[0] == 0 {
			t.Errorf("%s: wrapped routers handled nothing: %+v", sc.Name, hs)
		}
	}
}

func TestProgramSetupCoversWorkloads(t *testing.T) {
	for _, w := range workloads {
		if w.cells == nil {
			continue
		}
		if err := programSetup(w.cells(1)[0]); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.1, 1.4}, {0.5, 3}, {1, 5}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestModelMetrics(t *testing.T) {
	got := modelMetrics([]cellModel{
		{Flows: 10, Completed: 10, P50Ms: 1, P99Ms: 9, PayloadBits: 4e6, MeasuredNs: 1e6, ProbeBytes: 1, FabricBytes: 4},
		{Flows: 10, Completed: 8, P50Ms: 3, P99Ms: 7, MeasuredNs: 1e6, FabricBytes: 4},
	})
	want := map[string]float64{
		"fail_frac": 0.1, "probe_share": 0.125,
		"fct_p50_ms": 2, "fct_flows": 8,
	}
	if !near(got, want) {
		t.Errorf("modelMetrics = %v, want %v (no goodput while flows are incomplete, no p99 under 1000 flows)", got, want)
	}
	got = modelMetrics([]cellModel{{CBR: true, SentPkts: 100, RxPkts: 99, PayloadBits: 2e6, MeasuredNs: 1e6, RecoveryMs: 1.5}})
	want = map[string]float64{"fail_frac": 0.01, "goodput_gbps": 2, "recovery_ms": 1.5}
	if !near(got, want) {
		t.Errorf("modelMetrics(cbr) = %v, want %v", got, want)
	}
}

func near(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Abs(v-w) > 1e-12 {
			return false
		}
	}
	return true
}
