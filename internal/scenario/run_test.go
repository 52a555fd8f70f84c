package scenario

import (
	"strings"
	"testing"

	"contra/internal/core"
	"contra/internal/sim"
	"contra/internal/topo"
)

// runFCTComplete runs an FCT scenario and requires that at least
// minDone of its offered flows complete, with a positive mean FCT and
// simulated time.
func runFCTComplete(t *testing.T, g *topo.Graph, scheme Scheme, seed int64, w Workload, minDone float64) *Result {
	t.Helper()
	w.Kind = WorkloadFCT
	return runFCTScenario(t, Scenario{Topo: g, Scheme: scheme, Seed: seed, Workload: w}, minDone)
}

func runFCTScenario(t *testing.T, s Scenario, minDone float64) *Result {
	t.Helper()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Completed) < minDone*float64(res.Flows) {
		t.Fatalf("only %d/%d flows completed", res.Completed, res.Flows)
	}
	if res.MeanFCT <= 0 || res.SimulatedNs <= 0 {
		t.Fatalf("mean FCT %v, simulated %dns", res.MeanFCT, res.SimulatedNs)
	}
	return res
}

// TestRunFCTAllSchemesOnDataCenter: on the §6.3 data center nearly
// every flow completes under contra, ecmp and hula.
func TestRunFCTAllSchemesOnDataCenter(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dc := topo.PaperDataCenter()
	for _, scheme := range []Scheme{SchemeContra, SchemeECMP, SchemeHula} {
		t.Run(string(scheme), func(t *testing.T) {
			runFCTComplete(t, dc, scheme, 1, Workload{Dist: "cache", Load: 0.3, DurationNs: 5_000_000, MaxFlows: 300}, 0.95)
		})
	}
}

// TestRunFCTWANSchemes: on the §6.4 Abilene WAN nearly every flow
// completes under contra, sp and spain.
func TestRunFCTWANSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	wan := topo.AbileneWithHosts(0)
	for _, scheme := range []Scheme{SchemeContra, SchemeSP, SchemeSpain} {
		t.Run(string(scheme), func(t *testing.T) {
			runFCTComplete(t, wan, scheme, 2, Workload{Dist: "cache", Load: 0.3, CapacityBps: 40e9, DurationNs: 5_000_000, MaxFlows: 200}, 0.9)
		})
	}
}

// TestRunFCTWithPairs: traffic confined to fixed host pairs completes.
func TestRunFCTWithPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := topo.AbileneWithHostsScaled(0, 0.002)
	runFCTScenario(t, Scenario{
		Topo: g, Scheme: SchemeContra, Policy: "minimize(path.util)", Seed: 5,
		Workload: Workload{Kind: WorkloadFCT, Dist: "cache", Load: 0.3, CapacityBps: 40e9, DurationNs: 4_000_000, MaxFlows: 200},
		PairIDs: [][2]topo.NodeID{
			{g.MustNode("H_SEA"), g.MustNode("H_NYC")},
			{g.MustNode("H_LA"), g.MustNode("H_CHI")},
		},
	}, 0.9)
}

// TestRunFCTDrainBudget: a tiny drain budget cuts the run short, but
// the result still reports the flows that finished.
func TestRunFCTDrainBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runFCTComplete(t, topo.PaperDataCenter(), SchemeECMP, 6, Workload{
		Load: 0.5, DurationNs: 4_000_000, DrainNs: 10_000_000, MaxFlows: 300,
	}, 0)
	if res.Completed == 0 {
		t.Fatal("no flows completed within the drain budget")
	}
}

// TestContraProbeOverheadSmall: §6.5 puts Contra's overhead over ECMP
// at ~0.8%; probes should be a small share of fabric bytes.
func TestContraProbeOverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runFCTComplete(t, topo.PaperDataCenter(), SchemeContra, 3, Workload{
		Load: 0.4, DurationNs: 10_000_000, MaxFlows: 500,
	}, 0.9)
	if res.ProbeBytes == 0 {
		t.Fatal("no probe traffic recorded")
	}
	if f := res.ProbeFrac(); f > 0.05 {
		t.Fatalf("probe fraction = %.3f, want < 0.05", f)
	}
}

// checkFailover runs the Figure 14 experiment at test scale: the
// snapped CBR rate lands near the paper's 4.25 Gbps, failing the first
// leaf-spine link visibly dents throughput, and Contra recovers within
// a few probe periods (k=3 periods ≈ 768us; bins add slack).
func checkFailover(t *testing.T, policy string, seed, failAt, end int64) {
	t.Helper()
	res, err := Run(Scenario{
		Topo: topo.PaperDataCenter(), Scheme: SchemeContra, Policy: policy, Seed: seed,
		Workload: Workload{Kind: WorkloadCBR, EndNs: end},
		Events:   []Event{{Kind: LinkDown, AtNs: failAt, Link: "auto"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailAtNs != failAt || res.BinNs != 500_000 {
		t.Fatalf("fail at %d in %dns bins, want %d in 500us bins", res.FailAtNs, res.BinNs, failAt)
	}
	if res.BaselineBps < 3.8e9 || res.BaselineBps > 4.7e9 {
		t.Fatalf("baseline %.2f Gbps not near 4.25", res.BaselineBps/1e9)
	}
	// The failure must be visible: flows cross the fabric.
	if res.MinBps > 0.9*res.BaselineBps {
		t.Fatalf("failure invisible: dip only to %.2f of baseline", res.MinBps/res.BaselineBps)
	}
	if res.RecoveryNs <= 0 || res.RecoveryNs > 5_000_000 {
		t.Fatalf("recovery = %.2fms, want (0, 5ms]", float64(res.RecoveryNs)/1e6)
	}
}

// TestRunFailoverContra: failover under the default min-utilization
// policy.
func TestRunFailoverContra(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkFailover(t, "", 4, 20_000_000, 40_000_000)
}

// TestFailoverBaselineSanity: failover under shortest-least-utilized.
func TestFailoverBaselineSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkFailover(t, "minimize((path.len, path.util))", 2, 15_000_000, 30_000_000)
}

func TestFabricCapacity(t *testing.T) {
	// 4 leaves x 2 spines x 10G = 80G of leaf uplinks.
	if got := FabricCapacity(topo.PaperDataCenter()); got != 80e9 {
		t.Fatalf("capacity = %g, want 80e9", got)
	}
	if got := FabricCapacity(topo.AbileneWithHosts(0)); got != 40e9 {
		t.Fatalf("abilene reference = %g, want one 40G link", got)
	}
}

// TestDeployUnknownScheme: Run rejects an unknown scheme on a
// Go-constructed scenario, and Deploy rejects it and any HULA
// deployment on a topology without Clos switch roles, naming the switch.
func TestDeployUnknownScheme(t *testing.T) {
	dc := topo.PaperDataCenter()
	if _, err := Run(Scenario{Topo: dc, Scheme: "bogus", Workload: Workload{Load: 0.1}}); err == nil || !strings.Contains(err.Error(), `unknown scheme "bogus"`) {
		t.Fatalf("Run with an unknown scheme: err %v", err)
	}
	cases := []struct {
		name   string
		g      *topo.Graph
		scheme Scheme
		want   string
	}{
		{"unknown scheme", dc, "bogus", `unknown scheme "bogus"`},
		{"hula on a WAN", topo.AbileneWithHosts(0), SchemeHula, `switch "`},
	}
	for _, tc := range cases {
		n := sim.NewNetwork(sim.NewEngine(1), tc.g, sim.Config{})
		_, _, err := Deploy(n, tc.scheme, tc.g, "", core.Options{}, nil, nil, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want it to mention %s", tc.name, err, tc.want)
		}
	}
}
