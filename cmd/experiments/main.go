// Command experiments regenerates every table and figure in the
// paper's evaluation (§6): compiler scalability (Fig 9), switch state
// (Fig 10), data center FCT on symmetric and asymmetric fabrics
// (Figs 11-12), queue length CDFs (Fig 13), failure recovery (Fig 14),
// wide-area FCT (Fig 15), traffic overhead (Fig 16), and the §6.5
// transient-loop statistics.
//
// Usage:
//
//	experiments              # full run (several minutes)
//	experiments -quick       # reduced loads and durations
//	experiments -only fig11,fig16
//	experiments -out results # also write results/<fig>.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"contra"
	"contra/internal/core"
	"contra/internal/policy"
	"contra/internal/topo"
)

type runCfg struct {
	quick      bool
	outDir     string
	durationNs int64
	maxFlows   int
	loads      []float64
	seed       int64
}

func main() {
	quick := flag.Bool("quick", false, "reduced sweep for a fast smoke run")
	only := flag.String("only", "", "comma-separated figure list, e.g. fig9,fig11")
	out := flag.String("out", "", "directory for per-figure result files")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	cfg := runCfg{quick: *quick, outDir: *out, seed: *seed}
	if *quick {
		cfg.durationNs = 8_000_000
		cfg.maxFlows = 600
		cfg.loads = []float64{0.2, 0.5, 0.8}
	} else {
		cfg.durationNs = 30_000_000
		cfg.maxFlows = 3000
		cfg.loads = []float64{0.2, 0.4, 0.6, 0.8, 0.9}
	}

	figures := map[string]func(runCfg) (string, error){
		"fig9":     fig9,
		"fig10":    fig10,
		"fig11":    fig11,
		"fig12":    fig12,
		"fig13":    fig13,
		"fig14":    fig14,
		"fig15":    fig15,
		"fig16":    fig16,
		"loops":    loopStats,
		"appendix": appendix,
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for n := range figures {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	failed := false
	for _, name := range names {
		fn, ok := figures[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", name)
			failed = true
			continue
		}
		text, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			failed = true
			continue
		}
		fmt.Println(text)
		if cfg.outDir != "" {
			if err := os.MkdirAll(cfg.outDir, 0o755); err == nil {
				_ = os.WriteFile(filepath.Join(cfg.outDir, name+".txt"), []byte(text), 0o644)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func sweepTopos(cfg runCfg) ([]*contra.Topology, []*contra.Topology) {
	var fattrees, randoms []*contra.Topology
	ks := []int{4, 10, 14, 18, 20}
	ns := []int{100, 200, 300, 400, 500}
	if cfg.quick {
		ks = []int{4, 8, 10}
		ns = []int{50, 100, 200}
	}
	for _, k := range ks {
		fattrees = append(fattrees, contra.Fattree(k, 0))
	}
	for _, n := range ns {
		randoms = append(randoms, contra.RandomTopology(n, 4, 42))
	}
	return fattrees, randoms
}

// fig9: compile time vs topology size for MU / WP / CA.
func fig9(cfg runCfg) (string, error) {
	fattrees, randoms := sweepTopos(cfg)
	var b strings.Builder
	b.WriteString("== Figure 9: compiler scalability (compile time) ==\n")
	for i, topos := range [][]*contra.Topology{fattrees, randoms} {
		rows, err := compileSweep(topos)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s\n%-16s %-8s %-6s %12s %8s\n", sweepLabels[i], "topology", "switches", "policy", "compile", "pg-nodes")
		sortRows(rows)
		for _, r := range rows {
			fmt.Fprintf(&b, "%-16s %-8d %-6s %12v %8d\n",
				r.Topology, r.Switches, r.Policy, r.CompileTime.Round(10_000), r.PGNodes)
		}
	}
	return b.String(), nil
}

// fig10: switch state vs topology size.
func fig10(cfg runCfg) (string, error) {
	fattrees, randoms := sweepTopos(cfg)
	var b strings.Builder
	b.WriteString("== Figure 10: switch state (kB) ==\n")
	for i, topos := range [][]*contra.Topology{fattrees, randoms} {
		rows, err := compileSweep(topos)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s\n%-16s %-8s %-6s %10s %10s %8s %5s\n",
			sweepLabels[i], "topology", "switches", "policy", "max-kB", "mean-kB", "tagbits", "pids")
		sortRows(rows)
		for _, r := range rows {
			fmt.Fprintf(&b, "%-16s %-8d %-6s %10.1f %10.1f %8d %5d\n",
				r.Topology, r.Switches, r.Policy, float64(r.MaxStateBytes)/1000, r.MeanStateBytes/1000, r.TagBits, r.Pids)
		}
	}
	return b.String(), nil
}

// sweepLabels names the two topology families sweepTopos returns, in
// the order Figures 9 and 10 print them.
var sweepLabels = [...]string{"(a) fat-trees", "(b) random"}

// compileRow is one Figure 9/10 measurement.
type compileRow struct {
	Topology string
	Switches int
	Policy   string
	core.Stats
}

// compileSweep compiles every standard policy (MU/WP/CA) on every
// topology and records compile time and switch state (Figures 9, 10).
func compileSweep(topos []*contra.Topology) ([]compileRow, error) {
	var rows []compileRow
	for _, g := range topos {
		for name, gen := range contra.StandardPolicies() {
			pol, err := policy.Parse(gen(g), policy.ParseOptions{Symbols: g.SortedNames()})
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %v", name, g.Name, err)
			}
			comp, err := core.Compile(g, pol, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %v", name, g.Name, err)
			}
			rows = append(rows, compileRow{Topology: g.Name, Switches: len(g.Switches()), Policy: name, Stats: comp.Stats})
		}
	}
	return rows, nil
}

func sortRows(rows []compileRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Switches != rows[j].Switches {
			return rows[i].Switches < rows[j].Switches
		}
		return rows[i].Policy < rows[j].Policy
	})
}

// dcPolicy is the Contra policy for the data center experiments: the
// paper notes (§6.3) that Contra discovers shortest paths dynamically
// "by carrying the path length as well as the utilization", i.e.
// least-utilized shortest paths, matching HULA's semantics.
const dcPolicy = "minimize((path.len, path.util))"

// fctScenario is the figures' FCT experiment: one scheme on g at a
// load fraction of the size distribution dist, over the sweep's arrival
// window and flow cap.
func fctScenario(cfg runCfg, g *contra.Topology, scheme contra.Scheme, policySrc, dist string, load float64) contra.Scenario {
	return contra.Scenario{
		Topo: g, Scheme: scheme, Policy: policySrc, Seed: cfg.seed,
		Workload: contra.ScenarioWorkload{
			Kind: contra.WorkloadFCT, Dist: dist, Load: load,
			DurationNs: cfg.durationNs, MaxFlows: cfg.maxFlows,
		},
	}
}

// fctTable prints mean FCT per load (rows) and scheme (columns) for
// each size distribution.
func fctTable(cfg runCfg, g *contra.Topology, schemes []contra.Scheme, dists []string, capacity float64, policySrc string, pairs [][2]contra.NodeID) (string, error) {
	var b strings.Builder
	for _, distName := range dists {
		// The cache workload's flows are ~100x smaller than web
		// search's; the flow cap must scale accordingly or high loads
		// silently degenerate into short bursts.
		maxFlows := cfg.maxFlows
		if distName == "cache" {
			maxFlows *= 4
		}
		fmt.Fprintf(&b, "workload: %s\n%-6s", distName, "load")
		for _, s := range schemes {
			fmt.Fprintf(&b, " %12s", s)
		}
		b.WriteString("   (mean FCT ms)\n")
		for _, load := range cfg.loads {
			fmt.Fprintf(&b, "%-6.0f", load*100)
			for _, s := range schemes {
				sc := fctScenario(cfg, g, s, policySrc, distName, load)
				sc.Workload.CapacityBps = capacity
				sc.Workload.MaxFlows = maxFlows
				sc.PairIDs = pairs
				res, err := contra.RunScenario(sc)
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&b, " %12.3f", res.MeanFCT*1e3)
			}
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

// fig11: symmetric data center FCT.
func fig11(cfg runCfg) (string, error) {
	g := contra.PaperDataCenter()
	body, err := fctTable(cfg, g,
		[]contra.Scheme{contra.SchemeECMP, contra.SchemeContra, contra.SchemeHula},
		[]string{"websearch", "cache"}, 0, dcPolicy, nil)
	if err != nil {
		return "", err
	}
	return "== Figure 11: FCT on the symmetric data center ==\n" + body, nil
}

// fig12: asymmetric data center FCT (one leaf-spine link down).
func fig12(cfg runCfg) (string, error) {
	g := asymmetricDC()
	body, err := fctTable(cfg, g,
		[]contra.Scheme{contra.SchemeECMP, contra.SchemeContra, contra.SchemeHula},
		[]string{"websearch", "cache"}, 0, dcPolicy, nil)
	if err != nil {
		return "", err
	}
	return "== Figure 12: FCT on the asymmetric data center (l0-s0 down) ==\n" + body, nil
}

func asymmetricDC() *contra.Topology {
	g := contra.PaperDataCenter()
	l := g.LinkBetween(g.MustNode("l0"), g.MustNode("s0"))
	g.SetDown(l.ID, true)
	return g
}

// fig13: queue length CDF, Contra vs ECMP at 60% web-search load.
func fig13(cfg runCfg) (string, error) {
	g := asymmetricDC()
	var b strings.Builder
	b.WriteString("== Figure 13: queue length CDF (MSS), 60% web-search, asymmetric ==\n")
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1}
	fmt.Fprintf(&b, "%-8s", "scheme")
	for _, q := range quantiles {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("p%g", q*100))
	}
	b.WriteString("\n")
	for _, s := range []contra.Scheme{contra.SchemeContra, contra.SchemeECMP} {
		sc := fctScenario(cfg, g, s, dcPolicy, "websearch", 0.6)
		sc.SampleQueues = true
		res, err := contra.RunScenario(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8s", s)
		for _, q := range quantiles {
			fmt.Fprintf(&b, " %8.1f", res.QueueMSS.Quantile(q))
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// fig14: throughput around a link failure.
func fig14(cfg runCfg) (string, error) {
	var b strings.Builder
	b.WriteString("== Figure 14: throughput around a link failure (UDP 4.25 Gbps) ==\n")
	for _, s := range []contra.Scheme{contra.SchemeContra, contra.SchemeHula} {
		// The CBR workload defaults to the paper's 4.25 Gbps over 80 ms
		// in 500 us bins; the first edge-fabric link fails at 50 ms.
		res, err := contra.RunScenario(contra.Scenario{
			Topo: contra.PaperDataCenter(), Scheme: s, Policy: dcPolicy, Seed: cfg.seed,
			Workload: contra.ScenarioWorkload{Kind: contra.WorkloadCBR},
			Events:   []contra.ScenarioEvent{{Kind: contra.EventLinkDown, AtNs: 50_000_000, Link: "auto"}},
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-7s baseline=%.2fGbps dip=%.2fGbps recovery=%.2fms\n",
			s, res.BaselineBps/1e9, res.MinBps/1e9, float64(res.RecoveryNs)/1e6)
	}
	return b.String(), nil
}

// fig15: wide-area FCT on Abilene.
func fig15(cfg runCfg) (string, error) {
	// Delay scale 0.002 gives links of 6-24us: propagation is then
	// small against queueing delay, the regime the paper's wide-area
	// numbers imply (its ns-3 setup used sub-geographic delays), and
	// the one where load-aware routing can pay for its detours.
	g := topo.AbileneWithHostsScaled(0, 0.002)
	// §6.4: four fixed sender/receiver pairs. These pairs' shortest
	// paths overlap heavily on DEN-KC-IND, so shortest-path routing
	// concentrates load while SPAIN and Contra can spread it.
	pairs := [][2]contra.NodeID{
		{g.MustNode("H_SEA"), g.MustNode("H_NYC")},
		{g.MustNode("H_SNV"), g.MustNode("H_WDC")},
		{g.MustNode("H_LA"), g.MustNode("H_CHI")},
		{g.MustNode("H_DEN"), g.MustNode("H_ATL")},
	}
	// Longer arrival window: only four pairs feed the WAN, so the
	// web-search sample would otherwise be tiny.
	wanCfg := cfg
	wanCfg.durationNs *= 2
	// The paper labels this series "Contra (MU)": pure minimum
	// utilization on the WAN.
	body, err := fctTable(wanCfg, g,
		[]contra.Scheme{contra.SchemeSP, contra.SchemeContra, contra.SchemeSpain},
		[]string{"websearch", "cache"}, 40e9, "minimize(path.util)", pairs)
	if err != nil {
		return "", err
	}
	return "== Figure 15: FCT on Abilene (SP vs Contra-MU vs SPAIN) ==\n" + body, nil
}

// fig16: traffic overhead normalized to ECMP.
func fig16(cfg runCfg) (string, error) {
	g := contra.PaperDataCenter()
	var b strings.Builder
	b.WriteString("== Figure 16: fabric traffic normalized to ECMP ==\n")
	fmt.Fprintf(&b, "%-18s %10s %10s %10s\n", "workload", "ecmp", "hula", "contra")
	for _, distName := range []string{"websearch", "cache"} {
		for _, load := range []float64{0.1, 0.6} {
			var bytes [3]float64
			for i, s := range []contra.Scheme{contra.SchemeECMP, contra.SchemeHula, contra.SchemeContra} {
				res, err := contra.RunScenario(fctScenario(cfg, g, s, dcPolicy, distName, load))
				if err != nil {
					return "", err
				}
				bytes[i] = res.FabricBytes + res.TagBytes
			}
			fmt.Fprintf(&b, "%-18s %10.4f %10.4f %10.4f\n",
				fmt.Sprintf("%s %.0f%%", distName, load*100),
				1.0, bytes[1]/bytes[0], bytes[2]/bytes[0])
		}
	}
	return b.String(), nil
}

// loopStats: §6.5 transient loop measurements.
func loopStats(cfg runCfg) (string, error) {
	var b strings.Builder
	b.WriteString("== §6.5: traffic in transient loops (MU policy, 60% load) ==\n")
	cases := []struct {
		name string
		g    *contra.Topology
	}{
		{"datacenter", contra.PaperDataCenter()},
		{"abilene", contra.AbileneWithHosts(0)},
	}
	for _, c := range cases {
		capacity := 0.0
		if c.name == "abilene" {
			capacity = 40e9
		}
		sc := fctScenario(cfg, c.g, contra.SchemeContra, "", "websearch", 0.6)
		sc.Workload.CapacityBps = capacity
		sc.TrackLoops = true
		res, err := contra.RunScenario(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s looped=%.4f%% of data packets, loop-breaks=%d\n",
			c.name, 100*res.LoopedFrac, int64(res.LoopBreaks))
	}
	return b.String(), nil
}

// appendix: the paper's appendix D+E — traffic overhead on Abilene and
// for the waypointing policy on the data center.
func appendix(cfg runCfg) (string, error) {
	var b strings.Builder
	b.WriteString("== Appendix D+E: additional traffic overhead measurements ==\n")

	// D: the protocol's own overhead (probes + tags) as a share of
	// Contra's fabric traffic on Abilene. Total bytes are not
	// comparable across schemes on a WAN: a min-util policy takes
	// longer paths by design, which is workload placement, not
	// protocol overhead.
	g := topo.AbileneWithHostsScaled(0, 0.002)
	run := func(g *contra.Topology, s contra.Scheme, policySrc string, cap float64) (*contra.ScenarioResult, error) {
		sc := fctScenario(cfg, g, s, policySrc, "websearch", 0.6)
		sc.Workload.CapacityBps = cap
		return contra.RunScenario(sc)
	}
	ab, err := run(g, contra.SchemeContra, "minimize(path.util)", 40e9)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "abilene web-search 60%%: probes+tags = %.4f%% of contra fabric bytes\n",
		100*(ab.ProbeBytes+ab.TagBytes)/(ab.FabricBytes+ab.TagBytes))

	// E: WP policy overhead on the data center, normalized to ECMP.
	dc := contra.PaperDataCenter()
	wp := "minimize(if .* (s0 + s1) .* then (path.len, path.util) else inf)"
	ecmpRes, err := run(dc, contra.SchemeECMP, dcPolicy, 0)
	if err != nil {
		return "", err
	}
	wpRes, err := run(dc, contra.SchemeContra, wp, 0)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "datacenter web-search 60%% with WP policy: contra/ecmp traffic = %.4f\n",
		(wpRes.FabricBytes+wpRes.TagBytes)/(ecmpRes.FabricBytes+ecmpRes.TagBytes))
	return b.String(), nil
}
