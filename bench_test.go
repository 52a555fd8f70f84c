package contra

// Benchmark harness: one target per table/figure in the paper's
// evaluation (§6). Each benchmark runs the same code as
// cmd/experiments, scaled down so `go test -bench=.` completes in
// minutes; the figure-quality sweeps live in cmd/experiments.
//
//	Fig 9   BenchmarkFig09Compile{Fattree,Random}   compile time
//	Fig 10  BenchmarkFig10SwitchState               per-switch state
//	Fig 11  BenchmarkFig11FCTSymmetric              FCT, symmetric DC
//	Fig 12  BenchmarkFig12FCTAsymmetric             FCT, failed link
//	Fig 13  BenchmarkFig13QueueCDF                  queue p99
//	Fig 14  BenchmarkFig14FailureRecovery           recovery time
//	Fig 15  BenchmarkFig15Abilene                   FCT, WAN
//	Fig 16  BenchmarkFig16Overhead                  traffic vs ECMP
//	§6.5    BenchmarkLoopTraffic                    looped packets
//	Fig 3   BenchmarkPolicyCatalog                  P1-P9 compile
//	+       BenchmarkAblation*                      design knobs

import (
	"fmt"
	"testing"
)

// dcPolicy matches cmd/experiments: least-utilized shortest paths.
const dcPolicy = "minimize((path.len, path.util))"

func BenchmarkFig09CompileFattree(b *testing.B) {
	for _, k := range []int{4, 10, 14} {
		g := Fattree(k, 0)
		for name, gen := range StandardPolicies() {
			src := gen(g)
			b.Run(fmt.Sprintf("k%d-%s", k, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := CompileSource(src, g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig09CompileRandom(b *testing.B) {
	for _, n := range []int{100, 200} {
		g := RandomTopology(n, 4, 42)
		for name, gen := range StandardPolicies() {
			src := gen(g)
			b.Run(fmt.Sprintf("n%d-%s", n, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := CompileSource(src, g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig10SwitchState(b *testing.B) {
	for _, k := range []int{4, 10} {
		g := Fattree(k, 0)
		for name, gen := range StandardPolicies() {
			src := gen(g)
			b.Run(fmt.Sprintf("k%d-%s", k, name), func(b *testing.B) {
				var kb float64
				for i := 0; i < b.N; i++ {
					p, err := CompileSource(src, g)
					if err != nil {
						b.Fatal(err)
					}
					kb = float64(p.MaxStateBytes()) / 1000
				}
				b.ReportMetric(kb, "kB-max/switch")
			})
		}
	}
}

// fctScenario is the scaled-down FCT experiment the FCT benchmarks run.
func fctScenario(g *Topology, scheme Scheme, policySrc, dist string, load float64) Scenario {
	return Scenario{
		Topo: g, Scheme: scheme, Policy: policySrc, Seed: 1,
		Workload: ScenarioWorkload{
			Kind: WorkloadFCT, Dist: dist, Load: load,
			DurationNs: 4_000_000, MaxFlows: 300,
		},
	}
}

// failoverScenario is the scaled-down Figure 14 experiment: the paper's
// CBR load, the first leaf-spine link failing at 20ms, 35ms in all.
func failoverScenario(scheme Scheme) Scenario {
	return Scenario{
		Topo: PaperDataCenter(), Scheme: scheme, Policy: dcPolicy, Seed: 1,
		Workload: ScenarioWorkload{Kind: WorkloadCBR, EndNs: 35_000_000},
		Events:   []ScenarioEvent{{Kind: EventLinkDown, AtNs: 20_000_000, Link: "auto"}},
	}
}

// runBench runs sc b.N times and returns the last result.
func runBench(b *testing.B, sc Scenario) *ScenarioResult {
	b.Helper()
	var res *ScenarioResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = RunScenario(sc); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// benchFCT runs a scaled-down FCT experiment and reports mean FCT.
func benchFCT(b *testing.B, sc Scenario) {
	b.Helper()
	b.ReportMetric(runBench(b, sc).MeanFCT*1e3, "fct-ms")
}

func BenchmarkFig11FCTSymmetric(b *testing.B) {
	g := PaperDataCenter()
	for _, dist := range []string{"websearch", "cache"} {
		for _, scheme := range []Scheme{SchemeECMP, SchemeContra, SchemeHula} {
			for _, load := range []float64{0.2, 0.6} {
				b.Run(fmt.Sprintf("%s-%s-load%.0f", dist, scheme, load*100), func(b *testing.B) {
					benchFCT(b, fctScenario(g, scheme, dcPolicy, dist, load))
				})
			}
		}
	}
}

func asymmetricDC() *Topology {
	g := PaperDataCenter()
	l := g.LinkBetween(g.MustNode("l0"), g.MustNode("s0"))
	g.SetDown(l.ID, true)
	return g
}

func BenchmarkFig12FCTAsymmetric(b *testing.B) {
	g := asymmetricDC()
	for _, scheme := range []Scheme{SchemeECMP, SchemeContra, SchemeHula} {
		for _, load := range []float64{0.2, 0.6} {
			b.Run(fmt.Sprintf("websearch-%s-load%.0f", scheme, load*100), func(b *testing.B) {
				benchFCT(b, fctScenario(g, scheme, dcPolicy, "websearch", load))
			})
		}
	}
}

func BenchmarkFig13QueueCDF(b *testing.B) {
	g := asymmetricDC()
	for _, scheme := range []Scheme{SchemeContra, SchemeECMP} {
		b.Run(string(scheme), func(b *testing.B) {
			sc := fctScenario(g, scheme, dcPolicy, "websearch", 0.6)
			sc.SampleQueues = true
			b.ReportMetric(runBench(b, sc).QueueMSS.Quantile(0.99), "queue-p99-MSS")
		})
	}
}

func BenchmarkFig14FailureRecovery(b *testing.B) {
	for _, scheme := range []Scheme{SchemeContra, SchemeHula} {
		b.Run(string(scheme), func(b *testing.B) {
			res := runBench(b, failoverScenario(scheme))
			b.ReportMetric(float64(res.RecoveryNs)/1e6, "recovery-ms")
		})
	}
}

func BenchmarkFig15Abilene(b *testing.B) {
	g := AbileneWithHosts(0)
	for _, scheme := range []Scheme{SchemeSP, SchemeContra, SchemeSpain} {
		for _, load := range []float64{0.3, 0.6} {
			b.Run(fmt.Sprintf("%s-load%.0f", scheme, load*100), func(b *testing.B) {
				sc := fctScenario(g, scheme, "minimize(path.util)", "websearch", load)
				sc.Workload.CapacityBps = 40e9
				benchFCT(b, sc)
			})
		}
	}
}

func BenchmarkFig16Overhead(b *testing.B) {
	g := PaperDataCenter()
	for _, scheme := range []Scheme{SchemeHula, SchemeContra} {
		b.Run(string(scheme), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				run := func(s Scheme) float64 {
					res, err := RunScenario(fctScenario(g, s, dcPolicy, "websearch", 0.6))
					if err != nil {
						b.Fatal(err)
					}
					return res.FabricBytes + res.TagBytes
				}
				ratio = run(scheme) / run(SchemeECMP)
			}
			b.ReportMetric(ratio, "traffic-vs-ecmp")
		})
	}
}

func BenchmarkLoopTraffic(b *testing.B) {
	cases := []struct {
		name     string
		topo     *Topology
		capacity float64
	}{
		{"datacenter", PaperDataCenter(), 0},
		{"abilene", AbileneWithHosts(0), 40e9},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sc := fctScenario(c.topo, SchemeContra, "minimize(path.util)", "websearch", 0.6)
			sc.Workload.CapacityBps = c.capacity
			sc.TrackLoops = true
			b.ReportMetric(runBench(b, sc).LoopedFrac*100, "looped-%")
		})
	}
}

func BenchmarkPolicyCatalog(b *testing.B) {
	g := Abilene()
	pols := map[string]*Policy{
		"P1": ShortestPathPolicy(), "P2": MinUtil(), "P3": WidestShortest(),
		"P4": ShortestWidest(), "P5": Waypoint("KC", "DEN"),
		"P6": LinkPreference("SEA", "DEN"), "P7": WeightedLink("SEA", "DEN", 10),
		"P8": SourceLocal("SEA"), "P9": CongestionAware(),
	}
	for name, pol := range pols {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(pol, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablations: the design knobs DESIGN.md calls out.

// §5.2: probe frequency. Too-slow probes leave stale routes; the
// period must exceed half the worst RTT but not by much.
func BenchmarkAblationProbePeriod(b *testing.B) {
	g := PaperDataCenter()
	for _, period := range []int64{64_000, 256_000, 1_024_000} {
		b.Run(fmt.Sprintf("period%dus", period/1000), func(b *testing.B) {
			sc := fctScenario(g, SchemeContra, dcPolicy, "websearch", 0.6)
			sc.ProbePeriodNs = period
			benchFCT(b, sc)
		})
	}
}

// §5.3: flowlet timeout trades load balance against reordering.
func BenchmarkAblationFlowletTimeout(b *testing.B) {
	g := PaperDataCenter()
	for _, timeout := range []int64{50_000, 200_000, 1_000_000} {
		b.Run(fmt.Sprintf("flowlet%dus", timeout/1000), func(b *testing.B) {
			sc := fctScenario(g, SchemeContra, dcPolicy, "websearch", 0.6)
			sc.FlowletTimeoutNs = timeout
			benchFCT(b, sc)
		})
	}
}

// §5.4: failure detection threshold k vs recovery time.
func BenchmarkAblationFailureK(b *testing.B) {
	for _, k := range []int{2, 3, 6} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			sc := failoverScenario(SchemeContra)
			sc.BinNs = 100_000 // fine bins so k differences resolve
			sc.FailureDetectPeriods = k
			b.ReportMetric(float64(runBench(b, sc).RecoveryNs)/1e6, "recovery-ms")
		})
	}
}
