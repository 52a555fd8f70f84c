// Datacenter: reproduce the core of the paper's Figure 11 at small
// scale — Contra's utilization-aware routing vs static ECMP on the
// 32-host leaf-spine fabric, under the web-search workload.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"

	"contra"
)

func main() {
	fmt.Println("Flow completion times on the paper's data center")
	fmt.Println("(4 leaves x 8 hosts, 2 spines, 4:1 oversubscription)")
	fmt.Println()
	fmt.Printf("%-6s %12s %12s %12s\n", "load", "ecmp", "contra", "hula")

	for _, load := range []float64{0.2, 0.4, 0.6} {
		fmt.Printf("%-6.0f", load*100)
		for _, scheme := range []contra.Scheme{
			contra.SchemeECMP, contra.SchemeContra, contra.SchemeHula,
		} {
			res, err := contra.RunScenario(contra.Scenario{
				Topo:   contra.PaperDataCenter(),
				Scheme: scheme,
				// Least-utilized shortest paths: HULA's policy,
				// expressed in Contra's language (paper §6.3).
				Policy: "minimize((path.len, path.util))",
				Seed:   7,
				Workload: contra.ScenarioWorkload{
					Kind:       contra.WorkloadFCT,
					Dist:       "websearch",
					Load:       load,
					DurationNs: 10_000_000, // 10ms of arrivals
					MaxFlows:   800,
				},
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %9.3fms", res.MeanFCT*1e3)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("Contra and HULA track each other closely; ECMP falls behind as")
	fmt.Println("load grows because it cannot steer flows away from hot links.")
}
