package campaign

import (
	"bytes"
	"strings"
	"testing"

	"contra/internal/scenario"
)

// matrixSpec is the acceptance-criteria matrix: 2 topologies × 3
// schemes × 2 loads × 2 event scripts × 1 seed = 24 scenarios, kept
// small enough to run in test time.
func matrixSpec() *Spec {
	return &Spec{
		Name:    "matrix",
		Topos:   []string{"dc", "fattree:4:1"},
		Schemes: []scenario.Scheme{scenario.SchemeECMP, scenario.SchemeContra, scenario.SchemeHula},
		Loads:   []float64{0.2, 0.4},
		Scripts: []Script{
			{Name: "steady"},
			{Name: "linkfail", Events: []scenario.Event{
				{Kind: scenario.LinkDown, AtNs: 5_000_000, Link: "auto"},
				{Kind: scenario.LinkUp, AtNs: 9_000_000, Link: "auto"},
			}},
		},
		Workload: scenario.Workload{
			Dist: "cache", DurationNs: 3_000_000, MaxFlows: 150,
		},
	}
}

func TestExpandMatrixCount(t *testing.T) {
	spec := matrixSpec()
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 24 || spec.Size() != 24 {
		t.Fatalf("expanded %d scenarios, Size()=%d, want 24", len(scens), spec.Size())
	}
	seen := map[string]bool{}
	for _, s := range scens {
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Workload.Load == 0 || s.TopoSpec == "" || s.Scheme == "" {
			t.Fatalf("incomplete scenario %+v", s)
		}
	}
	// Defaults: no scripts -> steady; no seeds -> seed 1.
	minimal := &Spec{Topos: []string{"dc"}, Schemes: []scenario.Scheme{scenario.SchemeECMP}, Loads: []float64{0.1}}
	scens, err = minimal.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 1 || scens[0].Seed != 1 || scens[0].Script != "steady" {
		t.Fatalf("minimal expansion = %+v", scens)
	}
}

func TestExpandRejectsDuplicateAxisValues(t *testing.T) {
	// Duplicate axis values expand to identical canonical scenario
	// keys, which the sharded merge path can only detect after the
	// sweep has run — so expansion must fail upfront.
	dups := map[string]func(*Spec){
		"seed":   func(s *Spec) { s.Seeds = []int64{1, 1} },
		"load":   func(s *Spec) { s.Loads = []float64{0.2, 0.2} },
		"topo":   func(s *Spec) { s.Topos = []string{"dc", "dc"} },
		"scheme": func(s *Spec) { s.Schemes = append(s.Schemes, s.Schemes[0]) },
	}
	for axis, mut := range dups {
		spec := matrixSpec()
		mut(spec)
		if _, err := spec.Expand(); err == nil {
			t.Errorf("Expand accepted a duplicate %s", axis)
		}
	}
}

func TestExpandRejectsBadCell(t *testing.T) {
	spec := matrixSpec()
	spec.Schemes = append(spec.Schemes, "ospf")
	if _, err := spec.Expand(); err == nil {
		t.Fatal("Expand accepted an unknown scheme")
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	if _, err := Parse([]byte(`{"topos":["dc"],"schemes":["ecmp"],"loads":[0.1],"workloads":{}}`)); err == nil {
		t.Fatal("Parse accepted a misspelled field")
	}
	if _, err := Parse([]byte(`{"topos":["dc"],"schemes":["ecmp"]}`)); err == nil {
		t.Fatal("Parse accepted an fct campaign without loads")
	}
}

func TestSerialAndParallelCampaignsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := matrixSpec()
	var dumps []string
	for _, workers := range []int{1, 8} {
		report, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if report.Failed() > 0 {
			for _, o := range report.Outcomes {
				if o.Err != "" {
					t.Errorf("%s: %s", o.Scenario.Name, o.Err)
				}
			}
			t.Fatalf("%d scenarios failed with %d workers", report.Failed(), workers)
		}
		var j, c bytes.Buffer
		if err := report.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, j.String()+"\n===\n"+c.String())
	}
	if dumps[0] != dumps[1] {
		t.Fatalf("worker count changed campaign output:\n--- workers=1\n%.2000s\n--- workers=8\n%.2000s", dumps[0], dumps[1])
	}
}

func TestScenarioFailureIsRecordedNotFatal(t *testing.T) {
	spec := &Spec{
		Topos:   []string{"dc"},
		Schemes: []scenario.Scheme{scenario.SchemeECMP},
		Loads:   []float64{0.2},
		Scripts: []Script{{Name: "bad", Events: []scenario.Event{
			{Kind: scenario.LinkDown, AtNs: 1_000_000, Link: "no-such"},
		}}},
		Workload: scenario.Workload{Dist: "cache", DurationNs: 2_000_000, MaxFlows: 50},
	}
	report, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", report.Failed())
	}
	if !strings.Contains(report.Outcomes[0].Err, "no-such") {
		t.Fatalf("error %q does not name the bad link", report.Outcomes[0].Err)
	}
}

// TestHulaOnWANFailsItsCellOnly: HULA needs Clos switch roles, so a
// campaign pairing it with a WAN records that one cell as failed (naming
// a role-less switch) while the ECMP cell on the same topology runs.
func TestHulaOnWANFailsItsCellOnly(t *testing.T) {
	spec := &Spec{
		Topos:    []string{"abilene+hosts"},
		Schemes:  []scenario.Scheme{scenario.SchemeECMP, scenario.SchemeHula},
		Loads:    []float64{0.2},
		Workload: scenario.Workload{Dist: "cache", DurationNs: 1_000_000, MaxFlows: 30},
	}
	report, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", report.Failed())
	}
	for _, o := range report.Outcomes {
		switch o.Scenario.Scheme {
		case scenario.SchemeECMP:
			if o.Err != "" || o.Result == nil || o.Result.Completed == 0 {
				t.Fatalf("ecmp cell: err %q, result %+v", o.Err, o.Result)
			}
		case scenario.SchemeHula:
			if !strings.Contains(o.Err, `switch "`) || !strings.Contains(o.Err, "hula") {
				t.Fatalf("hula cell error %q does not name a role-less switch", o.Err)
			}
		}
	}
}

func TestComparisonTableGroupsSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := matrixSpec()
	spec.Topos = spec.Topos[:1]
	spec.Schemes = spec.Schemes[:2]
	spec.Scripts = spec.Scripts[:1]
	report, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	header, rows := report.ComparisonTable(spec.Schemes)
	// 4 key columns + 4 per scheme (p95, p99, drops, jain).
	if len(header) != 4+4*len(spec.Schemes) {
		t.Fatalf("header = %v", header)
	}
	// One row per (topo, load, script, seed) group: 1*2*1*1.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(rows), rows)
	}
	for _, r := range rows {
		for i, cell := range r {
			if cell == "-" {
				t.Fatalf("missing scheme cell %d in row %v", i, r)
			}
		}
	}
}
