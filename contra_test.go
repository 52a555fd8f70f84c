package contra

import (
	"strings"
	"testing"
	"time"
)

func TestCompileSourceAndInspect(t *testing.T) {
	g := Abilene()
	p, err := CompileSource("minimize(path.lat)", g)
	if err != nil {
		t.Fatal(err)
	}
	if p.ProbeClasses() != 1 {
		t.Fatalf("probe classes = %d, want 1", p.ProbeClasses())
	}
	if p.MaxStateBytes() <= 0 || p.CompileTime() <= 0 {
		t.Fatal("missing stats")
	}
	p4, err := p.P4("SEA")
	if err != nil || !strings.Contains(p4, "contra_probe_t") {
		t.Fatalf("P4 generation failed: %v", err)
	}
	if _, err := p.P4("NOPE"); err == nil {
		t.Fatal("unknown switch should error")
	}
	if !strings.Contains(p.AnalysisReport(), "isotone: true") {
		t.Fatalf("analysis report:\n%s", p.AnalysisReport())
	}
}

func TestSimulationBestPath(t *testing.T) {
	g := Abilene()
	p, err := CompileSource("minimize(path.lat)", g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p, 1)
	s.WarmUp()
	path, rank, err := s.BestPath("SEA", "NYC")
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != "SEA" || path[len(path)-1] != "NYC" {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	if rank.IsInf() {
		t.Fatal("rank should be finite")
	}
	// SEA-DEN-KC-IND-CHI-NYC = 10+5+4+2+8 = 29ms; the alternative
	// through WDC is 10+5+4+5+6+3 = 33ms.
	want := []string{"SEA", "DEN", "KC", "IND", "CHI", "NYC"}
	if strings.Join(path, "-") != strings.Join(want, "-") {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestSimulationFailoverReroutes(t *testing.T) {
	g := Abilene()
	p, err := CompileSource("minimize(path.lat)", g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p, 2)
	s.WarmUp()
	if err := s.FailLink("CHI", "NYC", 0); err != nil {
		t.Fatal(err)
	}
	// Wait for failure detection (k periods) plus margin.
	s.RunFor(time.Duration(8) * p.ProbePeriod())
	path, _, err := s.BestPath("SEA", "NYC")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(path, "-")
	if strings.Contains(joined, "CHI-NYC") {
		t.Fatalf("path still uses failed link: %v", path)
	}
	if path[len(path)-1] != "NYC" {
		t.Fatalf("path does not reach NYC: %v", path)
	}
}

func TestSimulationFlows(t *testing.T) {
	g := AbileneWithHosts(0)
	p, err := CompileSource("minimize(path.util)", g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p, 3)
	s.WarmUp()
	src, err := s.HostNamed("H_SEA")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := s.HostNamed("H_NYC")
	if err != nil {
		t.Fatal(err)
	}
	s.AddFlows(Flow{ID: 1, Src: src, Dst: dst, Size: 200_000})
	if !s.RunUntilDone(2*time.Second, 1) {
		t.Fatal("flow did not complete")
	}
	if s.MeanFCT() <= 0 {
		t.Fatal("no FCT recorded")
	}
	if s.Counter("bytes_probe") == 0 {
		t.Fatal("no probe traffic counted")
	}
}

func TestCatalogCompilesOnAbilene(t *testing.T) {
	g := Abilene()
	pols := map[string]*Policy{
		"P1": ShortestPathPolicy(),
		"P2": MinUtil(),
		"P3": WidestShortest(),
		"P4": ShortestWidest(),
		"P5": Waypoint("KC", "DEN"),
		"P6": LinkPreference("SEA", "DEN"),
		"P7": WeightedLink("SEA", "DEN", 10),
		"P8": SourceLocal("SEA"),
		"P9": CongestionAware(),
	}
	for name, pol := range pols {
		if _, err := Compile(pol, g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestOptions(t *testing.T) {
	g := Abilene()
	p, err := CompileSource("minimize(path.util)", g,
		WithProbePeriod(500*time.Microsecond),
		WithFlowletTimeout(300*time.Microsecond),
		WithFailureDetectPeriods(5))
	if err != nil {
		t.Fatal(err)
	}
	if p.ProbePeriod() != 500*time.Microsecond {
		t.Fatalf("probe period = %v", p.ProbePeriod())
	}
}

func TestParseTopologyFacade(t *testing.T) {
	src := "node A switch\nnode B switch\nlink A B 10G 1us\n"
	g, err := ParseTopology(strings.NewReader(src), "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileSource("minimize(path.len)", g); err != nil {
		t.Fatal(err)
	}
	// Policy with unknown switch name fails under symbol checking.
	if _, err := CompileSource("minimize(if Z .* then 0 else path.len)", g); err == nil {
		t.Fatal("unknown symbol should fail")
	}
}

func TestStandardPoliciesCompileEverywhere(t *testing.T) {
	for _, g := range []*Topology{Fattree(4, 0), RandomTopology(30, 4, 3), Abilene()} {
		for name, gen := range StandardPolicies() {
			if _, err := CompileSource(gen(g), g); err != nil {
				t.Fatalf("%s on %s: %v", name, g.Name, err)
			}
		}
	}
}
