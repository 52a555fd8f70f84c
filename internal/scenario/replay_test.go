package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contra/internal/flowtrace"
	"contra/internal/workload"
)

// recordThenReplay runs live with recording and queue sampling on,
// writes the trace, and runs the replay twin (same scenario, workload
// swapped for the trace kind). Both Result JSON encodings and the
// queue-length samples must be identical, and re-recording the replay
// must reproduce the trace: record→replay→record is a fixpoint.
func recordThenReplay(t *testing.T, live Scenario) (*Result, *Result) {
	t.Helper()
	live.RecordFlows = true
	live.SampleQueues = true
	liveRes, err := Run(live)
	if err != nil {
		t.Fatal(err)
	}
	if liveRes.FlowTrace == nil {
		t.Fatal("RecordFlows produced no trace artifact")
	}
	path := filepath.Join(t.TempDir(), flowtrace.FileName(live.Name))
	if err := liveRes.FlowTrace.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rep := live
	rep.Workload = Workload{Kind: WorkloadTrace, TracePath: path}
	repRes, err := Run(rep)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(liveRes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(repRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("replayed Result differs from live run:\nlive:   %s\nreplay: %s", a, b)
	}
	// QueueMSS stays out of the JSON encoding, so compare it directly.
	lq, rq := liveRes.QueueMSS, repRes.QueueMSS
	if lq.Count() == 0 || lq.Count() != rq.Count() {
		t.Fatalf("queue samples: live %d, replay %d", lq.Count(), rq.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if lq.Quantile(q) != rq.Quantile(q) {
			t.Fatalf("queue p%g: live %v, replay %v", q*100, lq.Quantile(q), rq.Quantile(q))
		}
	}
	// The re-recorded trace matches the original byte for byte except
	// meta.key, which names the scenario that recorded it: the replay.
	if k := repRes.FlowTrace.Meta.Key; k == liveRes.FlowTrace.Meta.Key || !strings.HasPrefix(k, rep.Name+"#") {
		t.Fatalf("re-recorded key %q, want the replay scenario's own key", k)
	}
	if orig, again := traceBytesWithoutKey(t, liveRes.FlowTrace), traceBytesWithoutKey(t, repRes.FlowTrace); orig != again {
		t.Fatalf("re-recorded replay differs from the original trace:\norig:  %s\nagain: %s", orig, again)
	}
	return liveRes, repRes
}

// traceBytesWithoutKey is a trace's canonical encoding with meta.key
// blanked.
func traceBytesWithoutKey(t *testing.T, tr *flowtrace.Trace) string {
	t.Helper()
	c := *tr
	c.Meta.Key = ""
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRecordReplayFCT(t *testing.T) {
	live := Scenario{
		Name: "rr-fct", TopoSpec: "fattree:4:2", Scheme: SchemeContra, Seed: 3,
		Workload:   Workload{Kind: WorkloadFCT, Dist: "websearch", Load: 0.3, DurationNs: 2_000_000, MaxFlows: 150},
		ClassStats: true,
		Events: []Event{
			{Kind: Surge, AtNs: 4_000_000, Load: 0.2, DurationNs: 1_000_000},
			{Kind: LinkDown, AtNs: 4_000_000, Link: "auto"},
		},
	}
	liveRes, _ := recordThenReplay(t, live)
	// The trace labels surge flows so attribution survives replay.
	classes := map[string]bool{}
	for _, f := range liveRes.FlowTrace.Flows {
		classes[f.Class] = true
	}
	if !classes["base"] || !classes["surge1"] {
		t.Fatalf("trace classes = %v, want base and surge1", classes)
	}
}

func TestRecordReplayCBR(t *testing.T) {
	live := Scenario{
		Name: "rr-cbr", TopoSpec: "fattree:4:2", Scheme: SchemeECMP, Seed: 1,
		Workload: Workload{Kind: WorkloadCBR, RateBps: 2e9, EndNs: 20_000_000},
		Events:   []Event{{Kind: LinkDown, AtNs: 10_000_000, Link: "auto"}},
	}
	liveRes, _ := recordThenReplay(t, live)
	if liveRes.FlowTrace.Meta.Kind != flowtrace.KindCBR || liveRes.FlowTrace.Meta.EndNs != 20_000_000 {
		t.Fatalf("cbr trace meta = %+v", liveRes.FlowTrace.Meta)
	}
}

func TestRecordReplayCohorts(t *testing.T) {
	live := Scenario{
		Name: "rr-cohorts", TopoSpec: "fattree:4:2", Scheme: SchemeContra, Seed: 7,
		Workload: Workload{
			Kind:       WorkloadCohorts,
			DurationNs: 2_000_000,
			MaxFlows:   200,
			Cohorts: []workload.CohortSpec{
				{Name: "web", Load: 0.2},
				{Name: "bulk", RateFPS: 3000, Process: workload.ProcGamma, Shape: 0.5,
					Size: workload.SizeSpec{Dist: workload.SizeLogNormal, MeanBytes: 5e5, Sigma: 1}},
			},
		},
		ClassStats: true,
	}
	liveRes, _ := recordThenReplay(t, live)
	classes := map[string]bool{}
	for _, f := range liveRes.FlowTrace.Flows {
		classes[f.Class] = true
	}
	if !classes["web"] || !classes["bulk"] {
		t.Fatalf("trace classes = %v, want the cohort names", classes)
	}
	if liveRes.Classes == nil || len(liveRes.Classes.Cohorts) < 2 {
		t.Fatalf("cohort class stats missing: %+v", liveRes.Classes)
	}
}

// TestReplayFromRecordDir exercises the campaign layout: traces live in
// a directory keyed by sanitized cell name, and a trace path naming the
// directory resolves each cell's own recording.
func TestReplayFromRecordDir(t *testing.T) {
	live := Scenario{
		Name: "fattree:4:2/ecmp/load0.3/steady/seed1", TopoSpec: "fattree:4:2",
		Scheme: SchemeECMP, Seed: 1,
		Workload: Workload{Kind: WorkloadFCT, Load: 0.3, DurationNs: 1_000_000, MaxFlows: 50},
	}
	live.RecordFlows = true
	liveRes, err := Run(live)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := liveRes.FlowTrace.WriteFile(filepath.Join(dir, flowtrace.FileName(live.Name))); err != nil {
		t.Fatal(err)
	}
	rep := live
	rep.RecordFlows = false
	rep.Workload = Workload{Kind: WorkloadTrace, TracePath: dir}
	repRes, err := Run(rep)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(liveRes)
	b, _ := json.Marshal(repRes)
	if string(a) != string(b) {
		t.Fatalf("record-dir replay differs:\nlive:   %s\nreplay: %s", a, b)
	}
}

// TestReplayErrors pins the trace-workload failure modes to precise
// one-line errors.
func TestReplayErrors(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.flow.jsonl")
	if err := os.WriteFile(v2, []byte(`{"type":"meta","v":2,"kind":"fct","topo":"fattree:4:2","seed":1,"flows":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	otherTopo := filepath.Join(dir, "other.flow.jsonl")
	tr := &flowtrace.Trace{
		Meta:  flowtrace.Meta{Kind: flowtrace.KindFCT, Topo: "leafspine:4:4:2", Seed: 1, DeadlineNs: 10},
		Flows: []flowtrace.Flow{{ID: 1, Src: "x", Dst: "y", Bytes: 10, StartNs: 1}},
	}
	if err := tr.WriteFile(otherTopo); err != nil {
		t.Fatal(err)
	}

	base := Scenario{Name: "re", TopoSpec: "fattree:4:2", Scheme: SchemeECMP, Seed: 1}
	cases := []struct {
		name string
		path string
		want string
	}{
		{"missing file", filepath.Join(dir, "nope.flow.jsonl"), "nope.flow.jsonl"},
		{"wrong version", v2, "unsupported trace version 2"},
		{"topo mismatch", otherTopo, `recorded on topo "leafspine:4:4:2"`},
	}
	for _, tc := range cases {
		s := base
		s.Workload = Workload{Kind: WorkloadTrace, TracePath: tc.path}
		_, err := Run(s)
		if err == nil {
			t.Errorf("%s: ran", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestWorkloadKindValidation pins the cross-kind spec errors.
func TestWorkloadKindValidation(t *testing.T) {
	mk := func(w Workload, evs ...Event) Scenario {
		return Scenario{Name: "v", TopoSpec: "fattree:4:2", Scheme: SchemeECMP, Workload: w, Events: evs}
	}
	cohort := []workload.CohortSpec{{Name: "web", Load: 0.2}}
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{"unknown kind", mk(Workload{Kind: "voodoo"}), `unknown workload kind "voodoo"`},
		{"trace without path", mk(Workload{Kind: WorkloadTrace}), "trace workload needs a trace file"},
		{"trace with dist", mk(Workload{Kind: WorkloadTrace, TracePath: "x", Dist: "cache"}), "takes only a trace path"},
		{"cohorts without cohorts", mk(Workload{Kind: WorkloadCohorts}), "declares no cohorts"},
		{"cohorts with dist", mk(Workload{Kind: WorkloadCohorts, Dist: "cache", Cohorts: cohort}), "does not take dist"},
		{"cohorts with pattern", mk(Workload{Kind: WorkloadCohorts, Pattern: "incast", Cohorts: cohort}), "does not take pattern"},
		{"cohorts with pairs", mk(Workload{Kind: WorkloadCohorts, Pairs: [][2]string{{"a", "b"}}, Cohorts: cohort}), "does not take pairs"},
		{"cohorts on fct", mk(Workload{Kind: WorkloadFCT, Cohorts: cohort}), `cohorts require workload kind "cohorts"`},
		{"trace path on fct", mk(Workload{Kind: WorkloadFCT, TracePath: "x"}), `a trace path requires workload kind "trace"`},
		{"bad cohort bubbles", mk(Workload{Kind: WorkloadCohorts, Cohorts: []workload.CohortSpec{{Name: "w", RateFPS: -1, Load: 0.1}}}),
			"rate_fps -1 is negative"},
		{"surge on cohorts", mk(Workload{Kind: WorkloadCohorts, Cohorts: cohort},
			Event{Kind: Surge, AtNs: 1, Load: 0.1, DurationNs: 1}), "surge events require an fct workload"},
		{"ramp on cbr", mk(Workload{Kind: WorkloadCBR},
			Event{Kind: Ramp, AtNs: 1, Load: 0.1, DurationNs: 1}), "ramp events require an fct workload"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestNewWorkloadFieldsKeepKeysStable guards the checkpoint contract:
// scenarios that do not use the new fields must key exactly as before
// they existed (absent omitempty fields leave the canonical encoding
// untouched), and RecordFlows must never enter the key at all.
func TestNewWorkloadFieldsKeepKeysStable(t *testing.T) {
	s := Scenario{Name: "k", TopoSpec: "fattree:4:2", Scheme: SchemeContra, Seed: 1,
		Workload: Workload{Kind: WorkloadFCT, Load: 0.4}}
	base := s.Key()
	rec := s
	rec.RecordFlows = true
	if rec.Key() != base {
		t.Fatal("RecordFlows changed the scenario key")
	}
	enc, err := json.Marshal(&s.Workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cohorts", "trace"} {
		if strings.Contains(string(enc), field) {
			t.Fatalf("unused field %q leaks into the canonical encoding: %s", field, enc)
		}
	}
}
