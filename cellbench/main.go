// Command cellbench is the repository's cell-level benchmark: it runs
// one named, seed-pinned workload end to end, checks its outputs, and
// prints every metric by name with its unit. With -trace 1 it instead
// rebuilds the workload's cells from the layers' exported calls and
// prints per-layer metrics and the tracing overhead. See README.md.
//
// Usage (from the repository root):
//
//	bash cellbench/run.sh --workload ft8-packed-cbr --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric describes one reported metric. Bound is the share of the
// parent commit's median by which an end-to-end metric may worsen.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated end-to-end metrics: host costs a user of the
// simulator sees on every workload, measured with tracing off.
var endToEnd = []metric{
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// ungated are end-to-end metrics printed next to the gated ones but
// left out of BENCHMARK.json. wall_s moves with the host's hypervisor
// steal by more than the largest bound allows (README.md). The model
// metrics are deterministic for a seed and checked, but do not apply to
// every workload, and fail_frac is 0 on a healthy run.
var ungated = []metric{
	{"wall_s", "s", "lower", 0},
	{"fct_p50_ms", "ms", "lower", 0},
	{"fct_p99_ms", "ms", "lower", 0},
	{"probe_share", "ratio", "lower", 0},
	{"recovery_ms", "ms", "lower", 0},
	{"goodput_gbps", "Gbps", "higher", 0},
	{"fail_frac", "ratio", "lower", 0},
}

// perLayer are the traced run's metrics, one or more per layer.
var perLayer = []metric{
	{"dataplane.probe_pkts", "count", "lower", 0},
	{"dataplane.probe_s", "s", "lower", 0},
	{"dataplane.data_pkts", "count", "lower", 0},
	{"dataplane.data_s", "s", "lower", 0},
	{"dataplane.ack_pkts", "count", "lower", 0},
	{"dataplane.ack_s", "s", "lower", 0},
	{"dataplane.probe_tx_saved", "count", "higher", 0},
	{"dataplane.deploy_s", "s", "lower", 0},
	{"baseline.data_pkts", "count", "lower", 0},
	{"baseline.data_s", "s", "lower", 0},
	{"baseline.ack_pkts", "count", "lower", 0},
	{"baseline.ack_s", "s", "lower", 0},
	{"baseline.deploy_s", "s", "lower", 0},
	{"sim.warmup_s", "s", "lower", 0},
	{"sim.run_s", "s", "lower", 0},
	{"sim.self_s", "s", "lower", 0},
	{"sim.pending_peak", "count", "lower", 0},
	{"sim.alloc_mb", "MB", "lower", 0},
	{"sim.mallocs", "count", "lower", 0},
	{"sim.gc_cycles", "count", "lower", 0},
	{"sim.queue_drops", "count", "lower", 0},
	{"sim.data_tx_per_offered", "ratio", "lower", 0},
	{"sim.network_s", "s", "lower", 0},
	{"topo.build_s", "s", "lower", 0},
	{"policy.parse_s", "s", "lower", 0},
	{"core.compile_s", "s", "lower", 0},
	{"core.pids", "count", "lower", 0},
	{"workload.generate_s", "s", "lower", 0},
	{"workload.flows", "count", "higher", 0},
	{"campaign.cells", "count", "higher", 0},
	{"campaign.cell_busy_s", "s", "lower", 0},
	{"campaign.cell_max_s", "s", "lower", 0},
	{"campaign.queue_wait_s", "s", "lower", 0},
	{"campaign.worker_util", "ratio", "higher", 0},
	{"campaign.encode_s", "s", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
}

func main() {
	var (
		wlName    = flag.String("workload", "", "workload name: ft4-contra, ft4-ecmp, ft8-packed-cbr or smoke-campaign")
		seed      = flag.Int64("seed", 1, "workload seed (the campaign keeps its spec's pinned seeds)")
		seconds   = flag.Int("seconds", 40, "measurement budget in seconds; at least one repetition runs")
		traced    = flag.Int("trace", 0, "1 runs the traced rebuild and prints per-layer metrics")
		root      = flag.String("root", ".", "repository root")
		childMode = flag.String("child", "", "internal: run one measurement in this process (run or trace)")
		spans     = flag.String("spans", "", "internal: file a trace child writes its spans to")
		cell      = flag.Int("cell", 0, "internal: index of the batch cell a child runs")
	)
	flag.Parse()
	w, err := findWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cellbench:", err)
		os.Exit(2)
	}
	if *childMode != "" {
		if err := childMain(*childMode, w, *seed, *cell, *root, *spans); err != nil {
			fmt.Fprintln(os.Stderr, "cellbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "cellbench:", err)
		os.Exit(1)
	}
}

// rep is one repetition of a workload: the reports of the child
// processes that ran its cells (or the campaign), combined.
type rep struct {
	wallS, cpuS, allocMB float64
	rssMB                []float64 // peak RSS of each child
	setupS               []float64 // every set-up sample
	digests              []string  // each child's output digests
	cells                []cellModel
	problems             []string
	tracedWallS          float64
	refWallS             float64
	layers               layers
	elapsed              time.Duration
}

// maxLayers are the per-layer metrics that combine across cells by
// maximum rather than sum.
var maxLayers = map[string]bool{"sim.pending_peak": true, "campaign.cell_max_s": true}

// runChild starts this binary as a child measuring one thing, waits
// for its report, and returns it.
func runChild(mode string, w benchWorkload, seed int64, root string, extra ...string) (childOut, error) {
	var out childOut
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	args := append([]string{"-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-root", root}, extra...)
	cmd := exec.Command(exe, args...)
	// A child dies with its parent, so a killed run leaves nothing behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("%s child: %w", mode, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return out, fmt.Errorf("%s child: bad report: %w", mode, err)
	}
	return out, nil
}

// runRep runs one repetition: a child per cell of a batch, or one
// child for the campaign. A traced repetition writes each child's spans
// under spanDir.
func runRep(mode string, w benchWorkload, seed int64, root, spanDir string) (rep, error) {
	t0 := time.Now()
	n := 1
	if w.cells != nil {
		n = len(w.cells(seed))
	}
	r := rep{layers: layers{}}
	for i := 0; i < n; i++ {
		args := []string{"-cell", strconv.Itoa(i)}
		if spanDir != "" {
			args = append(args, "-spans", filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-cell%d.jsonl", w.name, seed, i)))
		}
		c, err := runChild(mode, w, seed, root, args...)
		if err != nil {
			return r, err
		}
		r.wallS += c.WallS
		r.cpuS += c.CPUS
		r.allocMB += c.AllocMB
		r.rssMB = append(r.rssMB, c.PeakRSSMB)
		r.setupS = append(r.setupS, c.SetupS...)
		r.digests = append(r.digests, c.Digest+c.CSVDigest)
		r.cells = append(r.cells, c.Cells...)
		r.problems = append(r.problems, c.Problems...)
		r.tracedWallS += c.TracedWallS
		r.refWallS += c.RefWallS
		for k, v := range c.Layers {
			if maxLayers[k] {
				r.layers.max(k, v)
			} else {
				r.layers.add(k, v)
			}
		}
	}
	// The data each host put on the wire per byte the workload offered.
	if off := r.layers["sim.offered_bytes"]; off > 0 {
		r.layers["sim.data_tx_per_offered"] = r.layers["sim.host_data_bytes"] / off
	}
	r.elapsed = time.Since(t0)
	return r, nil
}

// repeat runs repetitions until the next one would end past the
// budget, and at least once.
func repeat(mode string, w benchWorkload, seed int64, root, spanDir string, start time.Time, budget time.Duration) ([]rep, error) {
	var reps []rep
	for {
		r, err := runRep(mode, w, seed, root, spanDir)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		if time.Since(start)+r.elapsed > budget {
			return reps, nil
		}
	}
}

// run is one benchmark run: measure, check, print.
func run(w benchWorkload, seed int64, budget time.Duration, traced bool, root string) error {
	start := time.Now()
	mode, spanDir := "run", ""
	if traced {
		mode, spanDir = "trace", filepath.Join(root, ".bench_build", "spans")
	}
	reps, err := repeat(mode, w, seed, root, spanDir, start, budget)
	if err != nil {
		return err
	}
	// A batch that fits the budget only once has no second repetition
	// to compare with: run its first cell again, outside the measured
	// repetitions. The campaign's digests are checked against the golden.
	var rerun *childOut
	if !traced && len(reps) == 1 && w.cells != nil {
		c, err := runChild("verify", w, seed, root, "-cell", "0")
		if err != nil {
			return err
		}
		rerun = &c
	}

	problems := check(w, root, reps, rerun)
	fmt.Printf("workload %s  seed %d  %d repetition(s) of %d cell(s)  tracing %s\n",
		w.name, seed, len(reps), len(reps[0].cells), map[bool]string{false: "off", true: "on"}[traced])
	metrics := map[string]result{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = result{median(field(reps, func(r rep) float64 { return r.layers[m.Name] })), m.Unit}
		}
		metrics["bench.trace_overhead"] = result{median(field(reps, func(r rep) float64 { return r.tracedWallS / r.refWallS })), unit("bench.trace_overhead")}
		printTable(perLayer, metrics, nil)
	} else {
		var setup []float64
		for _, r := range reps {
			setup = append(setup, r.setupS...)
		}
		// Model metrics are deterministic for a seed: every repetition
		// reports the same values, which check verified.
		printed := map[string]result{}
		for name, v := range modelMetrics(reps[0].cells) {
			printed[name] = result{v, unit(name)}
		}
		notes := map[string]string{"setup_s": fmt.Sprintf("10th percentile of %d set-ups", len(setup))}
		if n, ok := printed["fct_flows"]; ok {
			note := fmt.Sprintf("median over fct cells of at least %.0f completed flows", n.Value)
			notes["fct_p50_ms"], notes["fct_p99_ms"] = note, note
		}
		add := func(into map[string]result, name string, f func(rep) float64) {
			vs := field(reps, f)
			into[name] = result{median(vs), unit(name)}
			notes[name] = fmt.Sprintf("median of %d, range %.4g-%.4g", len(vs), slices.Min(vs), slices.Max(vs))
		}
		add(metrics, "cpu_s", func(r rep) float64 { return r.cpuS })
		add(metrics, "alloc_mb", func(r rep) float64 { return r.allocMB })
		add(metrics, "peak_rss_mb", func(r rep) float64 { return median(r.rssMB) })
		add(printed, "wall_s", func(r rep) float64 { return r.wallS })
		metrics["setup_s"] = result{quantile(setup, setupQuantile), unit("setup_s")}
		fmt.Println("gated:")
		printTable(endToEnd, metrics, notes)
		fmt.Println("not gated:")
		printTable(ungated, printed, notes)
	}

	attempted, failed := 0, 0
	for _, r := range reps {
		for _, c := range r.cells {
			attempted++
			if c.failed() {
				failed++
			}
		}
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if len(problems) == 0 {
		fmt.Println("checks: ok")
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]result `json:"metrics"`
	}{len(problems) == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(problems) > 0 {
		return fmt.Errorf("%d output check(s) failed", len(problems))
	}
	return nil
}

// unit looks a metric's unit up in the metric tables.
func unit(name string) string {
	for _, table := range [][]metric{endToEnd, ungated, perLayer} {
		for _, m := range table {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// result is one metric's value in the output line.
type result struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check runs the output checks over a run's repetitions: every child's
// own checks, identical outputs and model outcomes across repetitions
// and in rerun (the first cell run again, when not nil), the campaign's
// golden digests, and a real failover dip on cbr cells.
func check(w benchWorkload, root string, reps []rep, rerun *childOut) []string {
	var problems []string
	first := reps[0]
	for i, r := range reps {
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("repetition %d: %s", i+1, p))
		}
		if !reflect.DeepEqual(r.digests, first.digests) {
			problems = append(problems, fmt.Sprintf("repetition %d: output digests %v differ from repetition 1's %v", i+1, r.digests, first.digests))
		}
		if !reflect.DeepEqual(r.cells, first.cells) {
			problems = append(problems, fmt.Sprintf("repetition %d: model outcomes differ from repetition 1's", i+1))
		}
	}
	if rerun != nil {
		if rerun.Digest != first.digests[0] {
			problems = append(problems, fmt.Sprintf("cell 0 run again: output digest %s differs from %s", rerun.Digest, first.digests[0]))
		}
		if !reflect.DeepEqual(rerun.Cells, first.cells[:1]) {
			problems = append(problems, "cell 0 run again: model outcome differs")
		}
	}
	if w.cells == nil {
		golden, err := readGolden(filepath.Join(root, smokeGolden))
		if err != nil {
			return append(problems, err.Error())
		}
		base := strings.TrimSuffix(filepath.Base(smokeSpec), ".json")
		if got, want := first.digests[0], golden[base+".json"]+golden[base+".csv"]; got != want {
			problems = append(problems, fmt.Sprintf("campaign JSON+CSV digests %s, golden %s (%s)", got, want, smokeGolden))
		}
	}
	for _, c := range first.cells {
		if c.CBR && !(c.MinBps < c.BaselineBps) {
			problems = append(problems, fmt.Sprintf("cell %s: failover dip %.4g bps is not below the baseline %.4g bps, so recovery_ms measures no failover",
				c.Name, c.MinBps, c.BaselineBps))
		}
	}
	return problems
}

func field(reps []rep, f func(rep) float64) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, f(r))
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// setupQuantile is the quantile of a run's set-up samples reported as
// setup_s. A set-up lasts a few milliseconds or less, and on a shared
// host other processes lengthen many samples by half or more, in bursts
// that come and go over minutes; a low quantile follows the set-up's
// own cost rather than how many samples such bursts hit.
const setupQuantile = 0.1

// printTable prints a table's metrics in order with their units and
// notes; metrics without a value print as n/a.
func printTable(table []metric, values map[string]result, notes map[string]string) {
	for _, m := range table {
		v, ok := values[m.Name]
		if !ok {
			fmt.Printf("  %-26s %14s %-6s\n", m.Name, "n/a", m.Unit)
			continue
		}
		line := fmt.Sprintf("  %-26s %14.6g %-6s", m.Name, v.Value, m.Unit)
		if n := notes[m.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
}
