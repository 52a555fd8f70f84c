package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"contra/internal/campaign"
	"contra/internal/cliutil"
	"contra/internal/scenario"
)

// A run of the benchmark is a parent process that starts one child
// process per measurement: one cell of a batch, or the whole campaign.
// Each child runs alone in a fresh process, so its peak RSS is its own;
// it reads that peak right after the measured run and only then times
// its set-up. A child reports one JSON line (childOut) on standard
// output.

// childOut is one child's report.
type childOut struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	// PeakRSSMB is the process's peak RSS at the end of the measured run.
	PeakRSSMB float64   `json:"peak_rss_mb,omitempty"`
	SetupS    []float64 `json:"setup_s,omitempty"`
	// Digest is the sha256 of the Result JSON (a cell) or of the report
	// JSON (the campaign); CSVDigest is the campaign CSV's.
	Digest    string      `json:"digest,omitempty"`
	CSVDigest string      `json:"csv_digest,omitempty"`
	Cells     []cellModel `json:"cells,omitempty"`
	// Traced runs: the traced rebuild's wall time, the untraced wall
	// time it is compared with, and the per-layer metrics.
	TracedWallS float64 `json:"traced_wall_s,omitempty"`
	RefWallS    float64 `json:"ref_wall_s,omitempty"`
	Layers      layers  `json:"layers,omitempty"`
	// Problems lists output checks that failed inside the child.
	Problems []string `json:"problems,omitempty"`
}

// childMain runs one measurement in this process and reports it.
func childMain(mode string, w benchWorkload, seed int64, cell int, root string, spansPath string) error {
	var out childOut
	var err error
	switch mode {
	case "run":
		out, _, err = runOnce(w, seed, cell, root, nil)
		if err == nil {
			out.PeakRSSMB, err = peakRSSMB()
		}
		if err == nil {
			out.SetupS, err = setupTimes(w, seed, cell, root)
		}
	case "verify":
		out, _, err = runOnce(w, seed, cell, root, nil)
	case "trace":
		out, err = traceOnce(w, seed, cell, root, spansPath)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// meter measures host wall time, CPU time and allocated bytes over an
// interval of this process.
type meter struct {
	t0  time.Time
	ru0 syscall.Rusage
	ms0 runtime.MemStats
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	// Getrusage fails only on a bad "who" or pointer, neither possible here.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(out *childOut) {
	out.WallS = time.Since(m.t0).Seconds()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	out.CPUS = cpuSeconds(&ru) - cpuSeconds(&m.ru0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.AllocMB = float64(ms.TotalAlloc-m.ms0.TotalAlloc) / 1e6
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads this process's peak resident set size (VmHWM) so far.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resultDigest is the sha256 of a Result's JSON.
func resultDigest(r *scenario.Result) (string, error) {
	js, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return digest(js), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// A run child repeats its set-up after the measured run on each CPU it
// may use in turn: on each, at least minSetups times and for at least
// setupSpan, at most maxSetups times. The span gives the campaign's
// sub-millisecond set-up enough samples for a steady low quantile.
const (
	minSetups = 25
	maxSetups = 1000
	setupSpan = 100 * time.Millisecond
	// setupsPerGC bounds the garbage the set-ups leave between
	// collections to a few tens of MB.
	setupsPerGC = 16
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall lacks.
const clockThreadCPUTime = 3

// setupTimes measures the set-up of a child's cell — everything before
// simulated time starts, through the program's exported calls
// (programSetup) — or, for the campaign, spec load and expansion. Each
// sample is the CPU time of the thread that runs the set-up, which
// leaves out time the thread waits descheduled: a set-up lasts a few
// milliseconds or less, and on a shared host its wall time moves with
// other processes' load.
//
// The thread is pinned to each allowed CPU in turn. On a virtual
// machine one CPU can run the same set-up 1.6 times slower than another
// for minutes, while its sibling thread on the host is busy; a thread
// left to the scheduler lands on one or the other, so the samples of a
// whole run could come from the slow one.
func setupTimes(w benchWorkload, seed int64, cell int, root string) ([]float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	allowed, err := getAffinity()
	if err != nil {
		return nil, err
	}
	// The child exits soon after; a thread left pinned by a failed
	// restore would only encode its report.
	defer func() { _ = setAffinity(allowed) }()
	// Collections run only between samples, every setupsPerGC set-ups,
	// so no sample pays for one. Left to the pacer, they hit a share of
	// the samples that depends on the heap the measured run left, which
	// moved a child's median set-up by half. Collecting before every
	// sample would leave each set-up to run on cold caches.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var times []float64
	for _, cpu := range allowed.cpus() {
		var one cpuSet
		one.add(cpu)
		if err := setAffinity(one); err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < setupSpan); i++ {
			if i%setupsPerGC == 0 {
				runtime.GC()
			}
			t0 := threadCPUSeconds()
			if w.cells == nil {
				spec, err := campaign.LoadFile(filepath.Join(root, smokeSpec))
				if err != nil {
					return nil, err
				}
				if _, err := spec.Jobs(); err != nil {
					return nil, err
				}
			} else if err := programSetup(w.cells(seed)[cell]); err != nil {
				return nil, err
			}
			times = append(times, threadCPUSeconds()-t0)
		}
	}
	return times, nil
}

// cpuSet is a Linux CPU affinity mask (cpu_set_t) of up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int) { s[cpu/64] |= 1 << (cpu % 64) }

func (s *cpuSet) cpus() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// getAffinity and setAffinity read and set the calling thread's CPU
// affinity; package syscall has no wrappers for them.
func getAffinity() (cpuSet, error) {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return s, nil
}

func setAffinity(s cpuSet) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// threadCPUSeconds reads the calling thread's CPU clock. Unlike
// getrusage(RUSAGE_THREAD), which advances only at scheduler ticks, it
// resolves the microseconds a set-up takes.
func threadCPUSeconds() float64 {
	var ts syscall.Timespec
	// clock_gettime fails only on a bad clock ID or pointer, neither
	// possible here.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// runOnce runs one cell of a batch through scenario.Run, or the
// campaign through campaign.Run plus report encoding, with tracing off,
// and returns the cells' outcomes. Digests and model outcomes are
// derived outside the measured interval. A non-nil tracer records the
// campaign's cell spans from its Started/Progress hooks.
func runOnce(w benchWorkload, seed int64, cell int, root string, tr *tracer) (childOut, []campaign.Outcome, error) {
	var out childOut
	if w.cells != nil {
		scens := w.cells(seed)
		if cell < 0 || cell >= len(scens) {
			return out, nil, fmt.Errorf("workload %s has no cell %d", w.name, cell)
		}
		sc := scens[cell]
		m := startMeter()
		res, err := scenario.Run(sc)
		m.stop(&out)
		if err != nil {
			return out, nil, err
		}
		if out.Digest, err = resultDigest(res); err != nil {
			return out, nil, err
		}
		cm, err := modelOf(sc, res)
		if err != nil {
			return out, nil, err
		}
		out.Cells = []cellModel{cm}
		return out, []campaign.Outcome{{Scenario: sc, Result: res}}, nil
	}

	opts := campaign.Options{Workers: smokeWorkers}
	var root0 int
	if tr != nil {
		root0 = tr.start("campaign", 0)
		open := map[string]int{}
		opts.Started = func(j *campaign.Job) { open[j.Scenario.Name] = tr.start("campaign.cell", root0) }
		opts.Progress = func(_, _ int, o *campaign.Outcome) { tr.finish(open[o.Scenario.Name]) }
	}
	var js, csv bytes.Buffer
	m := startMeter()
	spec, err := campaign.LoadFile(filepath.Join(root, smokeSpec))
	if err != nil {
		return out, nil, err
	}
	rep, err := campaign.Run(spec, opts)
	if err != nil {
		return out, nil, err
	}
	sp := tr.start("campaign.encode", root0)
	if err := rep.WriteJSON(&js); err != nil {
		return out, nil, err
	}
	if err := rep.WriteCSV(&csv); err != nil {
		return out, nil, err
	}
	tr.finish(sp)
	m.stop(&out)
	tr.finish(root0)

	out.Digest, out.CSVDigest = digest(js.Bytes()), digest(csv.Bytes())
	for _, o := range rep.Outcomes {
		var cm cellModel
		if o.Err != "" {
			// An errored cell counts every flow it offered as failed.
			g, err := cliutil.BuildTopology(o.Scenario.TopoSpec)
			if err != nil {
				return out, nil, err
			}
			flows, err := fctFlows(filled(o.Scenario), g)
			if err != nil {
				return out, nil, err
			}
			cm = cellModel{Name: o.Scenario.Name, Errored: true, Flows: int64(len(flows))}
		} else {
			if cm, err = modelOf(o.Scenario, o.Result); err != nil {
				return out, nil, err
			}
		}
		out.Cells = append(out.Cells, cm)
	}
	return out, rep.Outcomes, nil
}

// traceOnce runs one cell (or the campaign) untraced, then rebuilds the
// same cells from the layers' exported calls with every router wrapped
// and every phase spanned, and checks that each rebuilt cell reproduces
// its untraced Result. Spans are written to spansPath as JSON lines
// when it is set.
func traceOnce(w benchWorkload, seed int64, cell int, root, spansPath string) (childOut, error) {
	tr := newTracer()
	out, outcomes, err := runOnce(w, seed, cell, root, tr)
	if err != nil {
		return out, err
	}
	lay := layers{}
	out.RefWallS = out.WallS
	if w.cells == nil {
		campaignLayers(tr, lay, out.WallS)
		// The campaign ran its cells on two workers sharing the host's
		// CPUs; the rebuild runs them one at a time. Each cell is run
		// again alone, untraced, so the overhead compares like with like.
		out.RefWallS = 0
	}

	// Rebuild the cells one at a time on one goroutine. An errored cell
	// has no Result to reproduce; it already counts as failed.
	for _, o := range outcomes {
		if o.Err != "" {
			continue
		}
		if w.cells == nil {
			runtime.GC()
			t0 := time.Now()
			res, err := scenario.Run(o.Scenario)
			if err != nil {
				return out, err
			}
			out.RefWallS += time.Since(t0).Seconds()
			alone, err := resultDigest(res)
			if err != nil {
				return out, err
			}
			inCampaign, err := resultDigest(o.Result)
			if err != nil {
				return out, err
			}
			if alone != inCampaign {
				out.Problems = append(out.Problems, fmt.Sprintf("cell %s: Result digest run alone %s differs from its campaign run's %s", o.Scenario.Name, alone, inCampaign))
			}
		}
		runtime.GC()
		hs := &handleStats{}
		t0 := time.Now()
		root := tr.start("rebuild", 0)
		c, err := setupCell(o.Scenario, tr, root, hs)
		if err != nil {
			return out, err
		}
		got, err := runCell(c, tr, root, lay)
		if err != nil {
			return out, err
		}
		tr.finish(root)
		out.TracedWallS += time.Since(t0).Seconds()
		if want := resultFacts(o.Result); !reflect.DeepEqual(got, want) {
			out.Problems = append(out.Problems, fmt.Sprintf("cell %s: traced rebuild differs from scenario.Run: got %+v, want %+v",
				o.Scenario.Name, summary(got), summary(want)))
		}
	}
	spanLayers(tr, lay)
	out.Layers = lay
	if spansPath != "" {
		if err := writeSpans(spansPath, tr.spans); err != nil {
			return out, err
		}
	}
	return out, nil
}

// summary drops the series from facts for a readable mismatch message.
func summary(f facts) facts {
	f.Series = nil
	return f
}

// spanLayers sums the durations of every named phase span into its
// layer's "<span>_s" metric. Root spans and campaign cell spans are
// accounted for elsewhere.
func spanLayers(tr *tracer, lay layers) {
	for _, s := range tr.spans {
		if s.Parent == 0 || s.Name == "campaign.cell" {
			continue
		}
		lay.add(s.Name+"_s", float64(s.EndNs-s.StartNs)/1e9)
	}
}

// campaignLayers derives the campaign layer's metrics from the cell
// spans its Started/Progress hooks recorded: a cell's queue wait runs
// from the campaign's start to a worker picking it up.
func campaignLayers(tr *tracer, lay layers, wallS float64) {
	var start int64
	for _, s := range tr.spans {
		switch s.Name {
		case "campaign":
			start = s.StartNs
		case "campaign.cell":
			d := float64(s.EndNs-s.StartNs) / 1e9
			lay.add("campaign.cells", 1)
			lay.add("campaign.cell_busy_s", d)
			lay.max("campaign.cell_max_s", d)
			lay.add("campaign.queue_wait_s", float64(s.StartNs-start)/1e9)
		}
	}
	lay["campaign.worker_util"] = lay["campaign.cell_busy_s"] / (smokeWorkers * wallS)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
