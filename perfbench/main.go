// Command perfbench is the repository benchmark. It drives the
// simulator through the entry points users reach — harness.New(cfg).Run
// for suites, tracec.Executor for compile-once-replay, and
// service.New(cfg).Handler() over loopback HTTP for the daemon — and
// prints the end-to-end metrics of one workload, or, with --trace 1, the
// per-layer metrics of a traced run.
//
//	bash perfbench/run.sh --workload fig10-live --seed 1 --seconds 25 --trace 0
//
// Each repetition runs in a fresh child process, so its peak RSS is its
// own; the parent repeats the workload until --seconds are used and
// reports medians. All timings are host time. Simulated statistics are
// deterministic for a seed, so they serve as exact-repeat witnesses,
// never as speed metrics. The workloads are synthetic and the model is
// unvalidated in absolute terms: no figure here is an error against the
// paper.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadNames are the benchmark's workloads, in BENCHMARK.json order.
var workloadNames = []string{"fig10-live", "fig10-replay", "all-short", "service-cells"}

// metric is one reported figure.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"sim_mrefs_per_s", "Mrefs/s"},
	{"cell_p50_s", "s"},
	{"cell_p75_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer the workload does not reach reads 0.
var perLayer = func() []metric {
	m := []metric{
		{"build.s", "s"}, {"build.calls", "count"}, {"build.ms_per_call", "ms"},
		{"trace.s", "s"}, {"trace.refs", "count"}, {"trace.ns_per_ref", "ns"},
		{"tracec.compile_s", "s"}, {"tracec.compiles", "count"}, {"tracec.cells_replayed", "count"},
		{"tracec.reuse_ratio", "ratio"}, {"tracec.segment_mb", "MB"}, {"tracec.validate_s", "s"},
		{"tracec.decode_ns_per_ref", "ns"},
		{"core.new_s", "s"}, {"core.access_s", "s"}, {"core.access_ns_per_ref", "ns"},
	}
	for _, k := range configs {
		m = append(m, metric{"core.access_ns_per_ref." + k.String(), "ns"})
	}
	return append(m,
		metric{"core.refs", "count"}, metric{"core.instructions", "count"},
		metric{"core.l1_misses", "count"}, metric{"core.l2_misses", "count"},
		metric{"core.walk_refs", "count"}, metric{"core.energy_pj", "pJ"},
		metric{"harness.cells_planned", "count"}, metric{"harness.cells_executed", "count"},
		metric{"harness.dedup_ratio", "ratio"}, metric{"harness.self_s", "s"},
		metric{"harness.worker_idle_s", "s"},
		metric{"service.hit_p50_ms", "ms"}, metric{"service.miss_p50_ms", "ms"},
		metric{"service.cache_hit_ratio", "ratio"}, metric{"service.refused", "count"},
		metric{"unattributed_s", "s"}, metric{"tracing.overhead_s", "s"},
	)
}()

// witnessLayers are the per-layer metrics read from the exact-repeat
// witnesses rather than from spans.
var witnessLayers = []string{
	"core.refs", "core.instructions", "core.l1_misses", "core.l2_misses",
	"core.walk_refs", "core.energy_pj",
}

// repReport is what one child process reports about one repetition.
type repReport struct {
	WallS     float64            `json:"wall_s"`
	SetupS    float64            `json:"setup_s"`
	CellS     []float64          `json:"cell_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	MemRefs   uint64             `json:"mem_refs"`
	Digest    string             `json:"digest"`
	Witness   map[string]string  `json:"witness"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Problems  []string           `json:"problems,omitempty"`

	traced bool
	rssMB  float64
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 25, "measurement time")
	traced := flag.Int("trace", 0, "1: run traced and print the per-layer metrics")
	child := flag.Bool("child", false, "run one repetition and print its report (internal)")
	workDir := flag.String("workdir", "", "scratch directory of a child repetition (internal)")
	flag.Parse()

	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *child {
		if err := runChild(*workload, *seed, *traced == 1, *workDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runParent(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// buildDir is where build outputs and scratch files go: the directory
// CARGO_TARGET_DIR names, else .bench_build, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// runChild runs one repetition and prints its report as one JSON line.
func runChild(workload string, seed int64, traced bool, workDir string) error {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	ctx := context.Background()
	var r *repReport
	var err error
	if workload == "service-cells" {
		r, err = runService(ctx, seed, rec)
	} else {
		r, err = runSuite(ctx, workload, seed, workDir, rec)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		path := filepath.Join(buildDir(), "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("trace dir: %w", err)
		}
		if err := writeChromeTrace(path, rec.snapshot()); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// maxRunTime caps one benchmark run, whatever --seconds asks, so the
// run ends well inside its time limit.
const maxRunTime = 150 * time.Second

// runParent repeats the workload in child processes until the
// measurement time is used, then checks and reports. Untraced runs do
// at least minReps repetitions; traced runs alternate untraced and
// traced repetitions, at least two of each, so the tracing overhead
// compares like with like.
func runParent(workload string, seed int64, budget time.Duration, traced bool) error {
	const minReps = 3
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	binHash, err := fileHash(exe)
	if err != nil {
		return err
	}
	tmp := filepath.Join(buildDir(), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	root, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(root)

	start := time.Now()
	var reps []*repReport
	var slowest time.Duration
	for i := 0; ; i++ {
		rt := traced && i%2 == 1
		t := time.Now()
		r, err := spawn(exe, workload, seed, rt, filepath.Join(root, strconv.Itoa(i)))
		if err != nil {
			// A repetition that crashes is a failed run, not a benchmark
			// error: report it as incorrect with what was measured.
			reps = append(reps, &repReport{traced: rt, Attempted: 1, Failed: 1, Problems: []string{err.Error()}})
			break
		}
		reps = append(reps, r)
		slowest = max(slowest, time.Since(t))
		enough := len(reps) >= minReps
		if traced {
			enough = len(reps) >= 4 && len(reps)%2 == 0
		}
		elapsed := time.Since(start)
		if enough && (elapsed+slowest > budget || elapsed+slowest > maxRunTime) {
			break
		}
	}
	return report(workload, seed, traced, binHash, reps)
}

// spawn runs one child repetition and returns its report with the
// child's peak RSS.
func spawn(exe, workload string, seed int64, traced bool, dir string) (*repReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "--child", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--trace", tr, "--workdir", dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// The child must not outlive a benchmark that is stopped.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition of %s failed: %w", workload, err)
	}
	var r repReport
	if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
		return nil, fmt.Errorf("reading the repetition report: %w", err)
	}
	r.traced = traced
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	return &r, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report checks the repetitions against each other, against the pinned
// digests and against earlier runs of the seed, then prints the
// metrics.
func report(workload string, seed int64, traced bool, binHash string, reps []*repReport) error {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	var problems []string
	attempted, failed := 0, 0
	first := reps[0]
	for i, r := range reps {
		bad := len(r.Problems) > 0
		for _, p := range r.Problems {
			problems = append(problems, fmt.Sprintf("repetition %d: %s", i, p))
		}
		if err := checkPinned(workload, seed, r.Digest); err != nil {
			problems = append(problems, fmt.Sprintf("repetition %d: %v", i, err))
			bad = true
		}
		for _, k := range sortedKeys(first.Witness) {
			if r.Witness[k] != first.Witness[k] {
				problems = append(problems, fmt.Sprintf("repetition %d: witness %s is %s, repetition 0 had %s", i, k, r.Witness[k], first.Witness[k]))
				bad = true
			}
		}
		attempted += r.Attempted
		if bad {
			failed += r.Attempted // a run whose output check fails fails all its cells
		} else {
			failed += r.Failed
		}
	}
	drift, err := witnessStore{dir: filepath.Join(buildDir(), "witness")}.checkAndRecord(witnessGroup(workload), seed, binHash, first.Witness)
	if err != nil {
		return err
	}
	if len(drift) > 0 {
		problems = append(problems, drift...)
		failed = attempted
	}

	var untraced, tracedReps []*repReport
	for _, r := range reps {
		if r.traced {
			tracedReps = append(tracedReps, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	fmt.Fprintf(w, "perfbench %s seed %d: %d untraced and %d traced repetitions, tables %.16s…\n",
		workload, seed, len(untraced), len(tracedReps), first.Digest)
	fmt.Fprintf(w, "  wall_s per untraced repetition:")
	for _, r := range untraced {
		fmt.Fprintf(w, " %.3f", r.WallS)
	}
	fmt.Fprintln(w)
	for _, p := range problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	errorRate := ratio(float64(failed), float64(attempted))
	fmt.Fprintf(w, "  error_rate %.4g (%d failed of %d cells attempted)\n", errorRate, failed, attempted)

	metrics := map[string]metricOutput{}
	if traced {
		layers := layerMedians(tracedReps)
		for _, k := range witnessLayers {
			if v, ok := first.Witness[k]; ok {
				layers[k], _ = strconv.ParseFloat(v, 64)
			}
		}
		layers["tracing.overhead_s"] = median(field(tracedReps, wallOf)) - median(field(untraced, wallOf))
		for _, m := range perLayer {
			metrics[m.name] = metricOutput{layers[m.name], m.unit}
		}
		fmt.Fprintf(w, "  traced wall %.3f s, untraced wall %.3f s; unattributed %.3f s; trace in %s\n",
			median(field(tracedReps, wallOf)), median(field(untraced, wallOf)), layers["unattributed_s"],
			filepath.Join(buildDir(), "traces"))
		printMetrics(w, perLayer, metrics)
	} else {
		e := endToEndMetrics(untraced, errorRate)
		for _, m := range endToEnd {
			metrics[m.name] = metricOutput{e[m.name], m.unit}
		}
		n := len(first.CellS)
		_, beyond := percentile(first.CellS, 75)
		fmt.Fprintf(w, "  cell latency: %d cells per repetition, %d beyond p75 (highest percentile with ≥%d beyond: p%g)\n",
			n, beyond, minBeyond, tailPercentile(n, 50, 75, 90, 95, 99))
		printMetrics(w, endToEnd, metrics)
	}
	out, err := json.Marshal(result{Correct: len(problems) == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: metrics})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Fprintf(w, "%s\n", out)
	return nil
}

func wallOf(r *repReport) float64 { return r.WallS }

func field(reps []*repReport, f func(*repReport) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEndMetrics are medians over the untraced repetitions; cell
// percentiles are taken within each repetition first.
func endToEndMetrics(reps []*repReport, errorRate float64) map[string]float64 {
	return map[string]float64{
		"wall_s": median(field(reps, wallOf)),
		"sim_mrefs_per_s": median(field(reps, func(r *repReport) float64 {
			return ratio(float64(r.MemRefs)/1e6, r.WallS)
		})),
		"cell_p50_s":   median(field(reps, func(r *repReport) float64 { v, _ := percentile(r.CellS, 50); return v })),
		"cell_p75_s":   median(field(reps, func(r *repReport) float64 { v, _ := percentile(r.CellS, 75); return v })),
		"setup_s":      median(field(reps, func(r *repReport) float64 { return r.SetupS })),
		"peak_rss_mb":  median(field(reps, func(r *repReport) float64 { return r.rssMB })),
		"success_rate": 1 - errorRate,
	}
}

// layerMedians takes each per-layer metric's median over the traced
// repetitions.
func layerMedians(reps []*repReport) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.Layers {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func printMetrics(w io.Writer, ms []metric, values map[string]metricOutput) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.name, values[m.name].Value, m.unit)
	}
}
