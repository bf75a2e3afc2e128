package harness

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xlate/internal/core"
	"xlate/internal/energy"
	"xlate/internal/exper"
	"xlate/internal/stats"
	"xlate/internal/workloads"
)

// tinySpec is a small, fast workload for harness-level tests.
func tinySpec(name string) workloads.Spec {
	return workloads.Spec{
		Name: name, Suite: "test", InstrPerRef: 4,
		Regions: []workloads.RegionSpec{{Name: "heap", Bytes: 8 << 20}},
		Phases: []workloads.PhaseSpec{{Refs: 1 << 16, Access: []workloads.AccessSpec{
			{Region: 0, Weight: 1, Pattern: workloads.Uni},
		}}},
	}
}

func tinyJob(name string, kind core.ConfigKind, seed int64) exper.Job {
	return exper.Job{
		Spec:   tinySpec(name),
		Params: core.DefaultParams(kind),
		Policy: core.PolicyFor(kind, 0.5),
		Instrs: 100_000,
		Scale:  1,
		Seed:   seed,
	}
}

// runVia routes a job the way experiments do: through the Options
// runner when one is installed, else inline.
func runVia(opt exper.Options, j exper.Job) (core.Result, error) {
	if opt.Runner != nil {
		return opt.Runner.RunCell(j)
	}
	return exper.ExecuteJob(j)
}

// cellExp is a test experiment rendering one row per job.
func cellExp(id string, jobs []exper.Job) exper.Experiment {
	return exper.Experiment{ID: id, Title: "test experiment " + id,
		Run: func(opt exper.Options) ([]*stats.Table, error) {
			t := stats.NewTable(id, "Cell", "L1 MPKI", "Energy (pJ)")
			for i, j := range jobs {
				res, err := runVia(opt, j)
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%d:%s", i, j.Spec.Name),
					fmt.Sprintf("%.4f", res.L1MPKI()),
					fmt.Sprintf("%.2f", res.EnergyPJ()))
			}
			return []*stats.Table{t}, nil
		}}
}

// renderAll formats experiment results the way cmd/experiments does,
// minus timings, for byte comparison.
func renderAll(t *testing.T, results []ExperimentResult) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "## %s\n", r.Title)
		if r.Err != nil {
			fmt.Fprintf(&b, "FAILED: %v\n", r.Err)
			continue
		}
		for _, tb := range r.Tables {
			b.WriteString(tb.Markdown())
			b.WriteString("\n")
		}
	}
	return b.String()
}

// testExperiments returns two experiments sharing two cells, so the
// suite exercises cross-experiment dedup.
func testExperiments() []exper.Experiment {
	shared := []exper.Job{
		tinyJob("alpha", core.CfgTHP, 7),
		tinyJob("beta", core.Cfg4KB, 7),
	}
	a := append([]exper.Job{}, shared...)
	a = append(a, tinyJob("alpha", core.CfgRMMLite, 7))
	b := append([]exper.Job{}, shared...)
	b = append(b, tinyJob("beta", core.CfgTLBLite, 9), tinyJob("gamma", core.CfgRMM, 11))
	return []exper.Experiment{cellExp("exp-a", a), cellExp("exp-b", b)}
}

func sequentialRender(t *testing.T, exps []exper.Experiment) string {
	t.Helper()
	var results []ExperimentResult
	for _, e := range exps {
		tables, err := e.Run(exper.Options{Instrs: 1, Scale: 1, Seed: 1})
		// Options are ignored by cellExp jobs (fully specified), but a
		// real error would invalidate the baseline.
		if err != nil {
			t.Fatalf("sequential %s: %v", e.ID, err)
		}
		results = append(results, ExperimentResult{ID: e.ID, Title: e.Title, Tables: tables})
	}
	return renderAll(t, results)
}

func TestParallelMatchesSequential(t *testing.T) {
	exps := testExperiments()
	want := sequentialRender(t, exps)

	s := New(Config{Workers: 4, Options: exper.Options{Instrs: 1, Scale: 1, Seed: 1}})
	results, err := s.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, results); got != want {
		t.Errorf("parallel output differs from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", got, want)
	}
	// The two shared cells must have been simulated once each: 5
	// distinct cells across 7 requests.
	if len(s.memo) != 5 {
		t.Errorf("memo has %d cells, want 5 (dedup across experiments)", len(s.memo))
	}
}

func TestPanickingCellBecomesRunError(t *testing.T) {
	// An executor that panics on one cell — a stand-in for any internal
	// invariant violation — fails that cell, not the suite.
	exps := []exper.Experiment{
		cellExp("good", []exper.Job{tinyJob("alpha", core.CfgTHP, 7)}),
		cellExp("boom", []exper.Job{tinyJob("boom", core.Cfg4KB, 7)}),
	}
	execute := func(ctx context.Context, j exper.Job) (core.Result, error) {
		if j.Spec.Name == "boom" {
			panic("core: invariant violated")
		}
		return exper.ExecuteJobContext(ctx, j)
	}

	s := New(Config{Workers: 4, Retries: 2, Execute: execute})
	results, err := s.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || len(results[0].Tables) == 0 {
		t.Fatalf("healthy experiment should render: err=%v", results[0].Err)
	}
	var re *RunError
	if !errors.As(results[1].Err, &re) {
		t.Fatalf("panicking experiment error = %v, want *RunError", results[1].Err)
	}
	if re.Workload != "boom" || re.Config != "4KB" {
		t.Errorf("RunError cell identity = %s/%s", re.Workload, re.Config)
	}
	if re.Attempts != 3 {
		t.Errorf("RunError attempts = %d, want 3 (1 + 2 retries)", re.Attempts)
	}
	var pe *PanicError
	if !errors.As(re.Cause, &pe) {
		t.Fatalf("RunError cause = %T, want *PanicError", re.Cause)
	}
	if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "invariant violated") {
		t.Errorf("PanicError should carry the panic value and stack: %v", pe.Value)
	}
}

func TestCellTimeout(t *testing.T) {
	slow := tinyJob("slow", core.CfgTHP, 7)
	slow.Instrs = 50_000_000_000
	exps := []exper.Experiment{cellExp("slow", []exper.Job{slow})}

	s := New(Config{Workers: 2, CellTimeout: 30 * time.Millisecond})
	results, err := s.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want DeadlineExceeded in chain", results[0].Err)
	}
	var re *RunError
	if !errors.As(results[0].Err, &re) {
		t.Fatalf("error = %v, want *RunError", results[0].Err)
	}
}

func TestCancelCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "suite.ckpt")
	exps := testExperiments()
	want := sequentialRender(t, exps)
	opts := exper.Options{Instrs: 1, Scale: 1, Seed: 1}

	// First run: cancel after two cells have been journaled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s1 := New(Config{Workers: 2, Checkpoint: ckpt, Options: opts})
	var once sync.Once
	var done atomic.Int32
	s1.onCellDone = func(string) {
		if done.Add(1) >= 2 {
			once.Do(cancel)
		}
	}
	if _, err := s1.Run(ctx, exps); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}

	// Second run resumes from the journal and must complete with output
	// byte-identical to an uninterrupted sequential run.
	s2 := New(Config{Workers: 2, Checkpoint: ckpt, Resume: true, Options: opts})
	var executed atomic.Int32
	s2.onCellDone = func(string) { executed.Add(1) }
	results, err := s2.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, results); got != want {
		t.Errorf("resumed output differs from sequential:\n--- resumed ---\n%s\n--- sequential ---\n%s", got, want)
	}
	if n := executed.Load(); n >= 5 {
		t.Errorf("resume executed %d cells, want fewer than the full 5", n)
	}
}

func TestResumeRejectsMismatchedOptions(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "suite.ckpt")
	exps := []exper.Experiment{cellExp("one", []exper.Job{tinyJob("alpha", core.CfgTHP, 7)})}

	s1 := New(Config{Checkpoint: ckpt, Options: exper.Options{Instrs: 1, Scale: 1, Seed: 1}})
	// Make the run fail so the checkpoint survives: cancel immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s1.Run(ctx, exps); err == nil {
		t.Fatal("cancelled run should report an error")
	}

	s2 := New(Config{Checkpoint: ckpt, Resume: true, Options: exper.Options{Instrs: 1, Scale: 1, Seed: 99}})
	if _, err := s2.Run(context.Background(), exps); err == nil || !strings.Contains(err.Error(), "written with") {
		t.Fatalf("mismatched resume error = %v, want options mismatch", err)
	}
}

func TestCheckpointRemovedOnSuccess(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "suite.ckpt")
	exps := []exper.Experiment{cellExp("one", []exper.Job{tinyJob("alpha", core.CfgTHP, 7)})}
	s := New(Config{Checkpoint: ckpt, Options: exper.Options{Instrs: 1, Scale: 1, Seed: 1}})
	if _, err := s.Run(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(ckpt); err != nil {
		t.Fatal(err)
	}
	if fileExists(t, ckpt) {
		t.Error("checkpoint should be removed after a fully successful run")
	}
}

func fileExists(t *testing.T, path string) bool {
	t.Helper()
	_, err := filepath.Glob(path)
	if err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(path)
	return len(matches) > 0
}

func TestJobKeyStability(t *testing.T) {
	a := tinyJob("alpha", core.CfgTHP, 7)
	b := tinyJob("alpha", core.CfgTHP, 7)
	// Separately constructed energy databases with equal contents must
	// key identically: the key is content-addressed, not pointer-based.
	a.Params.EnergyDB = energy.Table2()
	b.Params.EnergyDB = energy.Table2()
	if jobKey(a) != jobKey(b) {
		t.Error("identical jobs with distinct *DB pointers should share a key")
	}
	c := b
	c.Seed = 8
	if jobKey(b) == jobKey(c) {
		t.Error("seed must be part of the cell key")
	}
	d := b
	d.Params.EnergyDB = energy.Table2()
	d.Params.EnergyDB.Register(energy.L14KB, 4, energy.Cost{ReadPJ: 1})
	if jobKey(b) == jobKey(d) {
		t.Error("energy database contents must be part of the cell key")
	}
}

func TestRetrySeedDeterministic(t *testing.T) {
	if retrySeed("k", 1) != retrySeed("k", 1) {
		t.Error("retrySeed must be deterministic")
	}
	if retrySeed("k", 1) == retrySeed("k", 2) {
		t.Error("different attempts should draw different seeds")
	}
	if retrySeed("k", 1) == retrySeed("j", 1) {
		t.Error("different cells should draw different seeds")
	}
}
