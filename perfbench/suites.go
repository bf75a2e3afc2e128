package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/stats"
	"xlate/internal/tracec"
)

// workers is the harness pool size of the suite workloads (one per
// core of the 2-core machine the baseline was taken on).
const workers = 2

// suiteSpec is one suite workload: which experiments, at what budget,
// through which executor.
type suiteSpec struct {
	exps    func() []exper.Experiment
	instrs  uint64
	replay  bool // cells run through tracec.Executor{CompileModels: true}
	journal bool // the checkpoint journal is on, as the CLI default has it
}

// fig10 runs ten times all-short's budget: long enough that synthesis
// and Access dominate its cells, short enough (about 5 s on 2 cores)
// that one run holds several repetitions. all-short's 200 k
// instructions leave the address-space build dominant.
var suites = map[string]suiteSpec{
	"fig10-live":   {exps: fig10Only, instrs: 2_000_000},
	"fig10-replay": {exps: fig10Only, instrs: 2_000_000, replay: true},
	"all-short":    {exps: exper.All, instrs: 200_000, journal: true},
}

func fig10Only() []exper.Experiment {
	e, _ := exper.ByID("fig10") // fig10 is in the catalogue
	return []exper.Experiment{e}
}

type executeFunc func(ctx context.Context, j exper.Job) (core.Result, error)

// cellLog wraps the per-cell executor: it times every
// harness.Config.Execute call and keeps each cell's result, so the
// benchmark sees cell latency and simulated work without reaching into
// the harness.
type cellLog struct {
	mu        sync.Mutex
	firstCell time.Time
	durations []float64
	results   map[string]core.Result // harness cell key → result
	failed    int
}

func newCellLog() *cellLog { return &cellLog{results: make(map[string]core.Result)} }

func (c *cellLog) wrap(exec executeFunc) executeFunc {
	return func(ctx context.Context, j exper.Job) (core.Result, error) {
		start := time.Now()
		c.mu.Lock()
		if c.firstCell.IsZero() {
			c.firstCell = start
		}
		c.mu.Unlock()
		res, err := exec(ctx, j)
		d := time.Since(start)
		key := harness.JobKey(j)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.durations = append(c.durations, d.Seconds())
		if err != nil {
			c.failed++
		} else {
			c.results[key] = res
		}
		return res, err
	}
}

// simulated sums Result.MemRefs over the cells that ran.
func (c *cellLog) simulated() uint64 {
	var n uint64
	for _, r := range c.results {
		n += r.MemRefs
	}
	return n
}

// coreWitnesses are the simulated statistics summed over every cell in
// cell-key order (so the float sum is the same on every run). They are
// deterministic for a seed: the benchmark checks they repeat exactly.
func (c *cellLog) coreWitnesses() map[string]string {
	var refs, instrs, l1, l2, walks uint64
	var pj float64
	for _, k := range sortedKeys(c.results) {
		r := c.results[k]
		refs += r.MemRefs
		instrs += r.Instructions
		l1 += r.L1Misses
		l2 += r.L2Misses
		walks += r.WalkRefs
		pj += r.EnergyPJ()
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	return map[string]string{
		"core.refs":         u(refs),
		"core.instructions": u(instrs),
		"core.l1_misses":    u(l1),
		"core.l2_misses":    u(l2),
		"core.walk_refs":    u(walks),
		"core.energy_pj":    strconv.FormatFloat(pj, 'g', -1, 64),
	}
}

// runSuite runs one repetition of a suite workload through
// harness.New(cfg).Run and checks its rendered tables. With rec set it
// runs every cell through the traced executor instead.
func runSuite(ctx context.Context, name string, seed int64, tmp string, rec *recorder) (*repReport, error) {
	spec := suites[name]
	log := newCellLog()
	t0 := time.Now()

	cfg := harness.Config{
		Workers: workers,
		Options: exper.Options{Instrs: spec.instrs, Scale: 1, Seed: seed},
	}
	if spec.journal {
		cfg.Checkpoint = filepath.Join(tmp, "suite.ckpt")
	}
	var store *tracec.Store
	if spec.replay {
		var err error
		if store, err = tracec.OpenStore(filepath.Join(tmp, "segments"), 0, 0); err != nil {
			return nil, fmt.Errorf("opening segment store: %w", err)
		}
	}
	exps := spec.exps()
	var tx *tracedExec
	switch {
	case rec != nil:
		tx = &tracedExec{rec: rec, store: store}
		cfg.Execute = log.wrap(tx.execute)
		exps = countRequests(exps, &tx.requested)
	case store != nil:
		x := &tracec.Executor{Store: store, CompileModels: true}
		cfg.Execute = log.wrap(x.ExecuteJob)
	default:
		cfg.Execute = log.wrap(exper.ExecuteJobContext)
	}
	suite := harness.New(cfg)
	if tx != nil {
		tx.parent = rec.begin("harness.run", 0, 0)
	}
	results, err := suite.Run(ctx, exps)
	if tx != nil {
		rec.end(tx.parent, 0, "")
	}
	if err != nil {
		return nil, fmt.Errorf("suite run: %w", err)
	}
	rendered, expFailures := renderSuite(results)
	wall := time.Since(t0)

	r := &repReport{
		WallS:     wall.Seconds(),
		SetupS:    log.firstCell.Sub(t0).Seconds(),
		CellS:     log.durations,
		Attempted: len(log.durations),
		Failed:    log.failed,
		MemRefs:   log.simulated(),
		Digest:    tableDigest(rendered),
		Witness:   log.coreWitnesses(),
	}
	if log.firstCell.IsZero() {
		r.SetupS = r.WallS
	}
	r.Witness["digest"] = r.Digest
	r.Witness["harness.cells_executed"] = strconv.Itoa(r.Attempted)
	if store != nil {
		n, _ := store.Stats()
		r.Witness["tracec.compiles"] = strconv.Itoa(n)
	}
	if expFailures > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d experiment(s) not reproduced", expFailures))
	}
	if spec.journal {
		if _, err := os.Stat(cfg.Checkpoint); !os.IsNotExist(err) {
			r.Problems = append(r.Problems, "checkpoint journal left behind after a clean run")
		}
	}
	if rec != nil {
		r.Layers = tx.layers(rec.snapshot(), time.Since(rec.t0), suite.Status().Planned)
	}
	return r, nil
}

// countRequests wraps each experiment so the cells it requests during
// the harness plan pass (its first run) are counted: requested ÷
// planned is how much the harness deduplicates.
func countRequests(exps []exper.Experiment, n *int) []exper.Experiment {
	out := make([]exper.Experiment, len(exps))
	for i, e := range exps {
		run, planned := e.Run, false
		e.Run = func(opt exper.Options) ([]*stats.Table, error) {
			if !planned {
				planned = true
				opt.Runner = countingRunner{inner: opt.Runner, n: n}
			}
			return run(opt)
		}
		out[i] = e
	}
	return out
}

// countingRunner counts the cells an experiment asks for. The plan and
// render passes run serially, so the count needs no lock.
type countingRunner struct {
	inner exper.Runner
	n     *int
}

func (c countingRunner) RunCell(j exper.Job) (core.Result, error) {
	*c.n++
	return c.inner.RunCell(j)
}
