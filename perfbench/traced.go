package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/trace"
	"xlate/internal/tracec"
	"xlate/internal/workloads"
)

// blockRefs is how many references the traced executor pulls from the
// reference source, and then simulates, per span: large enough that two
// clock reads per block vanish next to the work, small enough that the
// block buffer stays in cache.
const blockRefs = 4096

// tracedExec runs a cell the way exper.ExecuteJobContext (live) or
// tracec.Executor (replay) does — build, NewSimulator, then Access every
// reference until the instruction budget is reached — but records a
// span around each call into a layer. Its results, and so the rendered
// tables, are identical to the untraced run's.
type tracedExec struct {
	rec    *recorder
	parent int           // the harness.run span
	store  *tracec.Store // nil: live synthesis

	cells     atomic.Int64
	compiles  atomic.Int64
	segBytes  atomic.Int64
	replayed  atomic.Int64
	requested int // cells the experiments asked for in the plan pass

	mu   sync.Mutex
	segs map[string]tracec.Segment // validated segments, as tracec.Executor memoizes them
}

func (t *tracedExec) execute(ctx context.Context, j exper.Job) (core.Result, error) {
	cell := int(t.cells.Add(1))
	cs := t.rec.begin("harness.cell", t.parent, cell)
	defer t.rec.end(cs, 0, "")
	cfg := j.Params.Kind.String()
	bopt := workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale}

	var replay *tracec.Replay
	if t.store != nil {
		seg, err := t.segment(cs, cell, j, bopt)
		if err != nil {
			return core.Result{}, err
		}
		replay = seg.Replay()
		t.replayed.Add(1)
	}
	sp := t.rec.begin("build", cs, cell)
	as, gen, err := j.Spec.Build(bopt)
	t.rec.end(sp, 0, "")
	if err != nil {
		return core.Result{}, fmt.Errorf("building %s: %w", j.Spec.Name, err)
	}
	sp = t.rec.begin("core.new", cs, cell)
	sim, err := core.NewSimulator(j.Params, as)
	t.rec.end(sp, 0, "")
	if err != nil {
		return core.Result{}, fmt.Errorf("%s/%s: %w", j.Spec.Name, cfg, err)
	}

	source, next := "trace", gen.Next
	if replay != nil {
		source, next = "tracec.decode", replay.Next
	}
	block := make([]trace.Ref, blockRefs)
	var instrs uint64
	for instrs < j.Instrs {
		if err := ctx.Err(); err != nil {
			return sim.Result(), err
		}
		sp = t.rec.begin(source, cs, cell)
		for i := range block {
			block[i] = next()
		}
		t.rec.end(sp, len(block), "")

		sp = t.rec.begin("core.access", cs, cell)
		n := 0
		for _, r := range block {
			if instrs >= j.Instrs {
				break
			}
			sim.Access(r.VA, r.Instrs)
			instrs += r.Instrs
			n++
		}
		t.rec.end(sp, n, cfg)
	}
	return sim.Result(), nil
}

// segment returns the cell's validated segment: key it, get or compile
// it in the store, validate it once.
func (t *tracedExec) segment(parent, cell int, j exper.Job, bopt workloads.BuildOptions) (tracec.Segment, error) {
	sp := t.rec.begin("tracec.key", parent, cell)
	key := tracec.Key(j.Spec, bopt, j.Instrs)
	t.rec.end(sp, 0, "")
	t.mu.Lock()
	seg, ok := t.segs[key]
	t.mu.Unlock()
	if ok {
		return seg, nil
	}
	sp = t.rec.begin("tracec.compile", parent, cell)
	data, err := t.store.GetOrCompile(key, func() ([]byte, error) {
		data, _, err := tracec.CompileSpec(j.Spec, bopt, j.Instrs)
		t.compiles.Add(1)
		t.segBytes.Add(int64(len(data)))
		return data, err
	})
	t.rec.end(sp, 0, "")
	if err != nil {
		return tracec.Segment{}, fmt.Errorf("compiling %s: %w", j.Spec.Name, err)
	}
	sp = t.rec.begin("tracec.validate", parent, cell)
	seg, err = tracec.Validate(data)
	t.rec.end(sp, 0, "")
	if err != nil {
		return tracec.Segment{}, fmt.Errorf("validating %s: %w", j.Spec.Name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.segs == nil {
		t.segs = make(map[string]tracec.Segment)
	}
	t.segs[key] = seg
	return seg, nil
}

// configs are the paper's six configurations, each with its own
// core.access_ns_per_ref metric.
var configs = core.AllConfigs()

// layers turns the spans of one traced suite repetition into the
// per-layer metrics.
func (t *tracedExec) layers(spans []span, wall time.Duration, planned int) map[string]float64 {
	m := spanLayers(spans, wall)
	m["tracec.compiles"] = float64(t.compiles.Load())
	m["tracec.cells_replayed"] = float64(t.replayed.Load())
	m["tracec.reuse_ratio"] = ratio(m["tracec.cells_replayed"], m["tracec.compiles"])
	m["tracec.segment_mb"] = float64(t.segBytes.Load()) / 1e6
	m["harness.cells_planned"] = float64(planned)
	m["harness.dedup_ratio"] = ratio(float64(t.requested), float64(planned))

	var cells []interval
	var cellSum time.Duration
	for _, s := range spans {
		if s.Name == "harness.cell" {
			cells = append(cells, interval{s.Start, s.End})
			cellSum += s.End - s.Start
		}
	}
	m["harness.cells_executed"] = float64(len(cells))
	if len(cells) > 0 {
		lo, hi := cells[0].lo, cells[0].hi
		for _, c := range cells {
			lo, hi = min(lo, c.lo), max(hi, c.hi)
		}
		m["harness.worker_idle_s"] = (time.Duration(workers)*(hi-lo) - cellSum).Seconds()
	}
	return m
}

// spanLayers computes the metrics every traced workload derives from
// its spans alone: time and work per layer, harness self time, and the
// time of the repetition, [0, wall) since the recorder started, that no
// layer accounts for.
func spanLayers(spans []span, wall time.Duration) map[string]float64 {
	dur := map[string]time.Duration{}
	refs := map[string]float64{}
	calls := map[string]float64{}
	cfgDur := map[string]time.Duration{}
	cfgRefs := map[string]float64{}
	self := selfIntervals(spans)
	var attributed []interval
	for _, s := range spans {
		d := s.End - s.Start
		dur[s.Name] += d
		refs[s.Name] += float64(s.Refs)
		calls[s.Name]++
		if s.Name == "core.access" {
			cfgDur[s.Config] += d
			cfgRefs[s.Config] += float64(s.Refs)
		}
		// A cell span only groups its layers' spans: the time inside a
		// cell that none of them covers belongs to no layer.
		if s.Name != "harness.cell" {
			attributed = append(attributed, self[s.ID]...)
		}
	}
	nsPerRef := func(d time.Duration, n float64) float64 { return ratio(float64(d.Nanoseconds()), n) }
	m := map[string]float64{
		"build.s":                  dur["build"].Seconds(),
		"build.calls":              calls["build"],
		"build.ms_per_call":        ratio(dur["build"].Seconds()*1e3, calls["build"]),
		"trace.s":                  dur["trace"].Seconds(),
		"trace.refs":               refs["trace"],
		"trace.ns_per_ref":         nsPerRef(dur["trace"], refs["trace"]),
		"tracec.compile_s":         dur["tracec.compile"].Seconds(),
		"tracec.validate_s":        dur["tracec.validate"].Seconds(),
		"tracec.decode_ns_per_ref": nsPerRef(dur["tracec.decode"], refs["tracec.decode"]),
		"core.new_s":               dur["core.new"].Seconds(),
		"core.access_s":            dur["core.access"].Seconds(),
		"core.access_ns_per_ref":   nsPerRef(dur["core.access"], refs["core.access"]),
	}
	for _, k := range configs {
		m["core.access_ns_per_ref."+k.String()] = nsPerRef(cfgDur[k.String()], cfgRefs[k.String()])
	}
	var harnessSelf time.Duration
	for _, s := range spans {
		if s.Name == "harness.run" {
			harnessSelf += measure(self[s.ID])
		}
	}
	m["harness.self_s"] = harnessSelf.Seconds()
	m["unattributed_s"] = (wall - measure(attributed)).Seconds()
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
