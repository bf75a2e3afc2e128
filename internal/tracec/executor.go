package tracec

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// Executor runs simulation cells from compiled trace segments. Its
// ExecuteJob is the per-cell executor the harness (Config.Execute), the
// service daemon, and the cluster coordinator plug in:
//
//   - Cells whose spec is trace-backed (Spec.TraceRef) replay an
//     ingested segment from the Store, fetching it by content hash from
//     the upstream (coordinator) on a local miss. These cells cannot run
//     without an Executor — workloads.Spec.Build refuses them.
//   - Model cells compile-once-replay-many when CompileModels is set:
//     the first cell for a stream (see Key) compiles the segment
//     (singleflight), every later cell — every configuration and Params
//     sweep over the same workload — replays it. Reports stay
//     byte-identical to live synthesis (see CompileSpec).
//   - Model cells fall through to exper.ExecuteJobContext when model
//     compilation is off.
type Executor struct {
	// Store holds the segments. Required.
	Store *Store
	// CompileModels turns on compile-once-replay-many for model cells
	// (what -trace-store selects on experiments and eeatsim).
	CompileModels bool
	// Fetch, when non-nil, retrieves a missing ingested segment by
	// content hash — cluster workers point this at the coordinator's
	// /v1/traces/{key} (HTTPFetcher).
	Fetch func(ctx context.Context, key string) ([]byte, error)
	// Logf receives compile/fetch progress (nil = silent).
	Logf func(format string, args ...any)

	// Validated-segment memo: the harness replays one segment across
	// many cells (Params sweeps, retries, repeated specs), and the
	// strict Stat gate plus the disk read should be paid once per
	// segment, not once per cell. Guarded by mu; bounded by
	// maxValidatedBytes with a mass flush, which at worst re-reads and
	// revalidates — never a correctness concern, a Segment is immutable.
	mu       sync.Mutex
	segs     map[string]Segment
	segBytes int64
}

// maxValidatedBytes bounds the in-memory validated-segment memo
// (256 MiB ≈ a few hundred compiled cells at experiment scale).
const maxValidatedBytes = 256 << 20

// segment returns the validated segment under key, loading and
// validating only on the first request.
func (e *Executor) segment(key string, load func() ([]byte, error)) (Segment, error) {
	e.mu.Lock()
	if seg, ok := e.segs[key]; ok {
		e.mu.Unlock()
		return seg, nil
	}
	e.mu.Unlock()
	data, err := load()
	if err != nil {
		return Segment{}, err
	}
	seg, err := Validate(data)
	if err != nil {
		return Segment{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.segs == nil {
		e.segs = make(map[string]Segment)
	}
	if e.segBytes+int64(len(data)) > maxValidatedBytes {
		e.segs = make(map[string]Segment)
		e.segBytes = 0
	}
	if _, ok := e.segs[key]; !ok {
		e.segs[key] = seg
		e.segBytes += int64(len(data))
	}
	return seg, nil
}

func (e *Executor) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// ExecuteJob executes one cell, replaying a segment where one applies.
// It matches the harness Config.Execute signature and is safe for
// concurrent calls.
func (e *Executor) ExecuteJob(ctx context.Context, j exper.Job) (core.Result, error) {
	if j.Spec.TraceRef != "" {
		return e.replayIngested(ctx, j)
	}
	if !e.CompileModels || e.Store == nil {
		return exper.ExecuteJobContext(ctx, j)
	}
	return e.replayModel(ctx, j)
}

// replayModel is the compile-once-replay-many path: look up (or
// compile) the spec's segment, rebuild the address space exactly as a
// live run would, and stream the segment through the simulator.
func (e *Executor) replayModel(ctx context.Context, j exper.Job) (core.Result, error) {
	bopt := workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale}
	key := Key(j.Spec, bopt, j.Instrs)
	seg, err := e.segment(key, func() ([]byte, error) {
		return e.Store.GetOrCompile(key, func() ([]byte, error) {
			data, info, cerr := CompileSpec(j.Spec, bopt, j.Instrs)
			if cerr != nil {
				return nil, cerr
			}
			e.logf("compiled %s → %s (%d refs, %d blocks, %d bytes)",
				j.Spec.Name, key[:12], info.Refs, info.Blocks, len(data))
			return data, nil
		})
	})
	if err != nil {
		return core.Result{}, fmt.Errorf("tracec: %s/%v: %w", j.Spec.Name, j.Params.Kind, err)
	}
	rp := seg.Replay()
	// Build the identical address space a live run constructs; only the
	// reference source differs, and the compiled stream is the exact
	// prefix the generator would yield — so the Result is identical.
	as, _, err := j.Spec.Build(bopt)
	if err != nil {
		return core.Result{}, fmt.Errorf("tracec: building %s: %w", j.Spec.Name, err)
	}
	sim, err := core.NewSimulator(j.Params, as)
	if err != nil {
		return core.Result{}, fmt.Errorf("tracec: %s/%v: %w", j.Spec.Name, j.Params.Kind, err)
	}
	res, err := sim.RunContext(ctx, rp, j.Instrs)
	if err != nil {
		return core.Result{}, fmt.Errorf("tracec: %s/%v: %w", j.Spec.Name, j.Params.Kind, err)
	}
	return res, nil
}

// replayIngested runs a trace-backed cell: an externally ingested
// reference stream replayed under demand paging (the stream's virtual
// addresses mean nothing to the eager-paging policy model, so pages
// materialize on first touch — the same path xlate.ReplayTrace takes
// for recorded traces). A short trace wraps until the budget is met.
func (e *Executor) replayIngested(ctx context.Context, j exper.Job) (core.Result, error) {
	if e.Store == nil {
		return core.Result{}, fmt.Errorf("tracec: trace-backed cell %s needs a segment store", j.Spec.Name)
	}
	key := j.Spec.TraceRef
	seg, err := e.segment(key, func() ([]byte, error) {
		data, err := e.Store.Get(key)
		if err != nil && e.Fetch != nil {
			if data, err = e.Fetch(ctx, key); err == nil {
				if err = e.Store.Put(key, data); err == nil {
					e.logf("fetched segment %s from upstream (%d bytes)", key[:12], len(data))
				}
			}
		}
		return data, err
	})
	if err != nil {
		return core.Result{}, fmt.Errorf("tracec: %s: %w", j.Spec.Name, err)
	}
	rp := seg.Replay()
	p := j.Params
	p.DemandPaging = true
	as := vm.New(vm.Config{Policy: j.Policy, Seed: j.Seed, PhysBytes: 64 << 30})
	sim, err := core.NewSimulator(p, as)
	if err != nil {
		return core.Result{}, fmt.Errorf("tracec: %s/%v: %w", j.Spec.Name, p.Kind, err)
	}
	res, err := sim.RunContext(ctx, rp, j.Instrs)
	if err != nil {
		return core.Result{}, fmt.Errorf("tracec: %s/%v: %w", j.Spec.Name, p.Kind, err)
	}
	return res, nil
}

// HTTPFetcher returns a Fetch func that retrieves segments from base's
// /v1/traces/{key} endpoint and verifies the body against its content
// hash before trusting it — the same recompute-the-identity trust rule
// the cluster's result-cache federation applies to fetched results.
func HTTPFetcher(base string, hc *http.Client) func(ctx context.Context, key string) ([]byte, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	return func(ctx context.Context, key string) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/traces/"+key, nil)
		if err != nil {
			return nil, fmt.Errorf("tracec: fetching segment %s: %w", key, err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("tracec: fetching segment %s: %w", key, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("tracec: fetching segment %s: %w", key, ErrNotFound)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("tracec: fetching segment %s: upstream status %s", key, resp.Status)
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxSegmentBytes+1))
		if err != nil {
			return nil, fmt.Errorf("tracec: fetching segment %s: %w", key, err)
		}
		if len(data) > maxSegmentBytes {
			return nil, fmt.Errorf("tracec: fetching segment %s: larger than the %d-byte segment bound", key, maxSegmentBytes)
		}
		if got := ContentKey(data); got != key {
			return nil, fmt.Errorf("tracec: fetched segment hash %s does not match requested %s — refusing the bytes", got[:12], key[:12])
		}
		return data, nil
	}
}
