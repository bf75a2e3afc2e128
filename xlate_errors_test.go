package xlate_test

import (
	"context"
	"errors"
	"testing"

	"xlate"
	"xlate/internal/addr"
	"xlate/internal/energy"
)

// validWorkload is a minimal well-formed custom workload the invalid
// cases below mutate one field at a time.
func validWorkload() xlate.Workload {
	return xlate.Workload{
		Name: "custom", Suite: "test", InstrPerRef: 4,
		Regions: []xlate.WorkloadRegion{{Name: "heap", Bytes: 4 << 20}},
		Phases: []xlate.WorkloadPhase{{Refs: 1 << 14, Access: []xlate.WorkloadAccess{
			{Region: 0, Weight: 1, Pattern: xlate.PatternUniform},
		}}},
	}
}

// TestInvalidParamsRejected asserts that malformed parameters surface
// as typed errors at the API boundary — never as panics.
func TestInvalidParamsRejected(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*xlate.Params)
	}{
		{"L1-4KB entries not divisible by ways", func(p *xlate.Params) { p.L14KEntries = 63 }},
		{"zero L1-4KB ways", func(p *xlate.Params) { p.L14KWays = 0 }},
		{"negative L2 entries", func(p *xlate.Params) { p.L2Entries = -4 }},
		{"zero L2-range capacity under RMM_Lite", func(p *xlate.Params) { p.L2RangeEntries = 0 }},
		{"zero L1-range capacity under RMM_Lite", func(p *xlate.Params) { p.L1RangeEntries = 0 }},
		{"walk L1 hit ratio above 1", func(p *xlate.Params) { p.WalkL1HitRatio = 1.5 }},
		{"negative walk latency", func(p *xlate.Params) { p.WalkLatencyCycles = -1 }},
		{"nil energy database", func(p *xlate.Params) { p.EnergyDB = nil }},
		{"zero Lite interval", func(p *xlate.Params) { p.Lite.IntervalInstrs = 0 }},
		{"Lite reactivation probability above 1", func(p *xlate.Params) { p.Lite.ReactivateProb = 2 }},
		{"non-power-of-two ways under Lite", func(p *xlate.Params) { p.L14KEntries, p.L14KWays = 60, 3 }},
		{"zero MMU PDE entries", func(p *xlate.Params) { p.MMU.PDEEntries = 0 }},
		{"energy database missing a way count Lite reaches", func(p *xlate.Params) {
			var short []energy.Entry
			for _, e := range energy.Table2().Entries() {
				if e.Name != energy.L12MB || e.Ways != 2 {
					short = append(short, e)
				}
			}
			p.Kind, p.EnergyDB = xlate.CfgTLBLite, energy.FromEntries(short)
		}},
	}
	w := validWorkload()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := xlate.DefaultParams(xlate.CfgRMMLite)
			tc.mod(&p)
			_, err := xlate.RunParams(w, p, 1000, xlate.RunOptions{})
			if !errors.Is(err, xlate.ErrInvalidParams) {
				t.Fatalf("RunParams = %v, want ErrInvalidParams", err)
			}
		})
	}
}

// TestInvalidWorkloadRejected asserts that malformed workload models
// surface as typed errors at the API boundary.
func TestInvalidWorkloadRejected(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*xlate.Workload)
	}{
		{"no regions", func(w *xlate.Workload) { w.Regions = nil }},
		{"no phases", func(w *xlate.Workload) { w.Phases = nil }},
		{"empty region", func(w *xlate.Workload) { w.Regions[0].Bytes = 0 }},
		{"THP coverage above 1", func(w *xlate.Workload) { w.Regions[0].THPCoverage = 1.5 }},
		{"instructions per reference below 1", func(w *xlate.Workload) { w.InstrPerRef = 0.5 }},
		{"phase with zero references", func(w *xlate.Workload) { w.Phases[0].Refs = 0 }},
		{"access to missing region", func(w *xlate.Workload) { w.Phases[0].Access[0].Region = 3 }},
		{"non-positive weight", func(w *xlate.Workload) { w.Phases[0].Access[0].Weight = 0 }},
		{"sequential with zero stride", func(w *xlate.Workload) {
			w.Phases[0].Access[0].Pattern = xlate.PatternSeq
			w.Phases[0].Access[0].Stride = 0
		}},
		{"Zipf exponent not above 1", func(w *xlate.Workload) {
			w.Phases[0].Access[0].Pattern = xlate.PatternZipf
			w.Phases[0].Access[0].ZipfS = 1.0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := validWorkload()
			tc.mod(&w)
			_, err := xlate.Run(w, xlate.CfgTHP, 1000)
			if !errors.Is(err, xlate.ErrInvalidWorkload) {
				t.Fatalf("Run = %v, want ErrInvalidWorkload", err)
			}
		})
	}
}

// TestLookupErrorsWrapSentinels asserts that the name-based lookup
// entry points wrap the typed sentinels with %w, so callers can route
// on errors.Is instead of string matching.
func TestLookupErrorsWrapSentinels(t *testing.T) {
	if _, err := xlate.WorkloadByName("no-such-benchmark"); !errors.Is(err, xlate.ErrInvalidWorkload) {
		t.Errorf("WorkloadByName = %v, want ErrInvalidWorkload", err)
	}
	if _, err := xlate.RunExperiment("no-such-figure", xlate.ExperimentOptions{}); !errors.Is(err, xlate.ErrInvalidParams) {
		t.Errorf("RunExperiment = %v, want ErrInvalidParams", err)
	}
	p := xlate.DefaultParams(xlate.CfgTHP)
	if _, err := xlate.ReplayTrace(nil, p, 1000, xlate.RunOptions{}); !errors.Is(err, xlate.ErrInvalidParams) {
		t.Errorf("ReplayTrace(empty) = %v, want ErrInvalidParams", err)
	}
}

// TestReplayTraceRejectsNonUserAddresses: a recorded reference at or
// above 1<<47 (kernel half or non-canonical) would share a page-table
// entry with a user page while taking its own TLB entries, so
// ReplayTrace refuses it before any simulation runs, as trace
// ingestion does.
func TestReplayTraceRejectsNonUserAddresses(t *testing.T) {
	p := xlate.DefaultParams(xlate.Cfg4KB)
	user := xlate.Ref{VA: 0x7fff_ffff_f000, Instrs: 3}
	for _, va := range []uint64{1 << 47, 0x1000 | 1<<52, 0xffff_8000_0000_0000, ^uint64(0)} {
		refs := []xlate.Ref{user, {VA: addr.VA(va), Instrs: 3}, user}
		res, err := xlate.ReplayTrace(refs, p, 1000, xlate.RunOptions{})
		if !errors.Is(err, xlate.ErrInvalidParams) {
			t.Errorf("ReplayTrace with a reference at %#x = %v, want ErrInvalidParams", va, err)
		}
		if res.MemRefs != 0 {
			t.Errorf("ReplayTrace with a reference at %#x simulated %d references", va, res.MemRefs)
		}
	}
	if _, err := xlate.ReplayTrace([]xlate.Ref{user}, p, 1000, xlate.RunOptions{}); err != nil {
		t.Errorf("ReplayTrace of the highest user page = %v", err)
	}
}

// TestValidCustomWorkloadStillRuns guards against over-strict
// validation: the valid base workload must simulate cleanly.
func TestValidCustomWorkloadStillRuns(t *testing.T) {
	res, err := xlate.Run(validWorkload(), xlate.CfgTHP, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs == 0 {
		t.Fatal("degenerate result")
	}
}

// TestRunParamsContextCancel asserts cooperative cancellation: a
// cancelled context stops the simulation with ctx.Err().
func TestRunParamsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := validWorkload()
	_, err := xlate.RunParamsContext(ctx, w, xlate.DefaultParams(xlate.CfgTHP), 1<<40, xlate.RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunParamsContext = %v, want context.Canceled", err)
	}
}
