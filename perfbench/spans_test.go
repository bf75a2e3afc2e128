package main

import (
	"math"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSubtractOverlappingChildren(t *testing.T) {
	// A suite run [0, 100) whose cells run on two workers: the first two
	// overlap in [30, 40), which must be removed once, not twice.
	children := []interval{{10 * ms, 40 * ms}, {30 * ms, 60 * ms}, {70 * ms, 80 * ms}, {75 * ms, 78 * ms}}
	got := subtract(interval{0, 100 * ms}, children)
	want := []interval{{0, 10 * ms}, {60 * ms, 70 * ms}, {80 * ms, 100 * ms}}
	if len(got) != len(want) {
		t.Fatalf("self intervals = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self intervals = %v, want %v", got, want)
		}
	}
	if m := measure(children); m != 60*ms {
		t.Errorf("children cover %v, want 60ms", m)
	}
}

func TestSubtractChildrenBeyondParent(t *testing.T) {
	got := subtract(interval{10 * ms, 20 * ms}, []interval{{0, 12 * ms}, {18 * ms, 30 * ms}})
	if len(got) != 1 || got[0] != (interval{12 * ms, 18 * ms}) {
		t.Errorf("self intervals = %v, want [12ms, 18ms)", got)
	}
	if got := subtract(interval{10 * ms, 20 * ms}, nil); len(got) != 1 || got[0] != (interval{10 * ms, 20 * ms}) {
		t.Errorf("no children: %v", got)
	}
}

func TestSpanLayersSelfTimeAndCoverage(t *testing.T) {
	// harness.run [5, 95) with two overlapping cells from two workers.
	// Cell 1 [10, 60): build [10, 20), access [20, 50) — [50, 60) is
	// covered by no layer inside the cell. Cell 2 [40, 90): build
	// [40, 55), access [55, 90).
	spans := []span{
		{ID: 1, Name: "harness.run", Start: 5 * ms, End: 95 * ms},
		{ID: 2, Name: "harness.cell", Parent: 1, Cell: 1, Start: 10 * ms, End: 60 * ms},
		{ID: 3, Name: "build", Parent: 2, Cell: 1, Start: 10 * ms, End: 20 * ms},
		{ID: 4, Name: "core.access", Parent: 2, Cell: 1, Config: "4KB", Refs: 3000, Start: 20 * ms, End: 50 * ms},
		{ID: 5, Name: "harness.cell", Parent: 1, Cell: 2, Start: 40 * ms, End: 90 * ms},
		{ID: 6, Name: "build", Parent: 5, Cell: 2, Start: 40 * ms, End: 55 * ms},
		{ID: 7, Name: "core.access", Parent: 5, Cell: 2, Config: "RMM", Refs: 1000, Start: 55 * ms, End: 90 * ms},
	}
	m := spanLayers(spans, 100*ms)
	near := func(name string, want float64) {
		t.Helper()
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
	near("build.s", 0.025)
	near("build.calls", 2)
	near("build.ms_per_call", 12.5)
	near("core.access_s", 0.065)
	near("core.access_ns_per_ref", 65e6/4000)
	near("core.access_ns_per_ref.4KB", 30e6/3000)
	near("core.access_ns_per_ref.RMM", 35e6/1000)
	near("core.access_ns_per_ref.THP", 0)
	// Run [5, 95) minus cells [10, 90): 10 ms.
	near("harness.self_s", 0.010)
	// Wall [0, 100): the layers cover [5, 10) and [90, 95) (run self)
	// plus [10, 90) (builds and accesses; cell 1's gap [50, 60) is
	// covered by cell 2's layers), so [0, 5) and [95, 100) remain.
	near("unattributed_s", 0.010)

	// Without the second worker, cell 1's gap shows as unattributed.
	m = spanLayers(spans[:4], 100*ms)
	// Covered: run self [5,10) ∪ [60,95), build and access [10,50).
	near("unattributed_s", 0.100-0.005-0.035-0.040)
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	run := r.begin("harness.run", 0, 0)
	cell := r.begin("harness.cell", run, 1)
	r.end(r.begin("core.access", cell, 1), 4096, "THP")
	r.end(cell, 0, "")
	r.end(run, 0, "")
	s := r.snapshot()
	if len(s) != 3 || s[2].Parent != cell || s[2].Refs != 4096 || s[2].Config != "THP" || s[1].Parent != run {
		t.Fatalf("spans = %+v", s)
	}
	for _, x := range s {
		if x.End < x.Start {
			t.Errorf("span %s ends before it starts", x.Name)
		}
	}
}
