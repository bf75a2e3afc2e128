package core

import (
	"testing"

	"xlate/internal/trace"
	"xlate/internal/vm"
)

// TestAccessAllocFree pins the hot path dynamically, next to the static
// hotpath analyzer: once warmed up, Access performs no allocation under
// any of the paper's six configurations. The references mix L1 hits,
// L2 hits and page walks (plus range walks under RMM), and are decoded
// up front so the pin measures Access alone. The whole run stays inside
// one Lite interval: the interval-end decision is a declared cold path
// (lite.Controller.endInterval) that allocates its Decision record.
func TestAccessAllocFree(t *testing.T) {
	for _, kind := range AllConfigs() {
		t.Run(kind.String(), func(t *testing.T) {
			as := vm.New(vm.Config{Policy: PolicyFor(kind, 0.5), Seed: 7})
			reg, err := as.Mmap(32 << 20)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := NewSimulator(DefaultParams(kind), as)
			if err != nil {
				t.Fatal(err)
			}
			gen := trace.NewGenerator(trace.Uniform(window(reg), 3), 3)
			refs := make([]trace.Ref, 4096)
			for i := range refs {
				refs[i] = gen.Next()
			}
			batch := func() {
				for _, r := range refs {
					sim.Access(r.VA, r.Instrs)
				}
			}
			batch() // warm-up: cold misses, first fills, scratch growth
			if n := testing.AllocsPerRun(20, batch); n != 0 {
				t.Fatalf("Access allocates %v per %d references, want 0", n, len(refs))
			}
			if sim.st.l2Misses == 0 {
				t.Fatal("no page walks: the pin did not cover the walk path")
			}
		})
	}
}
