package workloads_test

import (
	"testing"

	"xlate/internal/core"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// BenchmarkBuildAddressSpace measures the address-space build layer on
// its own: mcf, the largest TLB-intensive footprint, built at scale 1
// (every region mapped under the OS policy, plus the reference
// generator) once per distinct policy that core.PolicyFor hands the
// configurations. Each sub-bench is named after the first
// configuration with that policy.
func BenchmarkBuildAddressSpace(b *testing.B) {
	spec, ok := workloads.ByName("mcf")
	if !ok {
		b.Fatal("no mcf workload")
	}
	seen := map[vm.Policy]bool{}
	for _, kind := range append(core.AllConfigs(), core.ExtendedConfigs()...) {
		pol := core.PolicyFor(kind, 0.5)
		if seen[pol] {
			continue
		}
		seen[pol] = true
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, err := spec.Build(workloads.BuildOptions{Policy: pol, Seed: 1, Scale: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
