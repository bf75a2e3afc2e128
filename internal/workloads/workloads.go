// Package workloads defines parameterized models of the paper's
// benchmarks (Table 4: SPEC 2006, PARSEC, BioBench) built from the
// primitives in internal/trace, plus the remaining SPEC/PARSEC workloads
// of Figure 12.
//
// Each model is a substitution for the real binary (DESIGN.md §1): it
// reproduces the observables that drive the translation path — memory
// footprint, the number and interleaving of hot data structures, reuse
// skew, pointer-chasing vs streaming character, achievable THP coverage
// (the paper measured real, fragmentation-limited THP via pagemap), the
// instructions-per-memory-reference rate, and phase structure (Figure
// 4). The calibration targets are the paper's per-workload observables:
// L1/L2 MPKI bands under 4 KB pages, the 4KB/2MB hit split of Table 5,
// and the range-vs-page hit split under RMM_Lite.
package workloads

import (
	"errors"
	"fmt"

	"xlate/internal/trace"
	"xlate/internal/vm"
)

// ErrInvalidSpec is wrapped by every Spec validation failure, so callers
// at the API boundary can classify malformed workload models with
// errors.Is. The trace primitives still panic on the same conditions;
// Validate (called by Build) keeps user-supplied specs on the error
// path.
var ErrInvalidSpec = errors.New("invalid workload spec")

// Pattern selects a trace primitive for one region access.
type Pattern int

// The access patterns.
const (
	Seq Pattern = iota // sequential sweep with a byte stride
	Uni                // uniform random
	Zpf                // Zipf-skewed page popularity
	Chs                // pointer chase (full-cycle page permutation)
)

// RegionSpec is one data structure of the modeled program.
type RegionSpec struct {
	Name  string
	Bytes uint64
	// THPCoverage is the fraction of this region the OS manages to back
	// with 2 MB pages when THP is enabled (negative = policy default).
	// Real THP coverage is region-dependent: large, early, aligned
	// allocations fare well; small or churning ones do not.
	THPCoverage float64
}

// AccessSpec is one weighted access stream into a region.
type AccessSpec struct {
	Region  int     // index into Spec.Regions
	Weight  float64 // share of references in the phase
	Pattern Pattern
	Stride  uint64  // Seq: bytes between successive references
	ZipfS   float64 // Zpf: skew exponent (> 1)
	// Burst references each drawn page this many times before moving
	// on (within-page spatial locality); 0 or 1 = none.
	Burst int
}

// PhaseSpec is one execution phase: a mixture of region accesses that
// runs for Refs references before the workload moves to the next phase
// (cycling).
type PhaseSpec struct {
	Refs   uint64
	Access []AccessSpec
}

// Spec is a complete workload model.
type Spec struct {
	Name         string
	Suite        string
	TLBIntensive bool    // > 5 L1 MPKI with 4 KB pages (paper §5)
	InstrPerRef  float64 // instructions per memory reference
	Regions      []RegionSpec
	Phases       []PhaseSpec

	// TraceRef, when non-empty, marks a trace-backed workload: instead
	// of a synthesized model, the cell replays the ingested trace
	// segment with this content hash (internal/tracec). Trace-backed
	// specs carry no regions or phases and cannot Build — they execute
	// only through a trace executor holding a segment store.
	TraceRef string
}

// TraceSpec returns the spec for an ingested reference stream,
// runnable anywhere a model workload is (experiments, the audit
// oracle, cluster dispatch) once a trace executor is wired in. The
// name doubles as the job-API workload name.
func TraceSpec(ref string) Spec {
	return Spec{Name: "trace:" + ref, Suite: "ingested", TLBIntensive: true, TraceRef: ref}
}

// FootprintBytes returns the total memory footprint (Table 4's
// "Memory" column).
func (s Spec) FootprintBytes() uint64 {
	var b uint64
	for _, r := range s.Regions {
		b += r.Bytes
	}
	return b
}

// Validate checks internal consistency of the spec. Every failure wraps
// ErrInvalidSpec.
func (s Spec) Validate() error {
	if s.TraceRef != "" {
		// Trace-backed specs are pure references: the segment carries
		// the stream, so a model here would be dead weight at best and
		// a key-identity lie at worst.
		if s.Name == "" {
			return fmt.Errorf("workloads: %w: trace-backed spec without a name", ErrInvalidSpec)
		}
		if len(s.Regions) != 0 || len(s.Phases) != 0 {
			return fmt.Errorf("workloads: %w: %q: trace-backed spec carries a model", ErrInvalidSpec, s.Name)
		}
		return nil
	}
	if s.Name == "" || len(s.Regions) == 0 || len(s.Phases) == 0 {
		return fmt.Errorf("workloads: %w: %q: empty spec", ErrInvalidSpec, s.Name)
	}
	if s.InstrPerRef < 1 {
		return fmt.Errorf("workloads: %w: %q: instrPerRef %v < 1", ErrInvalidSpec, s.Name, s.InstrPerRef)
	}
	for _, r := range s.Regions {
		if r.Bytes == 0 {
			return fmt.Errorf("workloads: %w: %q: empty region %q", ErrInvalidSpec, s.Name, r.Name)
		}
		if r.THPCoverage > 1 {
			return fmt.Errorf("workloads: %w: %q: region %q coverage > 1", ErrInvalidSpec, s.Name, r.Name)
		}
	}
	for pi, p := range s.Phases {
		if p.Refs == 0 || len(p.Access) == 0 {
			return fmt.Errorf("workloads: %w: %q: phase %d empty", ErrInvalidSpec, s.Name, pi)
		}
		for _, a := range p.Access {
			if a.Region < 0 || a.Region >= len(s.Regions) {
				return fmt.Errorf("workloads: %w: %q: phase %d references region %d", ErrInvalidSpec, s.Name, pi, a.Region)
			}
			if a.Weight <= 0 {
				return fmt.Errorf("workloads: %w: %q: non-positive weight", ErrInvalidSpec, s.Name)
			}
			switch a.Pattern {
			case Seq:
				if a.Stride == 0 {
					return fmt.Errorf("workloads: %w: %q: Seq access needs a stride", ErrInvalidSpec, s.Name)
				}
			case Zpf:
				if a.ZipfS <= 1 {
					return fmt.Errorf("workloads: %w: %q: Zpf access needs s > 1", ErrInvalidSpec, s.Name)
				}
			case Uni, Chs:
			default:
				return fmt.Errorf("workloads: %w: %q: unknown pattern %d", ErrInvalidSpec, s.Name, int(a.Pattern))
			}
		}
	}
	return nil
}

// BuildOptions parameterizes workload instantiation.
type BuildOptions struct {
	// Policy is the OS memory policy (see core.PolicyFor).
	Policy vm.Policy
	// Seed drives every random choice deterministically.
	Seed int64
	// Scale multiplies region sizes (0 = 1.0). Benches use < 1 to bound
	// setup time; experiments use 1.
	Scale float64
}

// Build instantiates the workload: it creates the address space (mapping
// every region under the policy) and the paced reference generator.
func (s Spec) Build(opt BuildOptions) (*vm.AddressSpace, *trace.Generator, error) {
	as, gens, err := s.BuildThreads(opt, 1)
	if err != nil {
		return nil, nil, err
	}
	return as, gens[0], nil
}

// BuildThreads instantiates the workload once and returns one reference
// generator per thread, all over the same shared address space — the
// multi-threaded process model for core.Multicore. Threads execute the
// same phase structure with decorrelated random draws.
func (s Spec) BuildThreads(opt BuildOptions, threads int) (*vm.AddressSpace, []*trace.Generator, error) {
	if threads <= 0 {
		return nil, nil, fmt.Errorf("workloads: need at least one thread")
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if s.TraceRef != "" {
		return nil, nil, fmt.Errorf("workloads: %w: %q: trace-backed workloads replay through a trace store (run with a trace executor)", ErrInvalidSpec, s.Name)
	}
	scale := opt.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, nil, fmt.Errorf("workloads: negative scale")
	}
	// Physical memory: twice the footprint, at least 4 GB — enough for
	// perfect eager paging.
	phys := max(2*uint64(float64(s.FootprintBytes())*scale), 4<<30)
	as := vm.New(vm.Config{Policy: opt.Policy, PhysBytes: phys, Seed: opt.Seed})

	regions := make([]vm.Region, len(s.Regions))
	for i, rs := range s.Regions {
		bytes := uint64(float64(rs.Bytes) * scale)
		if bytes < 64<<10 {
			bytes = 64 << 10
		}
		reg, err := as.MmapCoverage(bytes, rs.THPCoverage)
		if err != nil {
			return nil, nil, fmt.Errorf("workloads: %q: mapping %q: %w", s.Name, rs.Name, err)
		}
		regions[i] = reg
	}

	gens := make([]*trace.Generator, threads)
	for t := range gens {
		seed := opt.Seed + int64(t)*0x5851f42d4c957f2d
		nextSeed := func() int64 { seed = seed*6364136223846793005 + 1442695040888963407; return seed }

		var phases []trace.Phase
		for _, ps := range s.Phases {
			var parts []trace.Weighted
			for _, a := range ps.Access {
				reg := regions[a.Region]
				w := trace.Window{Base: reg.Base, Size: reg.Size}
				var st trace.Stream
				switch a.Pattern {
				case Seq:
					st = trace.Sequential(w, a.Stride)
				case Uni:
					st = trace.Uniform(w, nextSeed())
				case Zpf:
					st = trace.Zipf(w, a.ZipfS, nextSeed())
				case Chs:
					st = trace.Chase(w, nextSeed())
				}
				if a.Burst > 1 {
					st = trace.Burst(st, a.Burst, nextSeed())
				}
				parts = append(parts, trace.Weighted{Stream: st, Weight: a.Weight})
			}
			phases = append(phases, trace.Phase{Stream: trace.Mix(nextSeed(), parts...), Refs: ps.Refs})
		}
		var stream trace.Stream
		if len(phases) == 1 {
			stream = phases[0].Stream
		} else {
			stream = trace.Phased(phases...)
		}
		gens[t] = trace.NewGenerator(stream, s.InstrPerRef)
	}
	return as, gens, nil
}
