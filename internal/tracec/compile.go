package tracec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"xlate/internal/workloads"
)

// formatVersion is baked into every content-address key so a future
// segment-format revision can never satisfy a stale key: bumping the
// format recompiles the world instead of replaying misdecoded bytes.
const formatVersion = 1

// Key is the content address of a compiled segment: SHA-256 over the
// format version and what the reference generator reads — the complete
// spec, the policy's layout projection (vm.Policy.Layout), the seed,
// the scale, and the instruction budget. Page sizes, eager paging and
// simulator parameters shape translation, not the stream, so every
// configuration simulating one workload shares one segment. The
// canonical %+v encoding mirrors harness.JobKey's discipline.
func Key(spec workloads.Spec, opt workloads.BuildOptions, instrs uint64) string {
	canon := fmt.Sprintf("xlseg|v%d|spec=%+v|layout=%+v|seed=%d|scale=%g|instrs=%d",
		formatVersion, spec, opt.Policy.Layout(), opt.Seed, opt.Scale, instrs)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// ContentKey is the content address of an ingested segment: SHA-256 of
// the segment bytes themselves. Ingested streams have no generating
// spec, so the bytes are the identity — which is also what lets a
// worker verify a segment fetched from the coordinator (HTTPFetcher).
func ContentKey(segment []byte) string {
	sum := sha256.Sum256(segment)
	return hex.EncodeToString(sum[:])
}

// CompileSpec lowers a workload model into a segment: it builds the
// spec under the policy's layout projection — the region windows, and
// so the generator state, of a live run under any policy sharing that
// layout — and freezes the references the generator yields until the
// instruction budget is met. The simulator consumes a reference while
// its accumulated instructions are below the budget, and every
// reference carries at least one instruction (the generator's pacing
// invariant), so the compiled stream is exactly the prefix a live run
// consumes — the byte-identity guarantee reduces to replaying this
// prefix through an identically built address space.
func CompileSpec(spec workloads.Spec, opt workloads.BuildOptions, instrs uint64) ([]byte, SegmentInfo, error) {
	if instrs == 0 {
		return nil, SegmentInfo{}, fmt.Errorf("tracec: compiling %s: zero instruction budget", spec.Name)
	}
	opt.Policy = opt.Policy.Layout()
	_, gen, err := spec.Build(opt)
	if err != nil {
		return nil, SegmentInfo{}, fmt.Errorf("tracec: compiling %s: %w", spec.Name, err)
	}
	enc := NewEncoder()
	for total := uint64(0); total < instrs; {
		r := gen.Next()
		total += r.Instrs
		enc.Add(r)
	}
	return enc.Finish()
}
