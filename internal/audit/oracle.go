package audit

import (
	"fmt"
	"math"

	"xlate/internal/addr"
	"xlate/internal/energy"
	"xlate/internal/lite"
	"xlate/internal/pagetable"
	"xlate/internal/rmm"
	"xlate/internal/tlb"
)

// Structures hands the auditor read access to every structure of one
// core's MMU. Nil fields mark structures the configuration omits.
// The auditor only reads through these references (plus the
// allocation-free ForEach iterators), never mutates.
type Structures struct {
	PT *pagetable.Table // authoritative page table (required)
	RT *rmm.RangeTable  // authoritative range table (nil without ranges)

	L14K  *tlb.SetAssoc // L1-4KB TLB, or the mixed L1 when MixedL1
	L12M  *tlb.SetAssoc // nil when absent
	L11G  *tlb.SetAssoc // nil when absent
	L2    *tlb.SetAssoc // unified L2 page TLB (size-qualified keys)
	L1Rng *tlb.RangeTLB // nil when absent
	L2Rng *tlb.RangeTLB // nil when absent

	MMU []*tlb.SetAssoc // paging-structure caches (invariants only)

	Lite *lite.Controller // nil for non-Lite configurations

	// MixedL1 marks configurations whose L1 holds multiple page sizes
	// under size-qualified keys (TLB_PP and the predictor extensions).
	MixedL1 bool

	// DB prices structures for the independent energy re-derivation.
	DB *energy.DB
	// WalkRefPJ is the energy of one page-walk memory reference,
	// re-derived by the caller from the energy database and walk-locality
	// parameter (not taken from the simulator's cached copy).
	WalkRefPJ float64
}

// Charge is one observed charge-worthy event of an access: a probe
// or fill of a named structure, or a batch of walk memory references.
type Charge struct {
	Acc   energy.Account
	Name  string // structure name (energy-database key); "" for walk refs
	Ways  int    // active ways at event time (0 for fixed structures)
	Write bool   // a fill rather than a probe
	Refs  int    // >0: walk references, charged at WalkRefPJ each
}

// pageHit is one observed L1/L2 page-TLB hit.
type pageHit struct {
	name string // structure name, for violation reports
	e    tlb.Entry
	sz   addr.PageSize // the fast path's page-size choice
}

// pjTolerance bounds the acceptable float drift between the charged and
// the re-derived energy of one access. Deltas are differences of
// accumulators that can reach 1e10 pJ, so the tolerance must sit above
// accumulated ulp error while staying far below any real mis-charge
// (the cheapest single event is ~0.16 pJ).
const pjTolerance = 1e-3

// Auditor is the runtime integrity checker for one simulator. It is
// not safe for concurrent use; each core owns its own (matching the
// per-core Simulator it watches).
type Auditor struct {
	cfg Config
	st  Structures

	stats Stats
	first *ViolationError

	accesses uint64

	// Per-access oracle state, reset by BeginAccess. The slices are
	// reused buffers so the hot path never allocates.
	sampling  bool
	va        addr.VA
	before    energy.Breakdown
	events    []Charge
	pageHits  []pageHit
	rangeHits []rmm.Range
	walked    bool
	walkMap   pagetable.Mapping
}

// New constructs an auditor over the given structures.
func New(cfg Config, st Structures) *Auditor {
	if st.PT == nil {
		panic("audit: nil page table")
	}
	if st.DB == nil {
		panic("audit: nil energy database")
	}
	return &Auditor{
		cfg:       cfg.WithDefaults(),
		st:        st,
		events:    make([]Charge, 0, 32),
		pageHits:  make([]pageHit, 0, 4),
		rangeHits: make([]rmm.Range, 0, 4),
	}
}

// SetRangeTable re-points the authoritative range table (the multicore
// wrapper clones the shared table per core after construction).
func (a *Auditor) SetRangeTable(rt *rmm.RangeTable) { a.st.RT = rt }

// Stats returns the activity counters.
func (a *Auditor) Stats() Stats { return a.stats }

// Err returns the first violation observed, or nil while the run is
// clean.
func (a *Auditor) Err() error {
	if a.first == nil {
		return nil
	}
	return a.first
}

//eeat:coldpath violations abort the run; formatting the first one may allocate
func (a *Auditor) violate(check, structure string, va addr.VA, format string, args ...any) {
	a.stats.Violations++
	if a.first == nil {
		a.first = &ViolationError{Check: check, Structure: structure, VA: va,
			Detail: fmt.Sprintf(format, args...)}
	}
}

// BeginAccess opens the observation window for one memory access. The
// breakdown pointer is the live ledger; a snapshot is taken only on
// sampled accesses.
func (a *Auditor) BeginAccess(va addr.VA, b *energy.Breakdown) {
	a.accesses++
	a.sampling = a.accesses%a.cfg.SampleEvery == 0
	if !a.sampling {
		return
	}
	a.va = va
	a.before = *b
	a.events = a.events[:0]
	a.pageHits = a.pageHits[:0]
	a.rangeHits = a.rangeHits[:0]
	a.walked = false
}

// RecordCharge notes one charge-worthy event, as the simulator's
// charging primitive that booked it describes it.
func (a *Auditor) RecordCharge(c Charge) {
	if !a.sampling {
		return
	}
	a.events = append(a.events, c) //eeatlint:allow hotpath recycled scratch; the backing array is reused across the [:0] reset in BeginAccess
}

// RecordPageHit notes a page-TLB hit: the entry served and the page
// size the fast path attributed to it.
func (a *Auditor) RecordPageHit(name string, e tlb.Entry, sz addr.PageSize) {
	if !a.sampling {
		return
	}
	a.pageHits = append(a.pageHits, pageHit{name: name, e: e, sz: sz}) //eeatlint:allow hotpath recycled scratch; the backing array is reused across the [:0] reset in BeginAccess
}

// RecordRangeHit notes a range-TLB hit.
func (a *Auditor) RecordRangeHit(r rmm.Range) {
	if !a.sampling {
		return
	}
	a.rangeHits = append(a.rangeHits, r) //eeatlint:allow hotpath recycled scratch; the backing array is reused across the [:0] reset in BeginAccess
}

// RecordWalkResult notes the mapping a page walk returned.
func (a *Auditor) RecordWalkResult(m pagetable.Mapping) {
	if !a.sampling {
		return
	}
	a.walked = true
	a.walkMap = m
}

// EndAccess closes the observation window: on sampled accesses the
// oracle cross-checks the translation and the energy charge, and on the
// structural cadence a full audit runs. shadowPJ is the independently
// accumulated total of every charge (the conservation reference).
func (a *Auditor) EndAccess(b *energy.Breakdown, shadowPJ float64) {
	if a.sampling {
		a.stats.Sampled++
		a.checkTranslation()
		a.checkEnergy(b)
		a.sampling = false
	}
	if a.accesses%a.cfg.CheckEveryRefs == 0 {
		a.AuditNow(b, shadowPJ)
	}
}

// checkTranslation re-derives the access's translation from the page
// table and range table and compares it with what the fast path served.
//
//eeat:coldpath sampled oracle cross-check; runs once per SampleEvery accesses
func (a *Auditor) checkTranslation() {
	ref, ok := a.st.PT.Lookup(a.va)
	if !ok {
		a.violate(CheckTranslation, "", a.va, "accessed address has no page-table mapping")
		return
	}
	for _, h := range a.pageHits {
		if h.sz != ref.Size {
			a.violate(CheckPageSize, h.name, a.va,
				"hit served as %v but the page table maps a %v page", h.sz, ref.Size)
			continue
		}
		if h.e.Frame != uint64(ref.Frame) {
			a.violate(CheckTranslation, h.name, a.va,
				"cached frame %#x, page table says %#x", h.e.Frame, uint64(ref.Frame))
		}
	}
	want := addr.Translate(ref.Frame, a.va, ref.Size)
	for _, r := range a.rangeHits {
		if !r.Contains(a.va) {
			a.violate(CheckRangeCoherence, "", a.va,
				"served by range [%#x,%#x) that does not contain the address",
				uint64(r.Start), uint64(r.End))
			continue
		}
		if got := r.Translate(a.va); got != want {
			a.violate(CheckTranslation, "", a.va,
				"range translation %#x, page table says %#x", uint64(got), uint64(want))
			continue
		}
		if a.st.RT != nil {
			tr, ok := a.st.RT.Lookup(a.va)
			if !ok {
				a.violate(CheckRangeCoherence, "", a.va,
					"cached range [%#x,%#x) absent from the range table",
					uint64(r.Start), uint64(r.End))
			} else if tr.Translate(a.va) != r.Translate(a.va) {
				a.violate(CheckRangeCoherence, "", a.va,
					"cached range maps to %#x, range table maps to %#x",
					uint64(r.Translate(a.va)), uint64(tr.Translate(a.va)))
			}
		}
	}
	if a.walked && (a.walkMap.Frame != ref.Frame || a.walkMap.Size != ref.Size) {
		a.violate(CheckTranslation, "", a.va,
			"walk returned frame %#x size %v, direct lookup says frame %#x size %v",
			uint64(a.walkMap.Frame), a.walkMap.Size, uint64(ref.Frame), ref.Size)
	}
}

// checkEnergy re-derives the access's expected charge per account from
// the observed events and the energy database, and compares it with the
// ledger movement. It is the oracle's independent charging path — the
// second opinion the differential check compares the simulator against —
// so it is a charging primitive in its own right.
//
//eeat:chargesite
//eeat:coldpath sampled oracle cross-check; runs once per SampleEvery accesses
func (a *Auditor) checkEnergy(after *energy.Breakdown) {
	var expect energy.Breakdown
	for _, ev := range a.events {
		var pj float64
		if ev.Refs > 0 {
			pj = float64(ev.Refs) * a.st.WalkRefPJ
		} else {
			c, ok := a.st.DB.Lookup(ev.Name, ev.Ways)
			if !ok {
				a.violate(CheckEnergy, ev.Name, a.va,
					"no cost registered at %d ways", ev.Ways)
				return
			}
			if ev.Write {
				pj = c.WritePJ
			} else {
				pj = c.ReadPJ
			}
		}
		expect.Add(ev.Acc, pj)
	}
	for acc := energy.Account(0); acc < energy.NumAccounts; acc++ {
		delta := after.Get(acc) - a.before.Get(acc)
		want := expect.Get(acc)
		if math.Abs(delta-want) > pjTolerance+1e-9*math.Abs(want) {
			a.violate(CheckEnergy, acc.String(), a.va,
				"charged %.6f pJ, recomputed cost is %.6f pJ", delta, want)
			return
		}
	}
}
