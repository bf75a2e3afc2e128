package core

import (
	"context"
	"fmt"

	"xlate/internal/addr"
	"xlate/internal/audit"
	"xlate/internal/audit/inject"
	"xlate/internal/energy"
	"xlate/internal/lite"
	"xlate/internal/mmucache"
	"xlate/internal/pagetable"
	"xlate/internal/rmm"
	"xlate/internal/stats"
	"xlate/internal/tlb"
	"xlate/internal/trace"
	"xlate/internal/vm"
)

// Simulator is one core's MMU: the TLB hierarchy of the selected
// configuration attached to a process address space. Drive it with
// Access (one memory operation at a time) or Run (a whole trace).
type Simulator struct {
	p  Params
	as *vm.AddressSpace

	l14k  *tlb.SetAssoc // L1-4KB TLB, or the single mixed L1 under TLB_PP
	l12m  *tlb.SetAssoc // L1-2MB TLB (nil when absent)
	l11g  *tlb.SetAssoc // L1-1GB TLB (nil when absent)
	l1rng *tlb.RangeTLB // L1-range TLB (nil when absent)
	l2    *tlb.SetAssoc // unified L2 page TLB
	l2rng *tlb.RangeTLB // L2-range TLB (nil when absent)
	mmu   *mmucache.Cache
	walk  *pagetable.Walker
	rt    *rmm.RangeTable // nil when the config has no range support
	ctl   *lite.Controller
	pred  *sizePredictor // nil unless the config uses a real predictor

	// l12mEnabled and l11gEnabled model the static disable mask of §3.1:
	// a huge-page TLB is probed (and charged) only after a page table
	// entry of its size has been fetched by a page walk.
	l12mEnabled bool
	l11gEnabled bool

	// lite2mIdx / lite1gIdx are the monitored-TLB indices of the huge-
	// page TLBs in the Lite controller (-1 when not monitored).
	lite2mIdx, lite1gIdx int

	costs     costTable // every price this run can charge, resolved once
	walkRefPJ float64   // energy of one page-walk memory reference

	// aud is the runtime integrity layer (nil unless Params.Audit is
	// enabled). It observes probes, fills, hits and charges, and never
	// mutates simulator state, so an audited run is byte-identical to an
	// unaudited one.
	aud *audit.Auditor

	// Fault-injection state (inject package; zero unless Params.Fault is
	// set). dropInval names a structure the next InvalidateRegion must
	// skip.
	fault      inject.Fault
	faultArmed bool
	dropInval  string

	// tele is the telemetry attachment (nil unless Params.Metrics or
	// Params.Trace is set). Like aud, it observes and never mutates
	// simulator state: instrumented runs are byte-identical.
	tele *teleState

	st runStats
}

// runStats is the accumulating state of one run.
type runStats struct {
	instructions uint64
	memRefs      uint64
	l1Misses     uint64
	l2Misses     uint64
	walkRefs     uint64
	cycles       uint64
	pageFaults   uint64
	shootdowns   uint64

	hits4K, hits2M, hits1G, hitsRange uint64 // L1 hit attribution (Table 5 right)

	energy energy.Breakdown
	// shadowPJ is a single running sum over every charge, accumulated
	// separately from the per-account breakdown; the audit layer's
	// conservation check compares the two.
	shadowPJ float64

	// interval series (Figure 4, plus the energy/Lite drill-downs).
	// intRefMark / intPJMark are the memRefs and shadowPJ values at the
	// previous interval boundary, so each point charges only its own
	// interval's references and energy.
	intInstrs    uint64
	intL1Misses  uint64
	intRefMark   uint64
	intPJMark    float64
	series       stats.Series
	seriesEnergy stats.Series
	seriesWays   stats.Series
}

// NewSimulator builds the configured TLB hierarchy over the given
// address space. The address space must have been created with a policy
// compatible with the configuration (see PolicyFor).
func NewSimulator(p Params, as *vm.AddressSpace) (*Simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	costs, err := p.resolveCosts()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		costs: costs,
		p:     p,
		as:    as,
		l14k:  tlb.NewSetAssoc(energy.L14KB, p.L14KEntries, p.L14KWays),
		l2:    tlb.NewSetAssoc(energy.L2Page, p.L2Entries, p.L2Ways),
		mmu:   mmucache.New(p.MMU),
		walk:  pagetable.NewWalker(as.PageTable()),
	}
	if p.hasL12M() {
		s.l12m = tlb.NewSetAssoc(energy.L12MB, p.L12MEntries, p.L12MWays)
	}
	if !p.mixedL1() {
		// Figure 1's hierarchy always includes the small fully
		// associative L1-1GB TLB; the §3.1 mask keeps it disabled (and
		// free) until a 1 GB mapping is actually walked.
		s.l11g = tlb.NewFullyAssoc(energy.L11GB, l11gEntries)
	}
	if p.hasL2Range() {
		s.l2rng = tlb.NewRangeTLB(energy.L2Range, p.L2RangeEntries)
		s.rt = as.RangeTable()
	}
	if p.hasL1Range() {
		s.l1rng = tlb.NewRangeTLB(energy.L1Range, p.L1RangeEntries)
	}
	s.lite2mIdx, s.lite1gIdx = -1, -1
	if p.hasLite() {
		monitored := []*tlb.SetAssoc{s.l14k}
		if s.l12m != nil {
			s.lite2mIdx = len(monitored)
			monitored = append(monitored, s.l12m)
		}
		if s.l11g != nil {
			s.lite1gIdx = len(monitored)
			monitored = append(monitored, s.l11g)
		}
		s.ctl = lite.NewController(p.Lite, monitored...)
	}
	if p.hasPredictor() {
		s.pred = newSizePredictor(p.PredictorEntries)
	}
	s.walkRefPJ = p.EnergyDB.WalkRefCost(p.WalkL1HitRatio)
	if p.Fault.Kind != inject.None {
		s.fault = p.Fault
		s.faultArmed = true
	}
	if p.Audit.Enabled {
		mmu := s.mmu.Structures()
		s.aud = audit.New(p.Audit, audit.Structures{
			PT:      as.PageTable(),
			RT:      s.rt,
			L14K:    s.l14k,
			L12M:    s.l12m,
			L11G:    s.l11g,
			L2:      s.l2,
			L1Rng:   s.l1rng,
			L2Rng:   s.l2rng,
			MMU:     mmu[:],
			Lite:    s.ctl,
			MixedL1: p.mixedL1(),
			DB:      p.EnergyDB,
			// Re-derived from the database rather than copied from
			// s.walkRefPJ, so a corrupted cached value is detectable.
			WalkRefPJ: p.EnergyDB.WalkRefCost(p.WalkL1HitRatio),
		})
	}
	s.st.series.Name = "L1 MPKI per interval"
	s.st.seriesEnergy.Name = "energy/access (pJ) per interval"
	s.st.seriesWays.Name = "L1-4KB active ways per interval"
	if p.Metrics != nil || p.Trace != nil {
		s.attachTelemetry(p.Metrics, p.Trace)
	}
	return s, nil
}

// Lite exposes the Lite controller (nil for non-Lite configurations).
func (s *Simulator) Lite() *lite.Controller { return s.ctl }

// mixKey builds a page-size-qualified tag for structures holding
// multiple page sizes (the unified L2, and TLB_PP's mixed L1). The size
// discriminator lives in the high bits so the VPN's low bits — which
// select the set — keep their natural distribution.
func mixKey(va addr.VA, sz addr.PageSize) uint64 {
	return uint64(sz)<<60 | addr.VPN(va, sz)
}

func leafLevelOf(sz addr.PageSize) addr.Level {
	switch sz {
	case addr.Page4K:
		return addr.LvlPT
	case addr.Page2M:
		return addr.LvlPD
	case addr.Page1G:
		return addr.LvlPDPT
	}
	panic("core: invalid page size")
}

// read charges one probe of structure id, priced at its active ways
// from the resolved cost table, to the breakdown and the shadow total
// the conservation audit compares against, and forwards the event to
// the integrity layer. With fill and walkRefs it is the simulator's
// only charging primitive (the chargesite analyzer rejects Breakdown
// writes anywhere else): one call per event keeps charge and evidence
// in step.
//
//eeat:chargesite
func (s *Simulator) read(id structID) {
	w := s.activeWays(id)
	pj := s.costs[id][w].ReadPJ
	s.st.energy.Add(structs[id].acc, pj)
	s.st.shadowPJ += pj
	if s.aud != nil {
		s.aud.RecordCharge(audit.Charge{Acc: structs[id].acc, Name: structs[id].name, Ways: w})
	}
}

// fill charges one fill of structure id; see read.
//
//eeat:chargesite
func (s *Simulator) fill(id structID) {
	w := s.activeWays(id)
	pj := s.costs[id][w].WritePJ
	s.st.energy.Add(structs[id].acc, pj)
	s.st.shadowPJ += pj
	if s.aud != nil {
		s.aud.RecordCharge(audit.Charge{Acc: structs[id].acc, Name: structs[id].name, Ways: w, Write: true})
	}
}

// walkRefs charges refs walk memory references to acc; see read.
//
//eeat:chargesite
func (s *Simulator) walkRefs(acc energy.Account, refs int) {
	pj := float64(refs) * s.walkRefPJ
	s.st.energy.Add(acc, pj)
	s.st.shadowPJ += pj
	if s.aud != nil {
		s.aud.RecordCharge(audit.Charge{Acc: acc, Refs: refs})
	}
}

// activeWays is the way count structure id is priced at: the L1 page
// TLBs' current active ways, 0 for every structure without
// way-disabling.
func (s *Simulator) activeWays(id structID) int {
	switch id {
	case sL1Page:
		return s.l14k.ActiveWays()
	case sL12M:
		return s.l12m.ActiveWays()
	case sL11G:
		return s.l11g.ActiveWays()
	}
	return 0
}

// applyFault performs the armed fault's corruption. Faults that need a
// victim entry stay armed until one is resident.
//
//eeat:coldpath fault injection is a test-only facility, armed at most once per run
func (s *Simulator) applyFault() {
	switch s.fault.Kind {
	case inject.FlipPFN:
		mask := s.fault.Mask
		if mask == 0 {
			mask = 1
		}
		if s.l14k.MutateEntry(func(e *tlb.Entry) bool { e.Frame ^= mask; return true }) {
			s.faultArmed = false
		}
	case inject.StaleRange:
		mut := func(e *tlb.RangeEntry) bool { e.PABase += addr.PA(addr.Bytes4K); return true }
		if s.l2rng != nil && s.l2rng.MutateEntry(mut) {
			s.faultArmed = false
		} else if s.l1rng != nil && s.l1rng.MutateEntry(mut) {
			s.faultArmed = false
		}
	case inject.DropInvalidation:
		s.dropInval = s.fault.Target
		if s.dropInval == "" {
			s.dropInval = energy.L12MB
		}
		s.faultArmed = false
	case inject.SkewCharge:
		// Scale every price once; each later charge is then skewed.
		f := s.fault.Factor
		if f == 0 {
			f = 1.5
		}
		for _, row := range s.costs {
			for w := range row {
				row[w].ReadPJ *= f
				row[w].WritePJ *= f
			}
		}
		s.walkRefPJ *= f
		s.faultArmed = false
	}
}

// Access simulates one memory operation: the virtual address and the
// instructions executed since the previous reference. Every probe, fill
// and walk charges the energy model; the performance model adds 7 cycles
// per L1 miss and 50 per L2 miss (Table 3).
//
// Access is the root of the simulator's hot path: everything it
// reaches must stay allocation-free (the AllocsPerRun pins check this
// dynamically, the hotpath analyzer statically).
//
//eeat:hotpath
func (s *Simulator) Access(va addr.VA, instrs uint64) {
	s.st.instructions += instrs
	s.st.memRefs++

	if s.faultArmed && s.st.memRefs > s.fault.AfterRefs {
		s.applyFault()
	}
	if s.aud != nil {
		s.aud.BeginAccess(va, &s.st.energy)
	}

	m, ok := s.as.PageTable().Lookup(va)
	if !ok {
		if !s.p.DemandPaging {
			panic(fmt.Sprintf("core: access to unmapped address %#x — pre-map memory or enable DemandPaging", uint64(va)))
		}
		if _, err := s.as.EnsureMapped(va); err != nil {
			panic(fmt.Sprintf("core: demand fault failed: %v", err))
		}
		s.st.pageFaults++
		s.tracePageFault(uint64(va))
		// Under eager paging the fault may have merged the new chunk
		// into a neighbouring range, rewriting that range's bounds in
		// the range table. Cached copies of the old, narrower range are
		// now stale mappings and must leave the hardware, exactly like
		// any other OS-changed translation (InvalidateRegion). Absent a
		// merge nothing overlaps a freshly faulted chunk, so this is a
		// no-op on the common path.
		if s.l2rng != nil || s.l1rng != nil {
			if r, ok := s.as.RangeTable().Lookup(va); ok {
				if s.l1rng != nil {
					s.l1rng.InvalidateOverlapping(r.Start, r.End)
				}
				if s.l2rng != nil {
					s.l2rng.InvalidateOverlapping(r.Start, r.End)
				}
			}
		}
		m, ok = s.as.PageTable().Lookup(va)
		if !ok {
			panic(fmt.Sprintf("core: demand mapping did not cover %#x", uint64(va)))
		}
	}

	if s.ctl != nil {
		s.ctl.RecordLookup()
	}

	// --- L1 probes: every enabled L1 structure in parallel ---
	pageHit := false
	var pageHitSize addr.PageSize
	if s.p.mixedL1() {
		// TLB_PP's perfect predictor selects the index for the actual
		// page size at no energy cost. Under TLB_Pred / Combined a real
		// predictor does; a misprediction can never hit (the tag embeds
		// the true size), so it costs a wasted probe and an extra cycle
		// before the re-indexed one.
		if s.pred != nil {
			if predicted := s.pred.predict(va); predicted != m.Size {
				s.l14k.Lookup(mixKey(va, predicted))
				s.read(sL1Page)
				s.pred.noteMispredict()
				s.st.cycles += uint64(s.p.MispredictPenaltyCycles)
			}
			s.pred.update(va, m.Size)
		}
		pageHit, pageHitSize = s.probeL1(sL1Page, s.l14k, mixKey(va, m.Size), m.Size, 0), m.Size
	} else {
		if s.probeL1(sL1Page, s.l14k, addr.VPN(va, addr.Page4K), addr.Page4K, 0) {
			pageHit, pageHitSize = true, addr.Page4K
		}
		if s.l12m != nil && s.l12mEnabled && s.probeL1(sL12M, s.l12m, addr.VPN(va, addr.Page2M), addr.Page2M, s.lite2mIdx) {
			pageHit, pageHitSize = true, addr.Page2M
		}
		if s.l11g != nil && s.l11gEnabled && s.probeL1(sL11G, s.l11g, addr.VPN(va, addr.Page1G), addr.Page1G, s.lite1gIdx) {
			pageHit, pageHitSize = true, addr.Page1G
		}
	}
	rangeHit := false
	var hitRange rmm.Range
	if s.l1rng != nil {
		re, rh := s.l1rng.Lookup(va)
		s.read(sL1Range)
		rangeHit = rh
		if rh {
			hitRange = re
			if s.aud != nil {
				s.aud.RecordRangeHit(re)
			}
		}
	}

	switch {
	case rangeHit:
		s.st.hitsRange++
		s.traceRangeHit(uint64(hitRange.Start), uint64(hitRange.End))
	case pageHit && pageHitSize == addr.Page1G:
		s.st.hits1G++
	case pageHit && pageHitSize == addr.Page2M:
		s.st.hits2M++
	case pageHit:
		s.st.hits4K++
	default:
		s.missPath(va, m)
	}

	if s.ctl != nil {
		s.ctl.AddInstructions(instrs)
	}
	if s.p.SeriesIntervalInstrs > 0 {
		s.st.intInstrs += instrs
		for s.st.intInstrs >= s.p.SeriesIntervalInstrs {
			s.st.intInstrs -= s.p.SeriesIntervalInstrs
			s.st.series.Append(float64(s.st.intL1Misses) * 1000 / float64(s.p.SeriesIntervalInstrs))
			s.st.intL1Misses = 0
			intRefs := s.st.memRefs - s.st.intRefMark
			perRef := 0.0
			if intRefs > 0 {
				perRef = (s.st.shadowPJ - s.st.intPJMark) / float64(intRefs)
			}
			s.st.seriesEnergy.Append(perRef)
			s.st.seriesWays.Append(float64(s.l14k.ActiveWays()))
			s.st.intRefMark = s.st.memRefs
			s.st.intPJMark = s.st.shadowPJ
		}
	}
	if s.aud != nil {
		s.aud.EndAccess(&s.st.energy, s.st.shadowPJ)
	}
}

// probeL1 looks key up in L1 page TLB id (t), charging the read. A hit,
// of a page of size sz, is reported to the auditor and, under Lite, to
// the controller as monitored TLB liteIdx.
func (s *Simulator) probeL1(id structID, t *tlb.SetAssoc, key uint64, sz addr.PageSize, liteIdx int) bool {
	e, pos, hit := t.Lookup(key)
	s.read(id)
	if hit {
		if s.aud != nil {
			s.aud.RecordPageHit(structs[id].name, e, sz)
		}
		if s.ctl != nil {
			s.ctl.RecordHit(liteIdx, pos)
		}
	}
	return hit
}

// missPath handles an access that missed in all L1 structures.
func (s *Simulator) missPath(va addr.VA, m pagetable.Mapping) {
	s.st.l1Misses++
	s.st.intL1Misses++
	s.traceMiss(uint64(va))
	s.st.cycles += uint64(s.p.L2LatencyCycles)
	if s.ctl != nil {
		s.ctl.RecordMiss()
	}

	// --- L2 probes: page and range TLBs in parallel ---
	l2e, _, l2PageHit := s.l2.Lookup(mixKey(va, m.Size))
	s.read(sL2Page)
	if l2PageHit && s.aud != nil {
		s.aud.RecordPageHit(energy.L2Page, l2e, m.Size)
	}
	var l2RangeEnt rmm.Range
	l2RangeHit := false
	if s.l2rng != nil {
		l2RangeEnt, l2RangeHit = s.l2rng.Lookup(va)
		s.read(sL2Range)
		if l2RangeHit && s.aud != nil {
			s.aud.RecordRangeHit(l2RangeEnt)
		}
	}

	switch {
	case l2PageHit:
		s.fillL1Page(va, m)
		if l2RangeHit {
			s.fillL1Range(l2RangeEnt)
		}
	case l2RangeHit:
		// The hit range translation is copied to the L1-range TLB, and
		// the corresponding page table entry to the L1-page TLBs as in
		// RMM (§4.3).
		s.fillL1Range(l2RangeEnt)
		s.fillL1Page(va, m)
	default:
		s.walkPath(va, m)
	}
}

// walkPath handles an L2 TLB miss: the hardware page walk, MMU-cache
// interaction, refills, and RMM's background range-table walk.
func (s *Simulator) walkPath(va addr.VA, m pagetable.Mapping) {
	s.st.l2Misses++
	s.st.cycles += uint64(s.p.WalkLatencyCycles)

	// All three paging-structure caches are probed in parallel.
	start := s.mmu.Probe(va)
	for i := range s.mmu.Structures() {
		s.read(sPDE + structID(i))
	}

	wm, refs, ok := s.walk.Walk(va, start)
	if !ok {
		panic(fmt.Sprintf("core: page walk fault at %#x", uint64(va)))
	}
	s.st.walkRefs += uint64(refs)
	s.traceWalk(uint64(va), refs, wm.Size.String())
	s.walkRefs(energy.AccPageWalk, refs)
	if s.aud != nil {
		s.aud.RecordWalkResult(wm)
	}

	// Fill the paging-structure caches with the non-leaf entries the
	// walk read, charging a write per structure actually filled.
	var fillsBefore [3]uint64
	for i, st := range s.mmu.Structures() {
		fillsBefore[i] = st.Stats().Fills
	}
	s.mmu.Fill(va, leafLevelOf(wm.Size))
	for i, st := range s.mmu.Structures() {
		if st.Stats().Fills > fillsBefore[i] {
			s.fill(sPDE + structID(i))
		}
	}

	// Refill L2 and L1 page TLBs.
	s.l2.Insert(tlb.Entry{Key: mixKey(va, wm.Size), Frame: uint64(wm.Frame)})
	s.fill(sL2Page)
	s.fillL1Page(va, wm)

	// RMM: background range-table walk — no cycles, only energy (§5).
	if s.rt != nil {
		r, rrefs, found := s.rt.Walk(va)
		s.walkRefs(energy.AccRangeWalk, rrefs)
		if found {
			if err := s.l2rng.Insert(r); err != nil {
				panic(fmt.Sprintf("core: range table produced a bad range: %v", err))
			}
			s.fill(sL2Range)
			s.fillL1Range(r)
		}
	}
}

// fillL1Page inserts the page translation into the L1 page TLB matching
// its size and charges the write. A huge-page fill also lifts that
// TLB's §3.1 disable mask.
func (s *Simulator) fillL1Page(va addr.VA, m pagetable.Mapping) {
	if s.p.mixedL1() {
		s.l14k.Insert(tlb.Entry{Key: mixKey(va, m.Size), Frame: uint64(m.Frame)})
		s.fill(sL1Page)
		return
	}
	t, id := s.l14k, sL1Page
	switch m.Size {
	case addr.Page2M:
		t, id, s.l12mEnabled = s.l12m, sL12M, true
	case addr.Page1G:
		t, id, s.l11gEnabled = s.l11g, sL11G, true
	}
	if t == nil {
		panic(fmt.Sprintf("core: %v mapping at %#x but configuration %v has no %s — address-space policy mismatch",
			m.Size, uint64(va), s.p.Kind, structs[id].name))
	}
	t.Insert(tlb.Entry{Key: addr.VPN(va, m.Size), Frame: uint64(m.Frame)})
	s.fill(id)
}

// fillL1Range inserts a range translation into the L1-range TLB when the
// configuration has one.
func (s *Simulator) fillL1Range(r rmm.Range) {
	if s.l1rng == nil {
		return
	}
	if err := s.l1rng.Insert(r); err != nil {
		panic(fmt.Sprintf("core: range table produced a bad range: %v", err))
	}
	s.fill(sL1Range)
}

// Run drives the simulator with references from src — a workload
// generator or a recorded-trace replay — until at least instrBudget
// instructions have executed, then returns the results.
func (s *Simulator) Run(src trace.RefSource, instrBudget uint64) Result {
	res, _ := s.RunContext(context.Background(), src, instrBudget)
	return res
}

// cancelCheckRefs is how many references RunContext simulates between
// cancellation checks: frequent enough that a cell responds to a cancel
// or deadline within microseconds, rare enough to stay invisible in the
// hot loop.
const cancelCheckRefs = 1 << 14

// RunContext is Run with cooperative cancellation: every few thousand
// references it polls ctx and, when the context is cancelled or its
// deadline passes, stops and returns the partial Result together with
// the context's error. The experiment harness uses this for per-cell
// deadlines and suite-wide interrupt handling.
//
// When the run is audited (Params.Audit), RunContext polls the auditor
// on the same cadence, runs one final structural audit after the budget
// is reached, and returns the first audit.ViolationError with the
// partial Result — surfacing silent corruption the same way a panic or
// deadline surfaces, as a typed cell error in the harness.
func (s *Simulator) RunContext(ctx context.Context, src trace.RefSource, instrBudget uint64) (Result, error) {
	if t := s.tele; t != nil && t.m != nil {
		t.m.simsActive.Add(1)
		defer t.m.simsActive.Add(-1)
	}
	done := ctx.Done()
	for n := 0; s.st.instructions < instrBudget; n++ {
		if n&(cancelCheckRefs-1) == 0 {
			// Telemetry rides the cancellation cadence: a live /metrics
			// scrape sees counters at most 16 Ki references stale.
			s.flushTelemetry()
			if done != nil {
				select {
				case <-done:
					return s.Result(), ctx.Err()
				default:
				}
			}
			if s.aud != nil {
				if err := s.aud.Err(); err != nil {
					return s.Result(), err
				}
			}
		}
		r := src.Next()
		s.Access(r.VA, r.Instrs)
	}
	if s.aud != nil {
		s.aud.AuditNow(&s.st.energy, s.st.shadowPJ)
		if err := s.aud.Err(); err != nil {
			return s.Result(), err
		}
	}
	return s.Result(), nil
}

// AuditErr runs an immediate structural audit when the integrity layer
// is attached and returns the first violation recorded so far, or nil.
// Tests and callers that drive Access/InvalidateRegion directly use it
// to check integrity without going through RunContext.
func (s *Simulator) AuditErr() error {
	if s.aud == nil {
		return nil
	}
	s.aud.AuditNow(&s.st.energy, s.st.shadowPJ)
	return s.aud.Err()
}

// AuditStats returns the integrity layer's activity counters (zero when
// auditing is disabled).
func (s *Simulator) AuditStats() audit.Stats {
	if s.aud == nil {
		return audit.Stats{}
	}
	return s.aud.Stats()
}

// InvalidateRegion models an OS-initiated TLB shootdown for the virtual
// range [start, end): after the OS changes mappings (munmap, huge-page
// demotion under memory pressure), stale translations must leave the
// hardware. Small ranges are invalidated entry by entry (INVLPG-style);
// ranges wider than shootdownFlushPages pages use a full flush of the
// translation structures, as operating systems do to bound shootdown
// latency. Range TLBs drop overlapping ranges either way, and the
// paging-structure caches are flushed conservatively.
func (s *Simulator) InvalidateRegion(start, end addr.VA) {
	if end <= start {
		return
	}
	s.st.shootdowns++
	// An armed drop-inval fault makes this shootdown skip one structure
	// (identified by its energy-database name), leaving stale entries
	// the coherence audit must then catch.
	drop := s.dropInval
	s.dropInval = ""
	const shootdownFlushPages = 512
	pages := uint64(end-start) >> addr.Shift4K
	s.traceShootdown(uint64(start), uint64(end), pages > shootdownFlushPages)
	if pages > shootdownFlushPages {
		if drop != energy.L14KB {
			s.l14k.Flush()
		}
		if s.l12m != nil && drop != energy.L12MB {
			s.l12m.Flush()
		}
		if s.l11g != nil && drop != energy.L11GB {
			s.l11g.Flush()
		}
		if drop != energy.L2Page {
			s.l2.Flush()
		}
	} else {
		in4K := func(e tlb.Entry) bool {
			va := addr.VA(e.Key << addr.Shift4K)
			return va >= addr.PageBase(start, addr.Page4K) && va < end
		}
		inMixed := func(e tlb.Entry) bool {
			sz := addr.PageSize(e.Key >> 60)
			va := addr.VA((e.Key & (1<<60 - 1)) << sz.Shift())
			return va+addr.VA(sz.Bytes()) > start && va < end
		}
		if s.p.mixedL1() {
			if drop != energy.L14KB {
				s.l14k.InvalidateIf(inMixed)
			}
		} else {
			if drop != energy.L14KB {
				s.l14k.InvalidateIf(in4K)
			}
			if s.l12m != nil && drop != energy.L12MB {
				s.l12m.InvalidateIf(func(e tlb.Entry) bool {
					va := addr.VA(e.Key << addr.Shift2M)
					return va+addr.VA(addr.Bytes2M) > start && va < end
				})
			}
			if s.l11g != nil && drop != energy.L11GB {
				s.l11g.InvalidateIf(func(e tlb.Entry) bool {
					va := addr.VA(e.Key << addr.Shift1G)
					return va+addr.VA(addr.Bytes1G) > start && va < end
				})
			}
		}
		if drop != energy.L2Page {
			s.l2.InvalidateIf(inMixed)
		}
	}
	if s.l1rng != nil && drop != energy.L1Range {
		s.l1rng.InvalidateOverlapping(start, end)
	}
	if s.l2rng != nil && drop != energy.L2Range {
		s.l2rng.InvalidateOverlapping(start, end)
	}
	s.mmu.Flush()
	// A shootdown follows a mapping change — exactly when stale entries
	// would appear — so an attached auditor re-checks coherence now
	// rather than waiting for the periodic cadence.
	if s.aud != nil {
		s.aud.AuditNow(&s.st.energy, s.st.shadowPJ)
	}
}
