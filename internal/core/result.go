package core

import (
	"xlate/internal/audit"
	"xlate/internal/energy"
	"xlate/internal/stats"
	"xlate/internal/tlb"
)

// Result summarizes one simulation run: the counters of the performance
// model and the energy breakdown of Table 3's equations.
type Result struct {
	Config string

	Instructions uint64
	MemRefs      uint64
	L1Misses     uint64
	L2Misses     uint64
	WalkRefs     uint64

	// PageFaults counts demand-paging faults (replayed external traces
	// with Params.DemandPaging only).
	PageFaults uint64

	// CyclesTLBMiss is the cycles spent in L1 and L2 TLB misses
	// (Table 3: 7 per L1 miss + 50 per L2 miss; L1 hits are free).
	CyclesTLBMiss uint64

	// Energy is the dynamic-energy breakdown in picojoules.
	Energy energy.Breakdown

	// L1 hit attribution (Table 5 right half).
	Hits4K, Hits2M, Hits1G, HitsRange uint64

	// LiteLookupShare[tlbIdx][k] is the fraction of lookups TLB tlbIdx
	// performed with 2^k active ways (Table 5 left half); nil for
	// non-Lite configurations. Index 0 is the L1-4KB TLB; index 1, when
	// present, the L1-2MB TLB.
	LiteLookupShare [][]float64

	// IntervalL1MPKI is the per-interval L1 MPKI series (Figure 4);
	// empty unless Params.SeriesIntervalInstrs was set.
	IntervalL1MPKI stats.Series

	// IntervalEnergyPerRefPJ and IntervalLiteWays extend the Figure 4
	// drill-down: dynamic energy per access and L1-4KB active ways,
	// sampled on the same interval boundaries. Empty unless
	// Params.SeriesIntervalInstrs was set.
	IntervalEnergyPerRefPJ stats.Series
	IntervalLiteWays       stats.Series

	// LiteResizes / LiteReactivations count controller actions.
	LiteResizes       uint64
	LiteReactivations uint64

	// MispredictRate is the page-size predictor's misprediction rate
	// (TLB_Pred / Combined extension configurations only; 0 otherwise).
	MispredictRate float64

	// Audit summarizes the integrity layer's activity (zero when
	// Params.Audit was disabled). It is diagnostic metadata: rendered
	// tables ignore it, so audited and unaudited runs stay
	// byte-identical.
	Audit audit.Stats
}

// L1MPKI returns L1 TLB misses per thousand instructions.
func (r Result) L1MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.L1Misses) * 1000 / float64(r.Instructions)
}

// L2MPKI returns L2 TLB misses per thousand instructions.
func (r Result) L2MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.L2Misses) * 1000 / float64(r.Instructions)
}

// L1Hits returns the total L1 TLB hits.
func (r Result) L1Hits() uint64 { return r.Hits4K + r.Hits2M + r.Hits1G + r.HitsRange }

// EnergyPJ returns the total dynamic energy in picojoules.
func (r Result) EnergyPJ() float64 { return r.Energy.Total() }

// EnergyPerRefPJ returns the dynamic energy per memory reference.
func (r Result) EnergyPerRefPJ() float64 {
	if r.MemRefs == 0 {
		return 0
	}
	return r.Energy.Total() / float64(r.MemRefs)
}

// MissCycleFraction returns the fraction of (approximate) total
// execution cycles spent in TLB misses, assuming one cycle per
// instruction otherwise — the quantity behind the paper's "cycles spent
// in TLB misses" percentages.
func (r Result) MissCycleFraction() float64 {
	total := float64(r.Instructions + r.CyclesTLBMiss)
	if total == 0 {
		return 0
	}
	return float64(r.CyclesTLBMiss) / total
}

// Result snapshots the current run statistics.
func (s *Simulator) Result() Result {
	r := Result{
		Config:        s.p.Kind.String(),
		Instructions:  s.st.instructions,
		MemRefs:       s.st.memRefs,
		L1Misses:      s.st.l1Misses,
		L2Misses:      s.st.l2Misses,
		WalkRefs:      s.st.walkRefs,
		PageFaults:    s.st.pageFaults,
		CyclesTLBMiss: s.st.cycles,
		Energy:        s.st.energy,
		Hits4K:        s.st.hits4K,
		Hits2M:        s.st.hits2M,
		Hits1G:        s.st.hits1G,
		HitsRange:     s.st.hitsRange,
		IntervalL1MPKI: stats.Series{
			Name:   s.st.series.Name,
			Points: append([]float64(nil), s.st.series.Points...),
		},
		IntervalEnergyPerRefPJ: stats.Series{
			Name:   s.st.seriesEnergy.Name,
			Points: append([]float64(nil), s.st.seriesEnergy.Points...),
		},
		IntervalLiteWays: stats.Series{
			Name:   s.st.seriesWays.Name,
			Points: append([]float64(nil), s.st.seriesWays.Points...),
		},
	}
	// Result is every run's exit point, so flushing here guarantees the
	// registry's totals match the returned counters exactly.
	s.flushTelemetry()
	if s.ctl != nil {
		r.LiteLookupShare = append(r.LiteLookupShare, s.ctl.LookupShareAtWays(0))
		if s.lite2mIdx >= 0 {
			r.LiteLookupShare = append(r.LiteLookupShare, s.ctl.LookupShareAtWays(s.lite2mIdx))
		}
		if s.lite1gIdx >= 0 {
			r.LiteLookupShare = append(r.LiteLookupShare, s.ctl.LookupShareAtWays(s.lite1gIdx))
		}
		r.LiteResizes = s.ctl.Resizes()
		r.LiteReactivations = s.ctl.Reactivations()
	}
	if s.pred != nil {
		r.MispredictRate = s.pred.MispredictRate()
	}
	if s.aud != nil {
		r.Audit = s.aud.Stats()
	}
	return r
}

// StructureStats returns the raw event counters of every structure in
// the hierarchy, keyed by structure name. Intended for tests and
// debugging output.
func (s *Simulator) StructureStats() map[string]tlb.Stats {
	out := make(map[string]tlb.Stats)
	for id, st := range s.structures() {
		if st != nil {
			out[structs[id].name] = st.Stats()
		}
	}
	return out
}

// structures returns the hierarchy's structures indexed by structID,
// nil where the configuration lacks one.
func (s *Simulator) structures() [numStructs]interface{ Stats() tlb.Stats } {
	mmu := s.mmu.Structures()
	out := [numStructs]interface{ Stats() tlb.Stats }{
		sL1Page: s.l14k, sL2Page: s.l2, sPDE: mmu[0], sPDPTE: mmu[1], sPML4: mmu[2],
	}
	// Assigned only when present: a nil pointer would make a non-nil
	// interface.
	if s.l12m != nil {
		out[sL12M] = s.l12m
	}
	if s.l11g != nil {
		out[sL11G] = s.l11g
	}
	if s.l1rng != nil {
		out[sL1Range] = s.l1rng
	}
	if s.l2rng != nil {
		out[sL2Range] = s.l2rng
	}
	return out
}
