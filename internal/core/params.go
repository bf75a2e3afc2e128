// Package core wires the substrates — TLBs, MMU caches, page tables,
// range tables, the Lite controller, and the energy/performance models —
// into the per-core MMU simulator the paper's evaluation runs on, and
// defines the six simulated configurations of §5:
//
//	4KB      — 4 KB pages only (Figure 1 hierarchy minus huge-page TLBs)
//	THP      — transparent huge pages: parallel L1-4KB and L1-2MB TLBs
//	TLB_Lite — THP plus the Lite way-disabling mechanism
//	RMM      — THP plus a 32-entry L2-range TLB and eager paging
//	TLB_PP   — perfect TLB_Pred: one mixed-page-size TLB per level with a
//	           free, always-correct page-size predictor (upper bound)
//	RMM_Lite — 4 KB pages + range translations at both levels, a 4-entry
//	           L1-range TLB, and Lite on the L1-4KB TLB
package core

import (
	"fmt"

	"xlate/internal/audit"
	"xlate/internal/audit/inject"
	"xlate/internal/energy"
	"xlate/internal/lite"
	"xlate/internal/mmucache"
	"xlate/internal/telemetry"
	"xlate/internal/vm"
)

// ConfigKind selects one of the paper's simulated configurations.
type ConfigKind int

// The six configurations of §5, in the paper's presentation order.
const (
	Cfg4KB ConfigKind = iota
	CfgTHP
	CfgTLBLite
	CfgRMM
	CfgTLBPP
	CfgRMMLite
	// Extension configurations (not in the paper's evaluation; see
	// DESIGN.md): a realizable TLB_Pred with an actual page-size
	// predictor, and the combined design the paper suggests in §6.1 —
	// range translations + prediction-based mixed page TLBs + Lite.
	CfgTLBPred
	CfgCombined
	NumConfigs
)

// String returns the paper's name for the configuration.
func (k ConfigKind) String() string {
	switch k {
	case Cfg4KB:
		return "4KB"
	case CfgTHP:
		return "THP"
	case CfgTLBLite:
		return "TLB_Lite"
	case CfgRMM:
		return "RMM"
	case CfgTLBPP:
		return "TLB_PP"
	case CfgRMMLite:
		return "RMM_Lite"
	case CfgTLBPred:
		return "TLB_Pred"
	case CfgCombined:
		return "Combined"
	}
	return fmt.Sprintf("ConfigKind(%d)", int(k))
}

// AllConfigs lists the paper's six configurations in presentation order.
func AllConfigs() []ConfigKind {
	return []ConfigKind{Cfg4KB, CfgTHP, CfgTLBLite, CfgRMM, CfgTLBPP, CfgRMMLite}
}

// ExtendedConfigs lists the extension configurations built on top of the
// paper: the realizable TLB_Pred and the §6.1 combined design.
func ExtendedConfigs() []ConfigKind {
	return []ConfigKind{CfgTLBPred, CfgCombined}
}

// Params fully parameterizes a simulation. Zero fields are filled in by
// Defaults; construct with DefaultParams and override what an experiment
// sweeps.
type Params struct {
	Kind ConfigKind

	// L1 page-TLB geometry (Sandy Bridge, Table 1).
	L14KEntries int // 64
	L14KWays    int // 4
	L12MEntries int // 32
	L12MWays    int // 4

	// L2 page-TLB geometry.
	L2Entries int // 512
	L2Ways    int // 4

	// Range-TLB geometry.
	L2RangeEntries int // 32 (RMM, RMM_Lite)
	L1RangeEntries int // 4 (RMM_Lite)

	// Lite controller configuration; used by CfgTLBLite and CfgRMMLite.
	Lite lite.Config

	// MMU paging-structure cache geometry.
	MMU mmucache.Config

	// WalkL1HitRatio is the fraction of page-walk memory references that
	// hit in the L1 data cache (1.0 = the paper's optimistic default;
	// Figure 3 sweeps it down to 0).
	WalkL1HitRatio float64

	// Performance model latencies (Table 3).
	L2LatencyCycles   int // 7
	WalkLatencyCycles int // 50

	// SeriesIntervalInstrs is the sampling interval for the per-interval
	// L1 MPKI series (Figure 4). 0 disables series collection.
	SeriesIntervalInstrs uint64

	// DemandPaging lets the simulator fault unmapped addresses into the
	// address space on first touch instead of panicking — required when
	// replaying externally recorded traces whose layout the OS model
	// never saw. Page-fault handling is an OS event outside the paper's
	// translation energy scope; faults are counted but cost no cycles or
	// energy.
	DemandPaging bool

	// PredictorEntries sizes the page-size predictor of the TLB_Pred and
	// Combined extension configurations (power of two).
	PredictorEntries int
	// MispredictPenaltyCycles is the extra latency of a re-indexed probe
	// after a page-size misprediction.
	MispredictPenaltyCycles int

	// EnergyDB prices the structures. Defaults to energy.Table2().
	EnergyDB *energy.DB

	// Audit configures the runtime integrity layer (internal/audit):
	// a differential translation/energy oracle on sampled accesses plus
	// periodic structural audits. The zero value disables it; an enabled
	// audit changes no simulation outcome, only detects corruption.
	Audit audit.Config

	// Fault is a deterministic fault to inject (internal/audit/inject),
	// used to prove the audit layer detects each corruption class. The
	// zero value injects nothing.
	Fault inject.Fault

	// Metrics, when non-nil, attaches the simulator to a shared
	// telemetry registry (see core.NewMetrics): run statistics are
	// flushed as deltas on the RunContext cancellation-check cadence, so
	// the hot path is untouched and results stay byte-identical.
	// Excluded from harness cell keys — attaching telemetry never
	// changes what a cell computes.
	//eeat:keyexcluded
	Metrics *Metrics
	// Trace, when non-nil, receives sampled structured events (L1
	// misses, page walks, range hits, shootdowns, Lite decisions) with
	// access indices. Excluded from cell keys like Metrics.
	//eeat:keyexcluded
	Trace *telemetry.Tracer
}

// DefaultParams returns the paper's configuration for the given kind:
// Sandy Bridge TLB geometry, Table 2 energies, 1 M-instruction Lite
// intervals, ε = 12.5 % relative for TLB_Lite and 0.1 MPKI absolute for
// RMM_Lite, and the optimistic walk-locality assumption.
func DefaultParams(kind ConfigKind) Params {
	p := Params{
		Kind:              kind,
		L14KEntries:       64,
		L14KWays:          4,
		L12MEntries:       32,
		L12MWays:          4,
		L2Entries:         512,
		L2Ways:            4,
		L2RangeEntries:    32,
		L1RangeEntries:    4,
		MMU:               mmucache.DefaultConfig(),
		WalkL1HitRatio:    1.0,
		L2LatencyCycles:   7,
		WalkLatencyCycles: 50,
		EnergyDB:          energy.Table2(),

		PredictorEntries:        512,
		MispredictPenaltyCycles: 1,
	}
	p.Lite = lite.DefaultConfig()
	if kind == CfgRMMLite || kind == CfgCombined {
		p.Lite.Epsilon = lite.AbsoluteThreshold(0.1)
	}
	return p
}

// hasL12M reports whether the configuration includes a separate L1-2MB
// TLB.
func (p Params) hasL12M() bool {
	switch p.Kind {
	case CfgTHP, CfgTLBLite, CfgRMM:
		return true
	}
	return false
}

// hasLite reports whether the Lite controller is active.
func (p Params) hasLite() bool {
	return p.Kind == CfgTLBLite || p.Kind == CfgRMMLite || p.Kind == CfgCombined
}

// hasL2Range reports whether an L2-range TLB is present.
func (p Params) hasL2Range() bool {
	return p.Kind == CfgRMM || p.Kind == CfgRMMLite || p.Kind == CfgCombined
}

// hasL1Range reports whether an L1-range TLB is present.
func (p Params) hasL1Range() bool { return p.Kind == CfgRMMLite || p.Kind == CfgCombined }

// mixedL1 reports whether the L1 (and L2) page TLBs hold multiple page
// sizes in one structure (TLB_PP and the predictor-based extensions).
func (p Params) mixedL1() bool {
	return p.Kind == CfgTLBPP || p.Kind == CfgTLBPred || p.Kind == CfgCombined
}

// hasPredictor reports whether a real (fallible) page-size predictor
// selects the mixed TLB's index.
func (p Params) hasPredictor() bool { return p.Kind == CfgTLBPred || p.Kind == CfgCombined }

// PolicyFor returns the OS memory policy matching a configuration:
// 4KB runs without huge pages; THP-based configurations use transparent
// huge pages at the workload's achievable coverage; RMM adds eager
// paging; RMM_Lite uses eager paging with plain 4 KB pages (§5 config
// vi: "4 KB pages and range translations in both L1 and L2 TLBs").
func PolicyFor(kind ConfigKind, thpCoverage float64) vm.Policy {
	switch kind {
	case Cfg4KB:
		return vm.Policy{}
	case CfgTHP, CfgTLBLite, CfgTLBPP:
		return vm.Policy{THP: true, THPCoverage: thpCoverage}
	case CfgRMM:
		return vm.Policy{THP: true, THPCoverage: thpCoverage, EagerPaging: true}
	case CfgRMMLite:
		return vm.Policy{EagerPaging: true}
	case CfgTLBPred:
		return vm.Policy{THP: true, THPCoverage: thpCoverage}
	case CfgCombined:
		return vm.Policy{THP: true, THPCoverage: thpCoverage, EagerPaging: true}
	}
	panic(fmt.Sprintf("core: unknown config kind %d", int(kind)))
}

// CheckPolicy refuses, with ErrInvalidParams, a policy granting a page
// size p has no L1 TLB for: THP's 2 MB pages need an L1-2MB TLB or a
// mixed-size L1. Every hierarchy holds 1 GB pages.
func (p Params) CheckPolicy(pol vm.Policy) error {
	if pol.THP && !p.hasL12M() && !p.mixedL1() {
		return fmt.Errorf("core: %w: %v has no L1 TLB for the 2MB pages a THP policy grants", ErrInvalidParams, p.Kind)
	}
	return nil
}

// Validate checks the parameters for consistency. Every failure wraps
// ErrInvalidParams, so API users can classify with errors.Is.
func (p Params) Validate() error {
	if p.Kind < 0 || p.Kind >= NumConfigs {
		return fmt.Errorf("core: %w: invalid config kind %d", ErrInvalidParams, int(p.Kind))
	}
	if p.L14KEntries <= 0 || p.L14KWays <= 0 || p.L14KEntries%p.L14KWays != 0 {
		return fmt.Errorf("core: %w: bad L1-4KB geometry %d/%d", ErrInvalidParams, p.L14KEntries, p.L14KWays)
	}
	if p.hasL12M() && (p.L12MEntries <= 0 || p.L12MWays <= 0 || p.L12MEntries%p.L12MWays != 0) {
		return fmt.Errorf("core: %w: bad L1-2MB geometry %d/%d", ErrInvalidParams, p.L12MEntries, p.L12MWays)
	}
	if p.L2Entries <= 0 || p.L2Ways <= 0 || p.L2Entries%p.L2Ways != 0 {
		return fmt.Errorf("core: %w: bad L2 geometry %d/%d", ErrInvalidParams, p.L2Entries, p.L2Ways)
	}
	if p.hasL2Range() && p.L2RangeEntries <= 0 {
		return fmt.Errorf("core: %w: bad L2-range capacity %d", ErrInvalidParams, p.L2RangeEntries)
	}
	if p.hasL1Range() && p.L1RangeEntries <= 0 {
		return fmt.Errorf("core: %w: bad L1-range capacity %d", ErrInvalidParams, p.L1RangeEntries)
	}
	if p.WalkL1HitRatio < 0 || p.WalkL1HitRatio > 1 {
		return fmt.Errorf("core: %w: walk L1 hit ratio %v outside [0,1]", ErrInvalidParams, p.WalkL1HitRatio)
	}
	if p.L2LatencyCycles < 0 || p.WalkLatencyCycles < 0 {
		return fmt.Errorf("core: %w: negative latency", ErrInvalidParams)
	}
	if p.EnergyDB == nil {
		return fmt.Errorf("core: %w: nil energy database", ErrInvalidParams)
	}
	if err := p.MMU.Validate(); err != nil {
		return fmt.Errorf("core: %w: %v", ErrInvalidParams, err)
	}
	if p.hasLite() {
		if err := p.Lite.Validate(); err != nil {
			return fmt.Errorf("core: %w: %v", ErrInvalidParams, err)
		}
		// Lite's LRU-distance monitors bucket ways in powers of two
		// (Figure 6); non-power-of-two associativity would panic deep in
		// internal/lite at controller construction.
		if p.L14KWays&(p.L14KWays-1) != 0 {
			return fmt.Errorf("core: %w: Lite requires power-of-two L1-4KB associativity, got %d",
				ErrInvalidParams, p.L14KWays)
		}
		if p.hasL12M() && p.L12MWays&(p.L12MWays-1) != 0 {
			return fmt.Errorf("core: %w: Lite requires power-of-two L1-2MB associativity, got %d",
				ErrInvalidParams, p.L12MWays)
		}
	}
	if p.hasPredictor() {
		if p.PredictorEntries <= 0 || p.PredictorEntries&(p.PredictorEntries-1) != 0 {
			return fmt.Errorf("core: %w: predictor entries %d must be a positive power of two", ErrInvalidParams, p.PredictorEntries)
		}
		if p.MispredictPenaltyCycles < 0 {
			return fmt.Errorf("core: %w: negative mispredict penalty", ErrInvalidParams)
		}
	}
	if err := p.Fault.Validate(); err != nil {
		return fmt.Errorf("core: %w: %v", ErrInvalidParams, err)
	}
	_, err := p.resolveCosts()
	return err
}
