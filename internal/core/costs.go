package core

import (
	"fmt"

	"xlate/internal/energy"
)

// structID numbers the structures the simulator charges. The three
// paging-structure caches are consecutive and in mmucache.Structures
// order (PDE, PDPTE, PML4), so a walk charges them by offset from sPDE.
type structID uint8

const (
	sL1Page  structID = iota // L1-4KB TLB, or the mixed L1 under TLB_PP
	sL12M                    // L1-2MB TLB
	sL11G                    // L1-1GB TLB
	sL1Range                 // L1-range TLB
	sL2Page                  // unified L2 page TLB
	sL2Range                 // L2-range TLB
	sPDE                     // MMU caches
	sPDPTE
	sPML4
	numStructs
)

// structs gives each charged structure its energy-database name and the
// breakdown account its probes and fills are charged to.
var structs = [numStructs]struct {
	name string
	acc  energy.Account
}{
	{energy.L14KB, energy.AccL1Page4K},
	{energy.L12MB, energy.AccL1Page2M},
	{energy.L11GB, energy.AccL1Page1G},
	{energy.L1Range, energy.AccL1Range},
	{energy.L2Page, energy.AccL2Page},
	{energy.L2Range, energy.AccL2Range},
	{energy.PDE, energy.AccMMUCache},
	{energy.PDPTE, energy.AccMMUCache},
	{energy.PML4, energy.AccMMUCache},
}

// l11gEntries sizes the fully associative L1-1GB TLB.
const l11gEntries = 4

// costTable holds every price a simulator can charge: costs[id][ways]
// prices structure id at that many active ways. Rows of structures the
// configuration lacks are nil.
type costTable [numStructs][]energy.Cost

// resolveCosts looks up every (structure, ways) price a run under p can
// charge, plus the data-cache rows that price walk references. The L1
// page TLBs are priced at their associativity, and under Lite, which
// steps ways by powers of two, at every power of two below it; every
// other structure is priced at 0, the "no way-disabling" row. A missing
// row is ErrInvalidParams, so an incomplete database is refused before
// a run starts instead of panicking in the middle of one.
func (p Params) resolveCosts() (costTable, error) {
	// top is each structure's largest way count; -1 marks one the
	// configuration lacks.
	top := [numStructs]int{sL1Page: p.L14KWays, sL12M: -1, sL11G: l11gEntries, sL1Range: -1, sL2Range: -1}
	if p.hasL12M() {
		top[sL12M] = p.L12MWays
	}
	if p.mixedL1() {
		top[sL11G] = -1
	}
	if p.hasL1Range() {
		top[sL1Range] = 0
	}
	if p.hasL2Range() {
		top[sL2Range] = 0
	}
	var t costTable
	for id, ways := range top {
		if ways < 0 {
			continue
		}
		t[id] = make([]energy.Cost, ways+1)
		for w := ways; ; w /= 2 {
			c, ok := p.EnergyDB.Lookup(structs[id].name, w)
			if !ok {
				return t, fmt.Errorf("core: %w: energy database has no cost for %q at %d ways",
					ErrInvalidParams, structs[id].name, w)
			}
			t[id][w] = c
			if w <= 1 || !p.hasLite() {
				break
			}
		}
	}
	for _, name := range []string{energy.L1Cache, energy.L2Cache} {
		if _, ok := p.EnergyDB.Lookup(name, 0); !ok {
			return t, fmt.Errorf("core: %w: energy database has no cost for %q", ErrInvalidParams, name)
		}
	}
	return t, nil
}
