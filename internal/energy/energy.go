// Package energy implements the paper's dynamic-energy model (Table 3)
// over the Cacti-derived per-structure costs of Table 2.
//
// The model is: for every lookup structure,
//
//	E = A · E_read + M · E_write
//
// where A is the number of accesses (probes, hit or miss) and M the
// number of misses that cause a fill; plus the page-walk term
//
//	E_walks = Mem · E_read(L1 cache)
//
// where Mem is the number of page-table memory references. The paper's
// default optimistically assumes every walk reference hits in the L1
// data cache; Figure 3 sweeps that assumption, which this package
// supports through WalkRefCost.
//
// Costs are expressed in picojoules per operation and milliwatts of
// leakage, exactly as Table 2 reports them (32 nm process).
package energy

import (
	"fmt"
	"sort"
	"strings"
)

// Cost is the per-operation energy and leakage of one structure
// configuration.
type Cost struct {
	ReadPJ  float64 // dynamic energy per lookup, picojoules
	WritePJ float64 // dynamic energy per fill, picojoules
	LeakMW  float64 // leakage power, milliwatts
}

// Structure names. These are the keys of the Table 2 database and the
// identifiers the simulator uses when charging energy.
const (
	L14KB   = "L1-4KB TLB"
	L12MB   = "L1-2MB TLB"
	L11GB   = "L1-1GB TLB"
	L1Range = "L1-range TLB"
	L2Page  = "L2-4KB TLB"
	L2Range = "L2-range TLB"
	PDE     = "MMU-cache-PDE"
	PDPTE   = "MMU-cache-PDPTE"
	PML4    = "MMU-cache-PML4"
	L1Cache = "L1-Cache"
	L2Cache = "L2-Cache"
)

type key struct {
	name string
	ways int // active ways; 0 for structures without way-disabling
}

// DB maps (structure, active ways) to cost. The paper models a TLB with
// disabled ways as the equivalent smaller structure (§5): a 64-entry
// 4-way TLB running with 2 active ways costs what a 32-entry 2-way TLB
// costs.
type DB struct {
	m map[key]Cost
}

// Table2 returns a database populated with the paper's Table 2 values.
//
// Two entries are not in Table 2 and are synthesized (documented in
// DESIGN.md §1): the L1-1GB TLB (a 4-entry fully associative page TLB,
// estimated from the 4-entry L1-range TLB by removing the second bound
// comparison) and the L2 data cache (a 256 KB 8-way cache, needed only
// for Figure 3's walk-locality sweep; anchored by internal/cactimodel).
func Table2() *DB {
	db := &DB{m: make(map[key]Cost)}
	// L1-4KB TLB: 64e/4w, 32e/2w, 16e/1w.
	db.Register(L14KB, 4, Cost{5.865, 6.858, 0.3632})
	db.Register(L14KB, 2, Cost{1.881, 2.377, 0.1491})
	db.Register(L14KB, 1, Cost{0.697, 0.945, 0.0636})
	// L1-2MB TLB: 32e/4w, 16e/2w, 8e/1w.
	db.Register(L12MB, 4, Cost{4.801, 5.562, 0.1715})
	db.Register(L12MB, 2, Cost{1.536, 1.924, 0.0703})
	db.Register(L12MB, 1, Cost{0.568, 0.764, 0.0295})
	// L1-range TLB: 4 entries, fully associative, double-width tags.
	db.Register(L1Range, 0, Cost{1.806, 1.172, 0.1395})
	// L1-1GB TLB: 4 entries, fully associative (synthesized estimate:
	// L1-range with single-width comparison ≈ 2/3 of the search energy).
	// Way-disabled variants follow the CAM model's scaling so Lite can
	// resize this TLB too (§4.2.2 names all three L1-page TLBs).
	db.Register(L11GB, 0, Cost{1.204, 0.781, 0.0930})
	db.Register(L11GB, 4, Cost{1.204, 0.781, 0.0930})
	db.Register(L11GB, 2, Cost{0.742, 0.501, 0.0465})
	db.Register(L11GB, 1, Cost{0.457, 0.321, 0.0233})
	// L2 TLB: 512 entries, 4-way.
	db.Register(L2Page, 0, Cost{8.078, 12.379, 1.6663})
	// L2-range TLB: 32 entries, fully associative.
	db.Register(L2Range, 0, Cost{3.306, 1.568, 0.2401})
	// MMU paging-structure caches.
	db.Register(PDE, 0, Cost{1.824, 2.281, 0.1402})
	db.Register(PDPTE, 0, Cost{0.766, 0.279, 0.0500})
	db.Register(PML4, 0, Cost{0.473, 0.158, 0.0296})
	// L1 data cache: 32 KB, 8-way.
	db.Register(L1Cache, 0, Cost{174.171, 186.723, 13.3364})
	// L2 data cache: 256 KB, 8-way (synthesized; see package comment).
	db.Register(L2Cache, 0, Cost{495.0, 520.0, 90.0})
	return db
}

// Register installs (or overrides) the cost of a structure
// configuration. ways is the active way count, or 0 for structures
// without way-disabling.
func (db *DB) Register(name string, ways int, c Cost) {
	db.m[key{name, ways}] = c
}

// Cost returns the cost of the named structure at the given active way
// count. It panics if the configuration is unknown — callers price
// structures they know are registered; the simulator instead resolves
// its prices with Lookup at construction and refuses an incomplete
// database there.
func (db *DB) Cost(name string, ways int) Cost {
	if c, ok := db.m[key{name, ways}]; ok {
		return c
	}
	panic(fmt.Sprintf("energy: no cost registered for %q at %d ways", name, ways))
}

// Fingerprint returns a canonical string covering every registered
// cost, so two databases with the same contents fingerprint identically
// regardless of registration order or pointer identity. The harness
// folds this into its content-addressed cell keys: a Params value is
// identified by what its energy database says, not by which *DB it
// happens to point at.
func (db *DB) Fingerprint() string {
	entries := db.Entries()
	if len(entries) == 0 {
		return "energy:empty"
	}
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s/%d=%g,%g,%g;", e.Name, e.Ways, e.Cost.ReadPJ, e.Cost.WritePJ, e.Cost.LeakMW)
	}
	return b.String()
}

// Entry is one registered cost row in the canonical (name, ways)
// order — the serializable form of a DB. The cluster coordinator ships
// a cell's database to workers as entries and rebuilds it there with
// FromEntries; because Entries is canonically ordered, the rebuilt
// database fingerprints identically to the original, which is what
// keeps the content-addressed cell key stable across nodes.
type Entry struct {
	Name string `json:"name"`
	Ways int    `json:"ways"`
	Cost Cost   `json:"cost"`
}

// Entries returns every registered cost sorted by (name, ways).
func (db *DB) Entries() []Entry {
	if db == nil {
		return nil
	}
	keys := make([]key, 0, len(db.m))
	for k := range db.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].ways < keys[j].ways
	})
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		out = append(out, Entry{Name: k.name, Ways: k.ways, Cost: db.m[k]})
	}
	return out
}

// FromEntries rebuilds a DB from its serialized entries.
func FromEntries(entries []Entry) *DB {
	db := &DB{m: make(map[key]Cost, len(entries))}
	for _, e := range entries {
		db.Register(e.Name, e.Ways, e.Cost)
	}
	return db
}

// Lookup is the non-panicking variant of Cost.
func (db *DB) Lookup(name string, ways int) (Cost, bool) {
	c, ok := db.m[key{name, ways}]
	return c, ok
}

// WalkRefCost returns the energy of one page-walk memory reference given
// the probability that walk references hit in the L1 data cache
// (Figure 3's sweep parameter). A hit costs one L1 read; a miss costs
// the L1 probe plus an L2 read (the paper's Figure 3 assumes misses hit
// in the L2 cache).
func (db *DB) WalkRefCost(l1HitRatio float64) float64 {
	if l1HitRatio < 0 || l1HitRatio > 1 {
		panic(fmt.Sprintf("energy: walk L1 hit ratio %v outside [0,1]", l1HitRatio))
	}
	l1 := db.Cost(L1Cache, 0).ReadPJ
	l2 := db.Cost(L2Cache, 0).ReadPJ
	return l1HitRatio*l1 + (1-l1HitRatio)*(l1+l2)
}
