package physmem

// The map-based buddy allocator this package shipped before its free
// sets and block orders moved into bitmaps, kept verbatim (renamed) as
// the reference model for the differential tests in diff_test.go: the
// bitmap allocator must hand out the same frames in the same order.

import (
	"fmt"

	"xlate/internal/addr"
)

// refAllocator is a buddy allocator over a contiguous physical frame range
// [0, frames). The zero value is not usable; use newRef.
type refAllocator struct {
	frames uint64
	// free[k] holds the set of free block base frames of order k.
	// A map doubles as membership test for O(1) buddy coalescing.
	free [MaxOrder + 1]map[uint64]struct{}
	// orderOf records the order of every allocated block, keyed by base
	// frame, so Free does not need the caller to remember sizes.
	orderOf map[uint64]int

	allocated uint64 // frames currently allocated
	peak      uint64 // high-water mark of allocated frames
}

// newRef returns an allocator managing the given number of 4 KB frames.
// The frame count is rounded down to a multiple of the largest block
// that fits, and the whole range is seeded as free blocks.
func newRef(frames uint64) *refAllocator {
	a := &refAllocator{frames: frames, orderOf: make(map[uint64]int)}
	for k := range a.free {
		a.free[k] = make(map[uint64]struct{})
	}
	// Seed maximal aligned free blocks greedily from frame 0.
	base := uint64(0)
	for base < frames {
		k := MaxOrder
		for k > 0 && (base&blockMask(k) != 0 || base+blockFrames(k) > frames) {
			k--
		}
		if base+blockFrames(k) > frames {
			break // trailing fragment smaller than one frame cannot happen; k=0 fits
		}
		a.free[k][base] = struct{}{}
		base += blockFrames(k)
	}
	return a
}

// Alloc allocates one naturally aligned block of 2^order frames and
// returns its base physical address. It fails if no block of that order
// or larger is free.
func (a *refAllocator) Alloc(order int) (addr.PA, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("physmem: invalid order %d", order)
	}
	k := order
	for k <= MaxOrder && len(a.free[k]) == 0 {
		k++
	}
	if k > MaxOrder {
		return 0, fmt.Errorf("physmem: out of memory for order-%d block (%d frames allocated of %d)",
			order, a.allocated, a.frames)
	}
	// Pick the lowest-based free block of the order. Taking an arbitrary
	// map key here would make frame placement — and therefore physical
	// contiguity, range-table contents and energy totals — depend on
	// Go's randomized map iteration order.
	base := ^uint64(0)
	for b := range a.free[k] { //eeatlint:allow determinism min-reduction over the free set is iteration-order-insensitive
		if b < base {
			base = b
		}
	}
	delete(a.free[k], base)
	// Split down to the requested order, freeing the upper buddies.
	for k > order {
		k--
		a.free[k][base+blockFrames(k)] = struct{}{}
	}
	a.orderOf[base] = order
	a.allocated += blockFrames(order)
	if a.allocated > a.peak {
		a.peak = a.allocated
	}
	return addr.PA(base << FrameShift), nil
}

// Free releases a block previously returned by Alloc, coalescing with
// free buddies as far as possible.
func (a *refAllocator) Free(pa addr.PA) error {
	base := uint64(pa) >> FrameShift
	order, ok := a.orderOf[base]
	if !ok {
		return fmt.Errorf("physmem: free of unallocated block at %#x", uint64(pa))
	}
	delete(a.orderOf, base)
	a.allocated -= blockFrames(order)
	for order < MaxOrder {
		buddy := base ^ blockFrames(order)
		if _, free := a.free[order][buddy]; !free {
			break
		}
		delete(a.free[order], buddy)
		if buddy < base {
			base = buddy
		}
		order++
	}
	a.free[order][base] = struct{}{}
	return nil
}

func (a *refAllocator) Allocated() uint64  { return a.allocated }
func (a *refAllocator) Peak() uint64       { return a.peak }
func (a *refAllocator) FreeFrames() uint64 { return a.frames - a.allocated }

func (a *refAllocator) LargestFreeOrder() int {
	for k := MaxOrder; k >= 0; k-- {
		if len(a.free[k]) > 0 {
			return k
		}
	}
	return -1
}
