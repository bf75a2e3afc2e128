// Package physmem implements a buddy allocator over physical page
// frames.
//
// The allocator is the source of physical contiguity for the OS model in
// internal/vm: transparent huge pages need naturally aligned 2 MB blocks,
// and RMM's eager paging (Karakostas et al., ISCA 2015) asks for an
// arbitrarily large physically contiguous block per allocation request so
// that one range translation can map the whole region. A classic
// power-of-two buddy system provides both, with splitting on allocation
// and coalescing on free, so fragmentation behaviour is realistic rather
// than assumed away.
//
// Frame numbers are 4 KB-granular. Order k describes a block of 2^k
// contiguous frames aligned to 2^k frames (order 0 = 4 KB, order 9 =
// 2 MB, order 18 = 1 GB).
package physmem

import (
	"fmt"
	"math/bits"
	"sort"

	"xlate/internal/addr"
)

// FrameShift is the log2 of the allocation granule (one 4 KB frame).
const FrameShift = addr.Shift4K

// MaxOrder is the largest supported block order: 2^24 frames = 64 GB.
const MaxOrder = 24

// Allocator is a buddy allocator over a contiguous physical frame range
// [0, frames). The zero value is not usable; use New.
//
// Block state lives in two bitmaps per order, both indexed by
// base>>order: free[k] marks the free blocks of order k and head[k]
// the allocated blocks of order k, so Free needs no size from the
// caller. Bitmap leaves are allocated on first use, so an allocator's
// memory follows the frames it has handed out, not the frames it
// manages.
type Allocator struct {
	frames uint64
	free   [MaxOrder + 1]bitmap
	head   [MaxOrder + 1]bitmap

	allocated uint64 // frames currently allocated
	peak      uint64 // high-water mark of allocated frames
}

// New returns an allocator managing the given number of 4 KB frames.
// The frame count is rounded down to a multiple of the largest block
// that fits, and the whole range is seeded as free blocks.
func New(frames uint64) *Allocator {
	a := &Allocator{frames: frames}
	for k := range a.free {
		a.free[k] = newBitmap(frames >> k)
		a.head[k] = newBitmap(frames >> k)
	}
	// Seed maximal aligned free blocks greedily from frame 0.
	base := uint64(0)
	for base < frames {
		k := MaxOrder
		for k > 0 && (base&blockMask(k) != 0 || base+blockFrames(k) > frames) {
			k--
		}
		a.free[k].set(base >> k)
		base += blockFrames(k)
	}
	return a
}

func blockFrames(order int) uint64 { return 1 << order }
func blockMask(order int) uint64   { return (1 << order) - 1 }

// OrderForBytes returns the smallest block order whose size covers the
// given byte length.
func OrderForBytes(bytes uint64) int {
	if bytes == 0 {
		return 0
	}
	frames := (bytes + (1 << FrameShift) - 1) >> FrameShift
	if frames == 1 {
		return 0
	}
	return bits.Len64(frames - 1)
}

// Alloc allocates one naturally aligned block of 2^order frames and
// returns its base physical address. It fails if no block of that order
// or larger is free. The block is the lowest-based free block of the
// smallest sufficient order, split down by freeing its upper buddies,
// so placement depends only on the sequence of calls.
func (a *Allocator) Alloc(order int) (addr.PA, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("physmem: invalid order %d", order)
	}
	k := order
	for k <= MaxOrder && a.free[k].count == 0 {
		k++
	}
	if k > MaxOrder {
		return 0, fmt.Errorf("physmem: out of memory for order-%d block (%d frames allocated of %d)",
			order, a.allocated, a.frames)
	}
	base := a.free[k].takeFirst() << k
	// Split down to the requested order, freeing the upper buddies.
	for k > order {
		k--
		a.free[k].set(base>>k | 1)
	}
	a.head[order].set(base >> order)
	a.allocated += blockFrames(order)
	if a.allocated > a.peak {
		a.peak = a.allocated
	}
	return addr.PA(base << FrameShift), nil
}

// Free releases a block previously returned by Alloc, coalescing with
// free buddies as far as possible. An address that is not the base of
// an allocated block (never allocated, already freed, inside a block,
// not frame-aligned, or beyond Frames) is an error.
func (a *Allocator) Free(pa addr.PA) error {
	base := uint64(pa) >> FrameShift
	if uint64(pa)&(1<<FrameShift-1) != 0 || base >= a.frames {
		return fmt.Errorf("physmem: free of %#x, not a frame below %#x", uint64(pa), a.frames<<FrameShift)
	}
	order := 0
	for !a.head[order].take(base >> order) {
		order++
		if order > MaxOrder || base&blockMask(order) != 0 {
			return fmt.Errorf("physmem: free of unallocated block at %#x", uint64(pa))
		}
	}
	a.allocated -= blockFrames(order)
	for order < MaxOrder && a.free[order].take(base>>order^1) {
		base &^= blockFrames(order)
		order++
	}
	a.free[order].set(base >> order)
	return nil
}

// Frames returns the total number of frames managed.
func (a *Allocator) Frames() uint64 { return a.frames }

// Allocated returns the number of frames currently allocated.
func (a *Allocator) Allocated() uint64 { return a.allocated }

// Peak returns the high-water mark of allocated frames.
func (a *Allocator) Peak() uint64 { return a.peak }

// FreeFrames returns the number of frames currently free.
func (a *Allocator) FreeFrames() uint64 { return a.frames - a.allocated }

// LargestFreeOrder returns the order of the largest free block, or -1 if
// memory is exhausted. The OS model uses this to decide whether a huge
// page or an eager range of a given size can be satisfied contiguously.
func (a *Allocator) LargestFreeOrder() int {
	for k := MaxOrder; k >= 0; k-- {
		if a.free[k].count > 0 {
			return k
		}
	}
	return -1
}

// CheckInvariants validates internal consistency: free and allocated
// blocks lie in range, cover no frame twice, match their bitmaps'
// counts and cursors, and the free + allocated frame counts add up.
// Intended for tests.
func (a *Allocator) CheckInvariants() error {
	type block struct {
		base  uint64
		order int
		free  bool
	}
	var blocks []block
	var freeFrames, allocFrames uint64
	scan := func(set *bitmap, k int, free bool) error {
		n := 0
		for i, ok := set.next(0); ok; i, ok = set.next(i + 1) {
			if n == 0 && i>>6 < set.low {
				return fmt.Errorf("order %d block %#x lies below the bitmap cursor", k, i<<k)
			}
			n++
			base := i << k
			if base+blockFrames(k) > a.frames {
				return fmt.Errorf("block %#x order %d out of range", base, k)
			}
			blocks = append(blocks, block{base, k, free})
			if free {
				freeFrames += blockFrames(k)
			} else {
				allocFrames += blockFrames(k)
			}
		}
		if n != set.count {
			return fmt.Errorf("order %d bitmap counts %d blocks, holds %d", k, set.count, n)
		}
		return nil
	}
	for k := range a.free {
		if err := scan(&a.free[k], k, true); err != nil {
			return err
		}
		if err := scan(&a.head[k], k, false); err != nil {
			return err
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].base < blocks[j].base })
	for i := 1; i < len(blocks); i++ {
		prev := blocks[i-1]
		if end := prev.base + blockFrames(prev.order); end > blocks[i].base {
			return fmt.Errorf("frame %#x covered twice (order-%d block at %#x, free=%v)",
				blocks[i].base, prev.order, prev.base, prev.free)
		}
	}
	if allocFrames != a.allocated {
		return fmt.Errorf("allocated count %d != sum of blocks %d", a.allocated, allocFrames)
	}
	if freeFrames+allocFrames != a.frames {
		return fmt.Errorf("free %d + allocated %d != total %d", freeFrames, allocFrames, a.frames)
	}
	return nil
}
