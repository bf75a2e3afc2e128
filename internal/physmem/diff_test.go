package physmem

import (
	"math/rand"
	"slices"
	"testing"

	"xlate/internal/addr"
)

// differential drives the bitmap Allocator and the map-based reference
// model (ref_test.go) through the same operations and fails on the
// first step where they disagree on the returned address, on success
// versus error, or on any of the counters the OS model reads.
type differential struct {
	t    testing.TB
	got  *Allocator
	want *refAllocator
	live []addr.PA
	step int
}

func newDifferential(t testing.TB, frames uint64) *differential {
	d := &differential{t: t, got: New(frames), want: newRef(frames)}
	d.compare("New")
	return d
}

func (d *differential) alloc(order int) {
	d.step++
	pa, err := d.got.Alloc(order)
	wpa, werr := d.want.Alloc(order)
	if (err == nil) != (werr == nil) || pa != wpa {
		d.t.Fatalf("step %d Alloc(%d) = %#x, %v; reference %#x, %v",
			d.step, order, uint64(pa), err, uint64(wpa), werr)
	}
	if err == nil {
		d.live = append(d.live, pa)
	}
	d.compare("Alloc")
}

// free releases pa, which need not be a live block: both allocators
// must then refuse it alike.
func (d *differential) free(pa addr.PA) {
	d.step++
	err, werr := d.got.Free(pa), d.want.Free(pa)
	if (err == nil) != (werr == nil) {
		d.t.Fatalf("step %d Free(%#x) = %v; reference %v", d.step, uint64(pa), err, werr)
	}
	if err == nil {
		d.live = slices.DeleteFunc(d.live, func(l addr.PA) bool { return l == pa })
	}
	d.compare("Free")
}

func (d *differential) compare(op string) {
	got, want := d.got, d.want
	if got.Allocated() != want.Allocated() || got.Peak() != want.Peak() ||
		got.FreeFrames() != want.FreeFrames() || got.LargestFreeOrder() != want.LargestFreeOrder() {
		d.t.Fatalf("step %d %s: allocated/peak/free/largest = %d/%d/%d/%d; reference %d/%d/%d/%d",
			d.step, op, got.Allocated(), got.Peak(), got.FreeFrames(), got.LargestFreeOrder(),
			want.Allocated(), want.Peak(), want.FreeFrames(), want.LargestFreeOrder())
	}
}

// drain frees every live block and checks the allocator ends empty and
// consistent.
func (d *differential) drain() {
	for len(d.live) > 0 {
		d.free(d.live[len(d.live)-1])
	}
	if err := d.got.CheckInvariants(); err != nil {
		d.t.Fatal(err)
	}
	if d.got.Allocated() != 0 {
		d.t.Fatalf("leak: %d frames", d.got.Allocated())
	}
}

// TestAllocMatchesReference runs seeded random Alloc/Free sequences over
// orders 0-12 on power-of-two and ragged frame counts small enough that
// out-of-memory is common, plus frees of addresses that are not live
// blocks.
func TestAllocMatchesReference(t *testing.T) {
	for _, frames := range []uint64{1 << 12, 1000, 3 << 12, 1<<14 + 72, 1<<17 + 72} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := newDifferential(t, frames)
			for i := 0; i < 3000; i++ {
				switch r := rng.Intn(10); {
				case r < 5:
					order := rng.Intn(4)
					if rng.Intn(2) == 0 {
						order = rng.Intn(13)
					}
					d.alloc(order)
				case r < 9 && len(d.live) > 0:
					d.free(d.live[rng.Intn(len(d.live))])
				default:
					// Any frame-aligned address, in range or not:
					// double frees, frames inside a block, past the end.
					d.free(addr.PA(rng.Uint64() % (frames + 64) << FrameShift))
				}
			}
			if err := d.got.CheckInvariants(); err != nil {
				t.Fatalf("frames %d seed %d: %v", frames, seed, err)
			}
			d.drain()
		}
	}
}

// TestFreeRefusesNonBlocks: addresses that are not the base of an
// allocated block come back as errors, never as a panic on a bitmap
// index, and leave the allocator untouched.
func TestFreeRefusesNonBlocks(t *testing.T) {
	// 1000 frames seed a top order-3 block at frame 992 whose buddy
	// lies past the end; Alloc(3) returns it.
	const frames = 1000
	cases := []struct {
		name  string
		pa    func(block addr.PA) addr.PA
		freed bool // free the block once before the refused Free
	}{
		{"beyond Frames", func(addr.PA) addr.PA { return frames << FrameShift }, false},
		{"far out of range", func(addr.PA) addr.PA { return 1 << 62 }, false},
		{"all ones", func(addr.PA) addr.PA { return ^addr.PA(0) }, false},
		{"sub-frame offset", func(b addr.PA) addr.PA { return b + 8 }, false},
		{"frame inside a block", func(b addr.PA) addr.PA { return b + 3<<FrameShift }, false},
		{"never allocated", func(addr.PA) addr.PA { return 0 }, false},
		{"same block twice", func(b addr.PA) addr.PA { return b }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := New(frames)
			block, err := a.Alloc(3)
			if err != nil || block != 992<<FrameShift {
				t.Fatalf("Alloc(3) = %#x, %v; want the top block at frame 992", uint64(block), err)
			}
			if c.freed {
				if err := a.Free(block); err != nil {
					t.Fatal(err)
				}
			}
			before, largest := a.Allocated(), a.LargestFreeOrder()
			if err := a.Free(c.pa(block)); err == nil {
				t.Fatalf("Free(%#x) succeeded", uint64(c.pa(block)))
			}
			if a.Allocated() != before || a.LargestFreeOrder() != largest {
				t.Fatal("a refused Free changed the allocator")
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
