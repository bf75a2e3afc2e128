package physmem

import (
	"runtime"
	"testing"
)

// BenchmarkAlloc measures the address-space build pattern: a 64 GB
// allocator (vm.New's default) handing out 4 KB frames in a run, with
// a 2 MB block every 64 frames, then freeing them all.
func BenchmarkAlloc(b *testing.B) {
	const pages = 1 << 14
	b.ReportAllocs()
	for range b.N {
		a := New(1 << 24)
		for i := range pages {
			order := 0
			if i%64 == 63 {
				order = 9
			}
			if _, err := a.Alloc(order); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/alloc")
}

// TestAllocFreeAllocs pins the steady state: once the bitmap leaves a
// block touches exist, allocating and freeing it allocates nothing.
func TestAllocFreeAllocs(t *testing.T) {
	a := New(1 << 24)
	held, err := a.Alloc(0) // keeps the cycled frame from coalescing back to one block
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		pa, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Free(pa); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Alloc(0)+Free allocates %v times per run, want 0", n)
	}
	if err := a.Free(held); err != nil {
		t.Fatal(err)
	}
}

// TestNewHeapBytes pins what an address space pays for its allocator:
// a 64 GB allocator, with its first frame handed out, stays within
// 1 MiB of heap. Eager bitmaps for every order would take ~8 MiB.
func TestNewHeapBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a := New(1 << 24)
	if _, err := a.Alloc(0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("New(1<<24) plus one Alloc took %d heap bytes, want at most %d", got, 1<<20)
	}
	t.Logf("New(1<<24) plus one Alloc: %d heap bytes", after.TotalAlloc-before.TotalAlloc)
}
