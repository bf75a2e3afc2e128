package physmem

import (
	"math/rand"
	"testing"
)

// TestBitmapMatchesSet checks the lazily leafed bitmap against a plain
// boolean slice over a range of several leaves with a ragged last leaf,
// with indexes drawn from a few clusters so that whole leaves between
// them stay unallocated.
func TestBitmapMatchesSet(t *testing.T) {
	const n = 5*leafWords*64 + 1000
	rng := rand.New(rand.NewSource(3))
	b := newBitmap(n)
	in := make([]bool, n)
	count := 0
	lowest := func() int {
		for i, ok := range in {
			if ok {
				return i
			}
		}
		return -1
	}
	clusters := []uint64{0, 2*leafWords*64 + 77, n - 300}
	for step := 0; step < 20000; step++ {
		i := clusters[rng.Intn(len(clusters))] + uint64(rng.Intn(300))
		switch rng.Intn(4) {
		case 0, 1:
			if !in[i] {
				b.set(i)
				in[i] = true
				count++
			}
		case 2:
			if got := b.take(i); got != in[i] {
				t.Fatalf("step %d: take(%d) = %v, want %v", step, i, got, in[i])
			}
			if in[i] {
				in[i] = false
				count--
			}
		case 3:
			if count == 0 {
				continue
			}
			want := lowest()
			if got := b.takeFirst(); got != uint64(want) {
				t.Fatalf("step %d: takeFirst = %d, want %d", step, got, want)
			}
			in[want] = false
			count--
		}
		if b.count != count {
			t.Fatalf("step %d: count %d, want %d", step, b.count, count)
		}
	}
	if b.take(n) || b.take(1<<40) {
		t.Fatal("take beyond n reported a member")
	}
	var got []uint64
	for i, ok := b.next(0); ok; i, ok = b.next(i + 1) {
		got = append(got, i)
	}
	k := 0
	for i, ok := range in {
		if ok {
			if k >= len(got) || got[k] != uint64(i) {
				t.Fatalf("next walk diverges at member %d (index %d)", k, i)
			}
			k++
		}
	}
	if k != len(got) {
		t.Fatalf("next walk found %d members, want %d", len(got), k)
	}
	if b.leaves[1] != nil || b.leaves[3] != nil {
		t.Fatal("leaves with no member were allocated")
	}
	if last := b.leaves[len(b.leaves)-1]; len(last) != (n+63)/64-5*leafWords {
		t.Fatalf("last leaf has %d words, want %d", len(last), (n+63)/64-5*leafWords)
	}
}
