package physmem

import "math/bits"

// A bitmap leaf is leafWords 64-bit words (4 KB), covering 32768 blocks
// of its order.
const (
	leafShift = 9
	leafWords = 1 << leafShift
	leafMask  = leafWords - 1
)

// bitmap is a set of block indexes in [0, n). Its words are grouped
// into leaves that are allocated on the first set, so a sparse set over
// a large range costs only its directory and the leaves it touches.
type bitmap struct {
	n      uint64
	leaves [][]uint64
	count  int    // indexes in the set
	low    uint64 // word cursor: every word below low is zero
}

func newBitmap(n uint64) bitmap {
	words := (n + 63) >> 6
	return bitmap{n: n, leaves: make([][]uint64, (words+leafMask)>>leafShift)}
}

// set adds i, which must be below n and not yet in the set.
func (b *bitmap) set(i uint64) {
	w := i >> 6
	leaf := b.leaves[w>>leafShift]
	if leaf == nil {
		leaf = make([]uint64, min((b.n+63)>>6-w&^leafMask, leafWords))
		b.leaves[w>>leafShift] = leaf
	}
	leaf[w&leafMask] |= 1 << (i & 63)
	b.count++
	b.low = min(b.low, w)
}

// take removes i and reports whether it was in the set. Indexes at or
// beyond n are never in the set.
func (b *bitmap) take(i uint64) bool {
	if i >= b.n {
		return false
	}
	leaf := b.leaves[i>>(6+leafShift)]
	if leaf == nil {
		return false
	}
	word, bit := &leaf[i>>6&leafMask], uint64(1)<<(i&63)
	if *word&bit == 0 {
		return false
	}
	*word &^= bit
	b.count--
	return true
}

// takeFirst removes and returns the lowest index in the set, which must
// not be empty. The scan starts at the cursor and moves it up, so
// repeated takes from a set that only shrinks visit each word once.
func (b *bitmap) takeFirst() uint64 {
	for w := b.low; ; w++ {
		leaf := b.leaves[w>>leafShift]
		if leaf == nil {
			w |= leafMask // the loop step moves w to the next leaf
			continue
		}
		if word := &leaf[w&leafMask]; *word != 0 {
			b.low = w
			i := w<<6 | uint64(bits.TrailingZeros64(*word))
			*word &= *word - 1
			b.count--
			return i
		}
	}
}

// next returns the lowest index at or above from in the set.
func (b *bitmap) next(from uint64) (uint64, bool) {
	for w := from >> 6; w<<6 < b.n; w++ {
		leaf := b.leaves[w>>leafShift]
		if leaf == nil {
			w |= leafMask
			continue
		}
		word := leaf[w&leafMask]
		if w == from>>6 {
			word &^= 1<<(from&63) - 1
		}
		if word != 0 {
			return w<<6 | uint64(bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
}
