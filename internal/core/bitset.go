package core

import "math/bits"

// bitset is a fixed-size bit vector over 64-bit words, the slot-level
// storage of the optimized timing-diagram engine: one bit per time
// slot, so a row over a 2^21-slot horizon costs 256 KiB of dense cells
// in the reference engine but only 32 KiB here — and scanning,
// claiming and releasing slots all proceed a word at a time.
type bitset []uint64

// wordsFor returns the number of 64-bit words covering n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// setRange sets the bits [lo, hi).
func (b bitset) setRange(lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	lmask := ^uint64(0) << uint(lo&63)
	hmask := ^uint64(0) >> uint(63-(hi-1)&63)
	if lw == hw {
		b[lw] |= lmask & hmask
		return
	}
	b[lw] |= lmask
	for w := lw + 1; w < hw; w++ {
		b[w] = ^uint64(0)
	}
	b[hw] |= hmask
}

// orInto ORs b into dst; the slices must have equal length.
func (b bitset) orInto(dst bitset) {
	for i, w := range b {
		dst[i] |= w
	}
}

// lowestN returns x with all but its n lowest set bits cleared.
func lowestN(x uint64, n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= bits.OnesCount64(x) {
		return x
	}
	return x & (^uint64(0) >> uint(63-nthSet(x, n)))
}

// nthSet returns the 0-indexed position of the n-th (1-indexed) set
// bit of x. x must have at least n ≥ 1 set bits. The search halves the
// candidate range six times, 32 bits down to 1.
func nthSet(x uint64, n int) int {
	k, pos := uint64(n), uint64(0)
	x, k, pos = selectHalf(x, k, pos, 32)
	x, k, pos = selectHalf(x, k, pos, 16)
	x, k, pos = selectHalf(x, k, pos, 8)
	x, k, pos = selectHalf(x, k, pos, 4)
	x, k, pos = selectHalf(x, k, pos, 2)
	_, _, pos = selectHalf(x, k, pos, 1)
	return int(pos)
}

// selectHalf is one step of nthSet's search. When the low w bits of x
// hold fewer than k set bits, the k-th set bit lies above them: x
// drops them, k drops their count and pos advances by w. The step is
// branch-free — t is 1 exactly when the count is below k — because the
// outcome of each step is a coin flip the branch predictor would miss.
func selectHalf(x, k, pos, w uint64) (uint64, uint64, uint64) {
	c := uint64(bits.OnesCount64(x & (1<<w - 1)))
	t := (c - k) >> 63
	s := w & -t
	return x >> s, k - c&-t, pos + s
}
