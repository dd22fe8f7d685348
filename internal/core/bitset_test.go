package core

import (
	"math/bits"
	"math/rand"
	"testing"
)

// lowestNLoop and nthSetLoop are the bit-at-a-time kernels the
// popcount-guided searches replaced, kept as their oracles.
func lowestNLoop(x uint64, n int) uint64 {
	var out uint64
	for ; n > 0 && x != 0; n-- {
		out |= x & -x
		x &= x - 1
	}
	return out
}

func nthSetLoop(x uint64, n int) int {
	for ; n > 1; n-- {
		x &= x - 1
	}
	return bits.TrailingZeros64(x)
}

// kernelWords are random words of every density plus the edge cases:
// zero, all ones, single bits at both ends, alternating patterns and
// one half set.
func kernelWords(rng *rand.Rand) []uint64 {
	ws := []uint64{0, ^uint64(0), 1, 1 << 63, 1<<63 | 1, 0x5555555555555555,
		0xAAAAAAAAAAAAAAAA, 0x00000000FFFFFFFF, 0xFFFFFFFF00000000, 0x8000000080000000}
	for i := 0; i < 20000; i++ {
		x := rng.Uint64()
		switch i % 4 {
		case 1: // sparse
			x &= rng.Uint64() & rng.Uint64()
		case 2: // dense
			x |= rng.Uint64() | rng.Uint64()
		case 3: // a random run of ones
			lo, hi := rng.Intn(64), rng.Intn(65)
			if lo > hi {
				lo, hi = hi, lo
			}
			x = (^uint64(0) << uint(lo)) & (^uint64(0) >> uint(64-hi))
			if hi == 0 {
				x = 0
			}
		}
		ws = append(ws, x)
	}
	return ws
}

// TestLowestNMatchesBitLoop pins lowestN to the bit loop for every n
// from -1 to 65 — n = 0, n at and past the popcount, n = 64 — on
// random and edge-case words.
func TestLowestNMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, x := range kernelWords(rng) {
		for n := -1; n <= 65; n++ {
			if got, want := lowestN(x, n), lowestNLoop(x, n); got != want {
				t.Fatalf("lowestN(%#x, %d) = %#x, bit loop %#x", x, n, got, want)
			}
		}
	}
}

// TestNthSetMatchesBitLoop pins nthSet to the bit loop for every n
// its contract admits, 1 through the popcount — all 64 on the all-ones
// word.
func TestNthSetMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, x := range kernelWords(rng) {
		for n := 1; n <= bits.OnesCount64(x); n++ {
			if got, want := nthSet(x, n), nthSetLoop(x, n); got != want {
				t.Fatalf("nthSet(%#x, %d) = %d, bit loop %d", x, n, got, want)
			}
		}
	}
	if got := nthSet(^uint64(0), 64); got != 63 {
		t.Fatalf("nthSet(all ones, 64) = %d, want 63", got)
	}
}
