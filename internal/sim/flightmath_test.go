package sim

import "testing"

// caStep advances a solo free-flowing message one cycle: a flit
// crosses link i when the message still has flits to send there, the
// next flit has already arrived, and a downstream buffer slot is free.
// All decisions read the start-of-cycle state, exactly like the
// kernel.
func caStep(cr []int, C, d int) {
	H := len(cr)
	prev := cr[0]
	for i := 0; i < H; i++ {
		cur := cr[i]
		ok := cur < C && (i == 0 || prev > cur) && (i == H-1 || cur-cr[i+1] < d)
		prev = cur
		if ok {
			cr[i]++
		}
	}
}

// consistentStates enumerates every kernel-reachable solo state shape:
// monotone non-increasing flit counts with adjacent differences
// bounded by the buffer depth.
func consistentStates(H, C, d int) [][]int {
	var out [][]int
	var rec func(prefix []int)
	rec = func(prefix []int) {
		if len(prefix) == H {
			st := make([]int, H)
			copy(st, prefix)
			out = append(out, st)
			return
		}
		hi := C
		lo := 0
		if len(prefix) > 0 {
			hi = prefix[len(prefix)-1]
			lo = hi - d
			if lo < 0 {
				lo = 0
			}
		}
		for v := lo; v <= hi; v++ {
			rec(append(prefix, v))
		}
	}
	rec(nil)
	return out
}

// TestFlightMathAgainstCA pins the max-plus closed forms (flightT,
// crossedAt) against a brute-force solo simulation from every
// consistent snapshot state, over all small shapes and buffer depths.
func TestFlightMathAgainstCA(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		for H := 1; H <= 4; H++ {
			for C := 1; C <= 4; C++ {
				c := &comp{kernel: kernel{depth: d}}
				for _, snap := range consistentStates(H, C, d) {
					if snap[H-1] >= C {
						continue // already delivered
					}
					const tc = 37
					f := &flight{tc: tc, snap: snap, gen: true}
					cr := make([]int, H)
					copy(cr, snap)
					deliver := c.flightT(f, C, H-1, C, H)
					for now := tc; now <= deliver+2; now++ {
						for j := 0; j < H; j++ {
							if got := c.crossedAt(f, j, now, C, H); got != cr[j] {
								t.Fatalf("d=%d H=%d C=%d snap=%v: crossedAt(j=%d, t=%d) = %d, CA has %d",
									d, H, C, snap, j, now, got, cr[j])
							}
						}
						if cr[H-1] == C && now <= deliver {
							t.Fatalf("d=%d H=%d C=%d snap=%v: CA delivered before predicted %d (now=%d)",
								d, H, C, snap, deliver, now)
						}
						caStep(cr, C, d)
						if now == deliver && cr[H-1] != C {
							t.Fatalf("d=%d H=%d C=%d snap=%v: predicted delivery %d but CA not done: %v",
								d, H, C, snap, deliver, cr)
						}
					}
				}
			}
		}
	}
}
