package sim

import "testing"

// TestStairTimeAgainstStairT pins the closed-form staircase crossing
// times against the general boundary maximisation, over every
// staircase snapshot prefix of every small shape.
func TestStairTimeAgainstStairT(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		for H := 1; H <= 5; H++ {
			for C := 1; C <= 5; C++ {
				c := &comp{kernel: kernel{depth: d}}
				const t0 = 100
				for a := 0; a <= 2*(H+2*C); a++ {
					snap := make([]int, H)
					for j := 0; j < H; j++ {
						snap[j] = stairCrossed(a, j, C, d, H)
					}
					if snap[H-1] >= C {
						continue
					}
					tc := t0 + a
					for j := 0; j < H; j++ {
						for k := snap[j] + 1; k <= C; k++ {
							want := c.stairT(snap, tc, k, j, H)
							got := stairTime(t0, k, j, d, H)
							if got != want {
								t.Fatalf("d=%d H=%d C=%d a=%d j=%d k=%d: stairTime=%d stairT=%d",
									d, H, C, a, j, k, got, want)
							}
						}
					}
				}
			}
		}
	}
}
