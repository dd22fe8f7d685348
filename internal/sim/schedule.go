package sim

import (
	"math/rand"

	"repro/internal/stream"
)

// schedule is the release plan every kernel reads. Periodic sources
// (no jitter) need only arithmetic — offset, offset+T, offset+2T, … —
// but sporadic sources draw their extra gaps from one RNG seeded by
// Config.JitterSeed, one draw per release in global release order (by
// cycle, then by stream index). A kernel over one conflict component
// sees only its own streams' releases and cannot reproduce that order
// on the fly, so for jitter runs the constructor replays the draw
// sequence once up front and stores each stream's explicit release
// cycles.
type schedule struct {
	cycles  int
	periods []int
	starts  []int
	jit     [][]int // per-stream release cycles; nil when jitter == 0
}

func newSchedule(set *stream.Set, cfg Config) *schedule {
	n := set.Len()
	sch := &schedule{
		cycles:  cfg.Cycles,
		periods: make([]int, n),
		starts:  make([]int, n),
	}
	for i, st := range set.Streams {
		sch.periods[i] = st.Period
	}
	if cfg.Offsets != nil {
		copy(sch.starts, cfg.Offsets)
	}
	if cfg.SporadicJitter == 0 {
		return sch
	}
	// Replay the draw order: stream i releases at cycle v exactly when
	// its next-release value reaches v (the value never lags the clock,
	// since periods are >= 1) and draws one jitter sample per release,
	// streams in index order within a cycle. Picking the minimum
	// (value, stream) pair until the horizon reproduces that order.
	rng := rand.New(rand.NewSource(cfg.JitterSeed))
	next := make([]int, n)
	copy(next, sch.starts)
	sch.jit = make([][]int, n)
	for {
		best := -1
		for i := 0; i < n; i++ {
			if next[i] >= cfg.Cycles {
				continue
			}
			if best < 0 || next[i] < next[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		sch.jit[best] = append(sch.jit[best], next[best])
		next[best] += set.Streams[best].Period + rng.Intn(cfg.SporadicJitter+1)
	}
	return sch
}

// start returns stream gi's first release cycle and cursor position; a
// value at or beyond the horizon means the stream never releases.
func (sch *schedule) start(gi int) (rel, idx int) {
	if sch.jit != nil {
		if len(sch.jit[gi]) == 0 {
			return sch.cycles, 0
		}
		return sch.jit[gi][0], 0
	}
	return sch.starts[gi], 0
}

// next consumes the release at (cur, idx) and returns the following
// one. Periodic streams never exhaust; sporadic streams return the
// horizon as a sentinel once the precomputed plan runs out.
func (sch *schedule) next(gi, cur, idx int) (int, int) {
	if sch.jit != nil {
		if idx+1 >= len(sch.jit[gi]) {
			return sch.cycles, idx + 1
		}
		return sch.jit[gi][idx+1], idx + 1
	}
	return cur + sch.periods[gi], idx
}
