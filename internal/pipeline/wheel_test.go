package pipeline

import (
	"math/rand"
	"testing"
)

// TestWheelCursor drives random wheelAdd/wheelRemove/drain/peek sequences
// against a brute-force model: after each drain the completed set must be
// exactly the scheduled entries with completeAt <= cycle, and the peek must
// return the minimum completeAt still scheduled. The clock advances by
// single cycles, by jumps that wrap past the wheel span, and by jumps of a
// whole span or more; a share of the completion times lies beyond the
// horizon, so the overflow list is covered too.
func TestWheelCursor(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkWheelCursor(t, seed)
	}
}

func checkWheelCursor(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c := &CPU{cfg: Config{}.Normalize()}
	th := &thread{rob: make([]entry, 96)}
	c.schedReset(th)
	span := uint64(len(th.bucketHead))

	// at[idx] is the model: slot idx's completion cycle, 0 when unscheduled.
	at := make([]uint64, len(th.rob))
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(20); {
		case r < 12:
			c.cycle++
		case r < 16:
			c.cycle += 1 + uint64(rng.Intn(64))
		case r < 18:
			c.cycle += span/2 + uint64(rng.Intn(int(span))) // wraps past the span
		case r == 18:
			c.cycle += span
		default:
			c.cycle += span + uint64(rng.Intn(3*int(span)))
		}

		c.drainWheel(th)
		for idx := range at {
			due := at[idx] != 0 && at[idx] <= c.cycle
			if got := th.compMask[idx>>6]>>uint(idx&63)&1 == 1; got != due {
				t.Fatalf("seed %d step %d cycle %d: slot %d (completeAt %d) drained=%v, want %v",
					seed, step, c.cycle, idx, at[idx], got, due)
			}
			if due {
				at[idx] = 0
			}
		}
		clearWords(th.compMask)

		for idx := range at {
			if at[idx] != 0 && rng.Intn(8) == 0 {
				c.wheelRemove(th, idx)
				at[idx] = 0
			}
		}
		for k := rng.Intn(6); k > 0; k-- {
			idx := rng.Intn(len(at))
			if at[idx] != 0 {
				continue
			}
			var lat uint64
			switch r := rng.Intn(10); {
			case r < 7:
				lat = 1 + uint64(rng.Intn(300))
			case r == 7:
				lat = span - 1 // the last bucket before the horizon
			default:
				lat = span + uint64(rng.Intn(int(span))) // overflow list
			}
			at[idx] = c.cycle + lat
			th.rob[idx].completeAt = at[idx]
			c.wheelAdd(th, idx, at[idx])
		}

		var want uint64
		scheduled := 0
		for _, a := range at {
			if a != 0 {
				scheduled++
				if want == 0 || a < want {
					want = a
				}
			}
		}
		if got := th.wheelCount + len(th.overflow); got != scheduled {
			t.Fatalf("seed %d step %d: wheel holds %d entries, model %d", seed, step, got, scheduled)
		}
		next, ok := c.wheelPeek(th)
		if ok != (scheduled > 0) || next != want {
			t.Fatalf("seed %d step %d cycle %d: peek = %d,%v, want %d,%v",
				seed, step, c.cycle, next, ok, want, scheduled > 0)
		}
	}
}
