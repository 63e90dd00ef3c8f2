package sweep

import (
	"context"
	"runtime"
	"testing"
)

// maxQuickAllocsPerCycle bounds heap allocations per simulated cycle on a
// warm pass over the Quick matrix: the last committed Quick baseline's
// 0.002066 allocs/cycle plus an absolute 0.01 of headroom. The cycle path
// is meant to be allocation-free once the program and simulator pools are
// warm; a single allocation per pipeline.CPU.Step overshoots the bound
// several times over even though the scheduler skips idle cycles.
const maxQuickAllocsPerCycle = 0.002066 + 0.01

// TestQuickAllocsPerCycle is the allocation gate: it counts mallocs across
// a second, pool-warm sweep of the Quick matrix and divides by the cycles
// that sweep simulated. Unlike wall time, the count barely depends on the
// machine, so the bound holds on any runner.
func TestQuickAllocsPerCycle(t *testing.T) {
	jobs, err := Quick().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	pass := func() []Result {
		res, err := Run(context.Background(), jobs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := FirstErr(res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	pass() // warm the program and simulator pools

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := pass()
	runtime.ReadMemStats(&m1)

	var cycles uint64
	for _, r := range res {
		cycles += r.Res.Cycles
	}
	if cycles == 0 {
		t.Fatal("warm pass simulated no cycles")
	}
	allocs := m1.Mallocs - m0.Mallocs
	perCycle := float64(allocs) / float64(cycles)
	t.Logf("%d allocs over %d cycles: %.5f allocs/cycle (max %.5f)", allocs, cycles, perCycle, maxQuickAllocsPerCycle)
	if perCycle > maxQuickAllocsPerCycle {
		t.Errorf("%.5f allocs per simulated cycle exceeds %.5f: allocation creep on the cycle path",
			perCycle, maxQuickAllocsPerCycle)
	}
}
