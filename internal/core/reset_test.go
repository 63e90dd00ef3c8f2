package core_test

import (
	"reflect"
	"testing"

	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/workloads"
)

// buildKernel returns the named workload's kernel (fresh build; memoization
// is irrelevant here, the test controls program identity explicitly).
func buildKernel(t *testing.T, name string) *isa.Program {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Build()
}

// TestResetDeterminism is the reuse gate behind the sweep executor's
// simulator pool: one Simulator rebound across a sequence of (config,
// program) cells — mode flips, program switches, occupancy sampling on and
// off, stores dirtying its copy-on-write view of the program's image — must
// reproduce, for every cell, results deeply equal to a fresh simulator's.
// Byte-identical sweep output across local, cached and distributed
// execution rests on exactly this property.
func TestResetDeterminism(t *testing.T) {
	// perlbench stores every 4th iteration, and lbm every iteration into
	// pages its image backs with the shared zero frame: the next Reset must
	// drop every private copy. mcf has the largest image (a 4 MiB pointer
	// chase); exchange2 is store-free compute. The sequence deliberately
	// revisits cell 0 at the end so a state leak from any intermediate cell
	// would surface.
	progs := map[string]*isa.Program{}
	for _, name := range []string{"perlbench", "exchange2", "mcf", "lbm"} {
		progs[name] = buildKernel(t, name)
	}
	withOcc := func(c core.Config) core.Config {
		c.SampleOccupancy = true
		return c
	}
	cells := []struct {
		name string
		cfg  core.Config
		prog string
	}{
		{"baseline/perl", core.Baseline().WithLimits(8_000, 2_000_000), "perlbench"},
		{"wfc/perl", core.WFC().WithLimits(8_000, 2_000_000), "perlbench"},
		{"wfc+occ/perl", withOcc(core.WFC().WithLimits(8_000, 2_000_000)), "perlbench"},
		{"wfb/exch", core.WFB().WithLimits(8_000, 2_000_000), "exchange2"},
		{"wfc/mcf", core.WFC().WithLimits(8_000, 2_000_000), "mcf"},
		{"baseline/mcf", core.Baseline().WithLimits(8_000, 2_000_000), "mcf"},
		{"wfb/lbm", core.WFB().WithLimits(8_000, 2_000_000), "lbm"},
		{"wfc/lbm", core.WFC().WithLimits(8_000, 2_000_000), "lbm"},
		{"baseline/perl again", core.Baseline().WithLimits(8_000, 2_000_000), "perlbench"},
	}

	reused := core.New(cells[0].cfg, progs[cells[0].prog])
	for i, cell := range cells {
		var got *core.Results
		if i == 0 {
			got = reused.Run().Detach()
		} else {
			reused.Reset(cell.cfg, progs[cell.prog])
			got = reused.Run().Detach()
		}
		// The fresh run gets a program (and so an image) of its own, which
		// no earlier cell can have touched.
		want := core.Run(cell.cfg, buildKernel(t, cell.prog))
		if got.Mode != want.Mode {
			t.Fatalf("%s: mode %v, want %v", cell.name, got.Mode, want.Mode)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s: reused simulator diverged from fresh run\nreused: %s\nfresh:  %s",
				cell.name, got.Summary(), want.Summary())
		}
	}
}

// TestDetachIsolatesResults: results detached before a Reset must not change
// when the simulator runs the next cell.
func TestDetachIsolatesResults(t *testing.T) {
	exch := buildKernel(t, "exchange2")
	perl := buildKernel(t, "perlbench")
	cfg := core.WFC().WithLimits(5_000, 2_000_000)

	sim := core.New(cfg, exch)
	first := sim.Run().Detach()
	snapshot := *first.Stats

	sim.Reset(core.Baseline().WithLimits(5_000, 2_000_000), perl)
	sim.Run()

	if !reflect.DeepEqual(snapshot, *first.Stats) {
		t.Fatal("detached results changed when the simulator was reused")
	}
}

// TestZeroSteadyStateAllocsPooled is the allocation gate for the pooled
// path sweeps take: a Simulator Reset to a program it has already run steps
// through a copy-on-write view of the program's image, taking its private
// frames from those the previous run released. Once warm, stepping it must
// allocate nothing — like a freshly built CPU (TestZeroSteadyStateAllocsPerCycle).
func TestZeroSteadyStateAllocsPooled(t *testing.T) {
	// gcc never halts and stores to random addresses across 1 MiB, so the
	// first run dirties every page the measured window below can touch.
	gcc := buildKernel(t, "gcc")
	cfg := core.WFC().WithLimits(0, 100_000)
	sim := core.New(cfg, gcc)
	sim.Run()
	sim.Reset(cfg, gcc)
	cpu := sim.CPU()
	for i := 0; i < 30_000; i++ {
		cpu.Step()
	}
	const cycles = 2_000
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < cycles; i++ {
			cpu.Step()
		}
	})
	if cpu.Halted() {
		t.Fatal("kernel halted mid-measurement")
	}
	if avg != 0 {
		t.Fatalf("pooled steady state allocates: %.2f allocs per %d cycles (want 0)", avg, cycles)
	}
}
