package pipeline_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"safespec/internal/asm"
	"safespec/internal/attacks"
	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/pipeline"
	"safespec/internal/shadow"
)

// diffRun executes prog under cfg on the event-driven scheduler and on the
// reference scan scheduler and requires bit-identical statistics and
// architectural state on every hardware thread. This is the equivalence
// contract of the event scheduler: same issues, same writebacks, same
// squashes, same skipped cycles — not just the same final registers.
func diffRun(t *testing.T, name string, cfg pipeline.Config, prog *isa.Program,
	sample bool, setup func(*pipeline.CPU, *isa.Program)) {
	t.Helper()
	run := func(ref bool) (*pipeline.Stats, [][isa.RegCount]int64) {
		cpu := pipeline.New(cfg, prog)
		cpu.SetReferenceScheduler(ref)
		if sample {
			cpu.EnableOccupancySampling()
		}
		if setup != nil {
			setup(cpu, prog)
		}
		st := cpu.Run()
		regs := make([][isa.RegCount]int64, cpu.Threads())
		for tid := range regs {
			for r := 0; r < isa.RegCount; r++ {
				regs[tid][r] = cpu.RegOf(tid, isa.Reg(r))
			}
		}
		return st, regs
	}
	evSt, evRegs := run(false)
	refSt, refRegs := run(true)
	if !reflect.DeepEqual(evSt, refSt) {
		t.Errorf("%s: event scheduler statistics diverge from reference scan\nevent: cycles=%d committed=%d squashed=%d mispred=%d\nref:   cycles=%d committed=%d squashed=%d mispred=%d",
			name, evSt.Cycles, evSt.Committed, evSt.Squashed, evSt.Mispredicts,
			refSt.Cycles, refSt.Committed, refSt.Squashed, refSt.Mispredicts)
	}
	if !reflect.DeepEqual(evRegs, refRegs) {
		t.Errorf("%s: event scheduler register files diverge from reference scan", name)
	}
}

// modeConfigs returns the three protection modes' pipeline configurations.
func modeConfigs() map[string]pipeline.Config {
	return map[string]pipeline.Config{
		"baseline": core.Baseline().Pipeline,
		"wfb":      core.WFB().Pipeline,
		"wfc":      core.WFC().Pipeline,
	}
}

// TestSchedulerDifferentialRandom pins event-vs-scan equivalence on random
// (terminating) programs across all three modes, with occupancy sampling on
// half the trials so the fast-forward bulk-sampling path is covered too.
func TestSchedulerDifferentialRandom(t *testing.T) {
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		seed := int64(trial)*6007 + 13
		prog := randomProgram(seed)
		for name, cfg := range modeConfigs() {
			diffRun(t, name, cfg, prog, trial%2 == 0, nil)
		}
	}
}

// TestSchedulerDifferentialSMT repeats the random-program differential on
// 2- and 4-thread cores in every mode. The scheduler's bitmaps, parked
// loads and wheel cursor are per-thread state over per-thread ROB
// partitions; this is the test that covers them with threads interleaved.
func TestSchedulerDifferentialSMT(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		prog := randomProgram(int64(trial)*4_099 + 3)
		for name, cfg := range modeConfigs() {
			for _, threads := range []int{2, 4} {
				cfg.Threads = threads
				diffRun(t, fmt.Sprintf("smt%d/%s", threads, name), cfg, prog, trial%2 == 0, nil)
			}
		}
	}
}

// tinyShadowConfig returns a cramped WFC core: a tiny ROB/IQ/LSQ and branch-tag
// budget, and shadow structures of a few entries with the given policy.
func tinyShadowConfig(policy shadow.OnFull) pipeline.Config {
	cfg := core.WFC().Pipeline
	cfg.ROBSize = 12
	cfg.IQSize = 6
	cfg.LDQSize = 3
	cfg.STQSize = 3
	cfg.MaxBranchTags = 3
	cfg.ShadowD = shadow.Policy{Name: "shadow-dcache", Entries: 2, WhenFull: policy}
	cfg.ShadowI = shadow.Policy{Name: "shadow-icache", Entries: 4, WhenFull: policy}
	cfg.ShadowDTLB = shadow.Policy{Name: "shadow-dtlb", Entries: 2, WhenFull: policy}
	cfg.ShadowITLB = shadow.Policy{Name: "shadow-itlb", Entries: 2, WhenFull: policy}
	return cfg.Normalize()
}

// TestSchedulerDifferentialTinyConfig repeats the differential on a cramped
// core: the tiny window exercises every structural stall, and Block-policy
// shadow structures exercise the blocked-issue retry path (entries that
// must be re-attempted every cycle, not woken), next to loads parked on an
// unresolved older store and woken by its issue.
func TestSchedulerDifferentialTinyConfig(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		prog := randomProgram(int64(trial)*31_337 + 7)
		for _, policy := range []shadow.OnFull{shadow.Drop, shadow.Block} {
			diffRun(t, "tiny", tinyShadowConfig(policy), prog, false, nil)
		}
	}
}

// storeHeavyProgram loops over groups of a store whose address resolves
// late — its base register comes from a divide or from a load of a line
// flushed every iteration — followed by loads of the same doubleword (which
// forward once the store resolves) and of other doublewords (which must
// wait for it all the same: there is no memory-dependence speculation).
// Every fourth iteration also stores to a kernel page and loads the same
// doubleword back: the load finds a faulting store to forward from and
// stalls until the store's trap, whose handler resumes the loop.
func storeHeavyProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder()
	const base = 0x2_0000
	const table = base + 2048 // offsets into the first 512 bytes
	const kern = 0x3_0000
	b.Region(base, 4096, false)
	b.Region(kern, 4096, true)
	offs := make([]int64, 16)
	for i := range offs {
		offs[i] = int64(rng.Intn(64)) * 8
		b.Data(table+uint64(i)*8, offs[i])
		b.Data(base+uint64(i)*8, rng.Int63n(1000))
	}
	b.SetTrapHandler("handler")
	b.Movi(isa.S10, base)
	b.Movi(isa.S9, table)
	b.Movi(isa.S8, kern)
	b.Movi(isa.S11, 0) // iteration counter
	b.Movi(isa.S0, 1)  // stored value and load accumulator
	b.Label("loop")
	groups := 2 + rng.Intn(3)
	for g := 0; g < groups; g++ {
		slot := int64(rng.Intn(len(offs)))
		if rng.Intn(2) == 0 {
			const d = 7
			b.Movi(isa.T1, offs[slot]*d)
			b.Movi(isa.T2, d)
			b.Div(isa.T0, isa.T1, isa.T2)
		} else {
			b.Load(isa.T0, isa.S9, slot*8)
			b.Clflush(isa.S9, slot*8) // the next iteration's load misses again
		}
		b.Add(isa.T3, isa.S10, isa.T0)
		b.Store(isa.S0, isa.T3, 0)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if rng.Intn(2) == 0 {
				b.Load(isa.T4, isa.T3, 0)
			} else {
				b.Load(isa.T4, isa.S10, int64(rng.Intn(64))*8)
			}
			b.Add(isa.S0, isa.S0, isa.T4)
		}
		b.Andi(isa.S0, isa.S0, 0xffff)
	}
	b.Andi(isa.T5, isa.S11, 3)
	b.Bne(isa.T5, isa.Zero, "next")
	koff := int64(rng.Intn(64)) * 8
	b.Store(isa.S0, isa.S8, koff)
	b.Load(isa.T4, isa.S8, koff)
	b.Add(isa.S0, isa.S0, isa.T4)
	b.Label("next")
	b.Addi(isa.S11, isa.S11, 1)
	b.Slti(isa.T6, isa.S11, int64(8+rng.Intn(16)))
	b.Bne(isa.T6, isa.Zero, "loop")
	b.Halt()
	b.Label("handler")
	b.Jmp("next")
	return b.MustBuild()
}

// TestSchedulerDifferentialStoreHeavy pins the park-and-wake path of loads
// behind an unresolved older store: every mode, the tiny core with Drop and
// Block shadows (parked loads next to per-cycle retries), and two threads.
func TestSchedulerDifferentialStoreHeavy(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		prog := storeHeavyProgram(int64(trial)*7_919 + 11)
		for name, cfg := range modeConfigs() {
			diffRun(t, "store/"+name, cfg, prog, false, nil)
			cfg.Threads = 2
			diffRun(t, "store/smt2/"+name, cfg, prog, false, nil)
		}
		for _, policy := range []shadow.OnFull{shadow.Drop, shadow.Block} {
			diffRun(t, "store/tiny", tinyShadowConfig(policy), prog, false, nil)
		}
	}
	// Every parked load is still blocked by an unresolved older store after
	// each cycle (parking is exact), and the workload really parks loads
	// and really traps on its kernel stores.
	smt := core.WFC().Pipeline
	smt.Threads = 2
	for name, cfg := range map[string]pipeline.Config{
		"wfc": core.WFC().Pipeline, "smt2": smt, "tiny": tinyShadowConfig(shadow.Block),
	} {
		parked, traps := 0, uint64(0)
		for trial := 0; trial < 8; trial++ {
			cpu := pipeline.New(cfg, storeHeavyProgram(int64(trial)*7_919+11))
			for !cpu.Halted() && cpu.Cycle() < 1_000_000 {
				cpu.Step()
				if n := cpu.WronglyParkedLoads(); n != 0 {
					t.Fatalf("%s trial %d: cycle %d: %d parked loads are no longer behind an unresolved store",
						name, trial, cpu.Cycle(), n)
				}
				if n := cpu.ParkedLoads(); n > parked {
					parked = n
				}
			}
			traps += cpu.St.Traps
		}
		if parked == 0 {
			t.Errorf("%s: store-heavy kernels never parked a load behind an unresolved store", name)
		}
		if traps == 0 {
			t.Errorf("%s: store-heavy kernels never trapped on a kernel store", name)
		}
	}
}

// squashHeavyProgram loops over pseudo-random data and branches on each
// loaded value's low bit: roughly half the iterations mispredict, so the
// run is dominated by selective squashes draining the scheduler queues.
func squashHeavyProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder()
	const base = 0x2_0000
	b.Region(base, 4096, false)
	for i := 0; i < 64; i++ {
		b.Data(base+uint64(i)*8, rng.Int63())
	}
	b.Movi(isa.S10, base)
	b.Movi(isa.S11, 0) // index
	b.Movi(isa.S0, 0)  // taken-path accumulator
	b.Label("loop")
	b.Shli(isa.T0, isa.S11, 3)
	b.Add(isa.T0, isa.S10, isa.T0)
	b.Load(isa.T1, isa.T0, 0)
	b.Andi(isa.T2, isa.T1, 1)
	b.Beq(isa.T2, isa.Zero, "even")
	// Odd path: dependent work the squash must annul cleanly.
	b.Mul(isa.S0, isa.S0, isa.T1)
	b.Addi(isa.S0, isa.S0, 3)
	b.Load(isa.T3, isa.T0, 0)
	b.Add(isa.S0, isa.S0, isa.T3)
	b.Jmp("next")
	b.Label("even")
	b.Xor(isa.S0, isa.S0, isa.T1)
	b.Store(isa.S0, isa.T0, 0)
	b.Label("next")
	b.Addi(isa.S11, isa.S11, 1)
	b.Slti(isa.T6, isa.S11, 64)
	b.Bne(isa.T6, isa.Zero, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestSchedulerDifferentialSquashHeavy stresses squash draining: a
// mispredict-dominated run must drain the ready queue, the wakeup rows and
// the completion wheel identically under both schedulers.
func TestSchedulerDifferentialSquashHeavy(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		prog := squashHeavyProgram(int64(trial)*997 + 1)
		for name, cfg := range modeConfigs() {
			diffRun(t, "squash/"+name, cfg, prog, false, nil)
		}
	}
	// Sanity: the workload actually squashes heavily.
	cpu := pipeline.New(core.WFC().Pipeline, squashHeavyProgram(1))
	st := cpu.Run()
	if st.Mispredicts < 20 || st.Squashed < 100 {
		t.Fatalf("squash-heavy kernel is not squash-heavy: %d mispredicts, %d squashed", st.Mispredicts, st.Squashed)
	}
}

// faultHeavyProgram raises repeated permission faults: each round performs
// speculative work, reads a kernel page (trapping at commit), and resumes
// in the trap handler, which loops back until enough traps accumulated.
func faultHeavyProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder()
	const user = 0x2_0000
	const kern = 0x3_0000
	b.Region(user, 4096, false)
	b.Region(kern, 4096, true)
	for i := 0; i < 16; i++ {
		b.Data(user+uint64(i)*8, rng.Int63n(1<<20))
		b.KernelData(kern+uint64(i)*8, rng.Int63n(1<<20))
	}
	b.SetTrapHandler("handler")
	b.Movi(isa.S10, user)
	b.Movi(isa.S9, kern)
	b.Movi(isa.S5, 0) // trap counter
	b.Movi(isa.S0, 1)
	b.Label("round")
	// Some work before the fault, so the trap squashes a busy window.
	b.Load(isa.T0, isa.S10, int64(rng.Intn(16))*8)
	b.Add(isa.S0, isa.S0, isa.T0)
	b.Andi(isa.T1, isa.T0, 0x78)
	b.Add(isa.T1, isa.S10, isa.T1)
	b.Load(isa.T2, isa.T1, 0)
	// The faulting kernel read plus transient dependent work (squashed with
	// the trap, leaving shadow state to annul under SafeSpec).
	b.Load(isa.T3, isa.S9, int64(rng.Intn(16))*8)
	b.Add(isa.T4, isa.T3, isa.T2)
	b.Load(isa.T5, isa.S10, 0)
	b.Store(isa.T4, isa.S10, 128)
	b.Halt() // unreachable: the kernel read always traps first
	b.Label("handler")
	b.Addi(isa.S5, isa.S5, 1)
	b.Slti(isa.T6, isa.S5, 12)
	b.Bne(isa.T6, isa.Zero, "round")
	b.Halt()
	return b.MustBuild()
}

// TestSchedulerDifferentialFaultHeavy stresses trap flushes (squashAll):
// every round ends in a precise fault that annuls the entire window.
func TestSchedulerDifferentialFaultHeavy(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		prog := faultHeavyProgram(int64(trial)*211 + 5)
		for name, cfg := range modeConfigs() {
			diffRun(t, "fault/"+name, cfg, prog, false, nil)
		}
	}
	cpu := pipeline.New(core.WFC().Pipeline, faultHeavyProgram(5))
	st := cpu.Run()
	if st.Traps < 10 {
		t.Fatalf("fault-heavy kernel is not fault-heavy: %d traps", st.Traps)
	}
}

// TestSchedulerResetAcrossGeometries: rebinding one CPU across configs
// with different window geometry (which resizes the scheduler bitmaps and
// wakeup rows, including ROB-size changes that keep the same bitmap word
// count) must reproduce a fresh simulator's statistics exactly.
func TestSchedulerResetAcrossGeometries(t *testing.T) {
	prog := randomProgram(42)
	sizes := []int{224, 200, 12, 64, 224}
	var reused *pipeline.CPU
	for _, rob := range sizes {
		cfg := core.WFC().Pipeline
		cfg.ROBSize = rob
		if rob < 64 {
			cfg.IQSize, cfg.LDQSize, cfg.STQSize, cfg.MaxBranchTags = rob/2, rob/4, rob/4, 3
		}
		cfg = cfg.Normalize()
		if reused == nil {
			reused = pipeline.New(cfg, prog)
		} else {
			reused.Reset(cfg, prog, pipeline.BuildMemory(prog))
		}
		got := reused.Run()
		want := pipeline.New(cfg, prog).Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ROB=%d: reused CPU diverged from fresh (cycles %d vs %d)", rob, got.Cycles, want.Cycles)
		}
	}
}

// TestSchedulerDifferentialAttackKernels pins equivalence on the paper's
// attack programs — the adversarial corner of the input space (poisoned
// predictors, fault-deferred reads, shadow-structure contention) — across
// all three modes.
func TestSchedulerDifferentialAttackKernels(t *testing.T) {
	for _, a := range attacks.All() {
		prog, err := a.Build(a.Secret)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for name, cfg := range modeConfigs() {
			var setup func(*pipeline.CPU, *isa.Program)
			if a.Setup != nil {
				setup = a.Setup
			}
			diffRun(t, a.Name+"/"+name, cfg, prog, false, setup)
		}
	}
}
