package pipeline_test

import (
	"testing"

	"safespec/internal/asm"
	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/pipeline"
)

// runAll executes prog under baseline, WFB and WFC and returns the three
// simulators (post-run).
func runAll(t *testing.T, prog *isa.Program) [3]*core.Simulator {
	t.Helper()
	var sims [3]*core.Simulator
	for i, mode := range []core.Mode{core.ModeBaseline, core.ModeWFB, core.ModeWFC} {
		sims[i] = core.New(core.DefaultConfig(mode), prog)
		sims[i].Run()
		if !sims[i].CPU().Halted() {
			t.Fatalf("%v: program did not halt", mode)
		}
	}
	return sims
}

// checkReg asserts that a register holds the same expected value under all
// three modes.
func checkReg(t *testing.T, sims [3]*core.Simulator, r isa.Reg, want int64) {
	t.Helper()
	for i, mode := range []core.Mode{core.ModeBaseline, core.ModeWFB, core.ModeWFC} {
		if got := sims[i].CPU().Reg(r); got != want {
			t.Errorf("%v: %s = %d, want %d", mode, r, got, want)
		}
	}
}

func TestALUSemantics(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.S0, 100)
	b.Movi(isa.S1, 7)
	b.Add(isa.T0, isa.S0, isa.S1) // 107
	b.Sub(isa.T1, isa.S0, isa.S1) // 93
	b.Mul(isa.T2, isa.S0, isa.S1) // 700
	b.Div(isa.T3, isa.S0, isa.S1) // 14
	b.Rem(isa.T4, isa.S0, isa.S1) // 2
	b.And(isa.T5, isa.S0, isa.S1) // 4
	b.Or(isa.T6, isa.S0, isa.S1)  // 103
	b.Xor(isa.S2, isa.S0, isa.S1) // 99
	b.Shli(isa.S3, isa.S0, 2)     // 400
	b.Shri(isa.S4, isa.S0, 2)     // 25
	b.Slti(isa.S5, isa.S0, 101)   // 1
	b.Slt(isa.S6, isa.S1, isa.S0) // 1
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.T0, 107)
	checkReg(t, sims, isa.T1, 93)
	checkReg(t, sims, isa.T2, 700)
	checkReg(t, sims, isa.T3, 14)
	checkReg(t, sims, isa.T4, 2)
	checkReg(t, sims, isa.T5, 4)
	checkReg(t, sims, isa.T6, 103)
	checkReg(t, sims, isa.S2, 99)
	checkReg(t, sims, isa.S3, 400)
	checkReg(t, sims, isa.S4, 25)
	checkReg(t, sims, isa.S5, 1)
	checkReg(t, sims, isa.S6, 1)
}

func TestDivRemByZero(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.S0, 42)
	b.Movi(isa.S1, 0)
	b.Div(isa.T0, isa.S0, isa.S1) // 0, no trap
	b.Rem(isa.T1, isa.S0, isa.S1) // 42
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.T0, 0)
	checkReg(t, sims, isa.T1, 42)
}

func TestZeroRegisterHardwired(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.Zero, 99) // discarded
	b.Addi(isa.T0, isa.Zero, 5)
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.T0, 5)
	checkReg(t, sims, isa.Zero, 0)
}

func TestFibonacci(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.S0, 0)  // a
	b.Movi(isa.S1, 1)  // b
	b.Movi(isa.T0, 0)  // i
	b.Movi(isa.T1, 20) // n
	b.Label("loop")
	b.Add(isa.T2, isa.S0, isa.S1)
	b.Add(isa.S0, isa.S1, isa.Zero)
	b.Add(isa.S1, isa.T2, isa.Zero)
	b.Addi(isa.T0, isa.T0, 1)
	b.Blt(isa.T0, isa.T1, "loop")
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.S1, 10946) // fib(21)
}

func TestStoreLoadForwarding(t *testing.T) {
	// A load immediately after a store to the same address must see the
	// stored value even though the store has not committed to memory yet.
	b := asm.NewBuilder()
	b.Region(0x1000, 4096, false)
	b.Movi(isa.S0, 0x1000)
	b.Movi(isa.T0, 1234)
	b.Store(isa.T0, isa.S0, 0)
	b.Load(isa.T1, isa.S0, 0)
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.T1, 1234)
	// Forwarding should have happened (the store cannot have committed
	// before the load issued in at least one of the modes).
	if fw := sims[0].Run().StoreForwards; fw == 0 {
		t.Log("note: no forwarding observed on baseline (load issued after commit)")
	}
}

func TestStoreLoadDifferentAddresses(t *testing.T) {
	b := asm.NewBuilder()
	b.Region(0x1000, 4096, false)
	b.Movi(isa.S0, 0x1000)
	b.Movi(isa.T0, 11)
	b.Movi(isa.T1, 22)
	b.Store(isa.T0, isa.S0, 0)
	b.Store(isa.T1, isa.S0, 8)
	b.Load(isa.T2, isa.S0, 0)
	b.Load(isa.T3, isa.S0, 8)
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.T2, 11)
	checkReg(t, sims, isa.T3, 22)
}

func TestCallRetNesting(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.S0, 0)
	b.Call("f1")
	b.Halt()
	b.Label("f1")
	b.Addi(isa.S0, isa.S0, 1)
	b.Add(isa.S2, isa.RA, isa.Zero) // save ra
	b.Call("f2")
	b.Add(isa.RA, isa.S2, isa.Zero) // restore
	b.Addi(isa.S0, isa.S0, 100)
	b.Ret()
	b.Label("f2")
	b.Addi(isa.S0, isa.S0, 10)
	b.Ret()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.S0, 111)
}

func TestIndirectJumpTable(t *testing.T) {
	b := asm.NewBuilder()
	b.Region(0x2000, 4096, false)
	b.DataLabel(0x2000, "case0")
	b.DataLabel(0x2008, "case1")
	b.DataLabel(0x2010, "case2")
	b.Movi(isa.S0, 0x2000)
	b.Movi(isa.S1, 1) // select case1
	b.Shli(isa.T0, isa.S1, 3)
	b.Add(isa.T0, isa.S0, isa.T0)
	b.Load(isa.T1, isa.T0, 0)
	b.Jmpi(isa.T1, 0)
	b.Label("case0")
	b.Movi(isa.S2, 100)
	b.Jmp("done")
	b.Label("case1")
	b.Movi(isa.S2, 200)
	b.Jmp("done")
	b.Label("case2")
	b.Movi(isa.S2, 300)
	b.Label("done")
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.S2, 200)
}

func TestRdCycleMonotonic(t *testing.T) {
	b := asm.NewBuilder()
	b.RdCycle(isa.S0)
	b.Region(0x1000, 4096, false)
	b.Movi(isa.T0, 0x1000)
	b.Load(isa.T1, isa.T0, 0) // some work
	b.RdCycle(isa.S1)
	b.Halt()
	sims := runAll(t, b.MustBuild())
	for i := range sims {
		t1, t2 := sims[i].CPU().Reg(isa.S0), sims[i].CPU().Reg(isa.S1)
		if t2 <= t1 {
			t.Errorf("rdcycle not monotonic: %d then %d", t1, t2)
		}
	}
}

func TestRdCycleMeasuresCacheMiss(t *testing.T) {
	// The timing primitive the attacks rely on: a cold load takes visibly
	// longer between two rdcycles than a warm one.
	b := asm.NewBuilder()
	b.Region(0x1000, 4096, false)
	b.Movi(isa.S5, 0x1000)
	// Cold measurement.
	b.RdCycle(isa.T0)
	b.Load(isa.T1, isa.S5, 0)
	b.Add(isa.T1, isa.T1, isa.T1)
	b.RdCycle(isa.T2)
	b.Sub(isa.S0, isa.T2, isa.T0)
	// Warm measurement.
	b.RdCycle(isa.T0)
	b.Load(isa.T1, isa.S5, 0)
	b.Add(isa.T1, isa.T1, isa.T1)
	b.RdCycle(isa.T2)
	b.Sub(isa.S1, isa.T2, isa.T0)
	b.Halt()
	sims := runAll(t, b.MustBuild())
	for i, mode := range []string{"baseline", "wfb", "wfc"} {
		cold := sims[i].CPU().Reg(isa.S0)
		warm := sims[i].CPU().Reg(isa.S1)
		if cold < warm+100 {
			t.Errorf("%s: cold=%d warm=%d — no miss signal", mode, cold, warm)
		}
	}
}

func TestFaultWithoutHandlerHalts(t *testing.T) {
	b := asm.NewBuilder()
	b.KernelData(0x5000, 1)
	b.Movi(isa.T0, 0x5000)
	b.Load(isa.T1, isa.T0, 0) // permission fault
	b.Movi(isa.S0, 777)       // must NOT commit
	b.Halt()
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeWFC} {
		sim := core.New(core.DefaultConfig(mode), b.MustBuild())
		res := sim.Run()
		if res.Faults != 1 {
			t.Errorf("%v: faults = %d", mode, res.Faults)
		}
		if got := sim.CPU().Reg(isa.S0); got == 777 {
			t.Errorf("%v: instruction after fault committed", mode)
		}
	}
}

func TestTrapVector(t *testing.T) {
	b := asm.NewBuilder()
	b.KernelData(0x5000, 1)
	b.SetTrapHandler("handler")
	b.Movi(isa.S0, 1)
	b.Movi(isa.T0, 0x5000)
	b.Load(isa.T1, isa.T0, 0) // faults at commit
	b.Movi(isa.S0, 2)         // squashed
	b.Halt()
	b.Label("handler")
	b.Movi(isa.S1, 42)
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.S0, 1)
	checkReg(t, sims, isa.S1, 42)
}

func TestUnmappedLoadFaults(t *testing.T) {
	b := asm.NewBuilder()
	b.SetTrapHandler("handler")
	b.Movi(isa.T0, 0x7777_0000)
	b.Load(isa.T1, isa.T0, 0)
	b.Halt()
	b.Label("handler")
	b.Movi(isa.S0, 5)
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.S0, 5)
}

func TestStorePermissionFault(t *testing.T) {
	b := asm.NewBuilder()
	b.KernelData(0x5000, 123)
	b.SetTrapHandler("handler")
	b.Movi(isa.T0, 0x5000)
	b.Movi(isa.T1, 99)
	b.Store(isa.T1, isa.T0, 0) // user store to kernel page
	b.Halt()
	b.Label("handler")
	b.Movi(isa.S0, 1)
	b.Halt()
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeWFC} {
		sim := core.New(core.DefaultConfig(mode), b.MustBuild())
		sim.Run()
		if sim.CPU().Reg(isa.S0) != 1 {
			t.Errorf("%v: store fault did not trap", mode)
		}
		if v, _ := sim.CPU().Mem().Read(0x5000, true); v != 123 {
			t.Errorf("%v: faulting store modified kernel memory: %d", mode, v)
		}
	}
}

func TestFenceOrdering(t *testing.T) {
	b := asm.NewBuilder()
	b.Region(0x1000, 4096, false)
	b.Movi(isa.S0, 0x1000)
	b.Movi(isa.T0, 5)
	b.Store(isa.T0, isa.S0, 0)
	b.Fence()
	b.Load(isa.T1, isa.S0, 0)
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.T1, 5)
}

func TestClflushSemantics(t *testing.T) {
	// clflush must not change architectural values, only timing.
	b := asm.NewBuilder()
	b.Region(0x1000, 4096, false)
	b.Movi(isa.S0, 0x1000)
	b.Movi(isa.T0, 31)
	b.Store(isa.T0, isa.S0, 0)
	b.Fence()
	b.Clflush(isa.S0, 0)
	b.Fence()
	b.Load(isa.T1, isa.S0, 0)
	b.Halt()
	sims := runAll(t, b.MustBuild())
	checkReg(t, sims, isa.T1, 31)
}

func TestRunOffEndHalts(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.T0, 1) // no halt: runs off the end
	prog := b.MustBuild()
	sim := core.New(core.Baseline(), prog)
	res := sim.Run()
	if !sim.CPU().Halted() {
		t.Error("program did not halt after running off the end")
	}
	if res.Committed != 1 {
		t.Errorf("committed = %d, want 1", res.Committed)
	}
}

func TestBranchHeavyLoopAllModes(t *testing.T) {
	// Data-dependent branches with an LCG: exercises mispredict recovery.
	b := asm.NewBuilder()
	b.Movi(isa.S0, 12345) // x
	b.Movi(isa.S1, 0)     // acc
	b.Movi(isa.T0, 0)
	b.Movi(isa.T1, 500)
	b.Label("loop")
	b.Movi(isa.T2, 1103515245)
	b.Mul(isa.S0, isa.S0, isa.T2)
	b.Addi(isa.S0, isa.S0, 12345)
	b.Shri(isa.T3, isa.S0, 16)
	b.Andi(isa.T3, isa.T3, 1)
	b.Beq(isa.T3, isa.Zero, "even")
	b.Addi(isa.S1, isa.S1, 3)
	b.Jmp("next")
	b.Label("even")
	b.Addi(isa.S1, isa.S1, 7)
	b.Label("next")
	b.Addi(isa.T0, isa.T0, 1)
	b.Blt(isa.T0, isa.T1, "loop")
	b.Halt()
	sims := runAll(t, b.MustBuild())
	want := sims[0].CPU().Reg(isa.S1)
	checkReg(t, sims, isa.S1, want)
	if want == 0 || want == 1500 || want == 3500 {
		t.Errorf("acc = %d suggests the data-dependent branch never varied", want)
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	cfg := pipeline.Config{}.Normalize()
	if cfg.ROBSize != 224 || cfg.IQSize != 96 || cfg.LDQSize != 72 || cfg.STQSize != 56 {
		t.Errorf("Table I defaults wrong: %+v", cfg)
	}
	if cfg.FetchWidth != 6 || cfg.CommitWidth != 6 {
		t.Errorf("widths wrong: %+v", cfg)
	}
	if cfg.ShadowD.Entries != 72 || cfg.ShadowI.Entries != 224 {
		t.Errorf("secure shadow defaults wrong: %+v", cfg)
	}
	if cfg.Hier.MemLatency != 191 {
		t.Errorf("memory latency = %d", cfg.Hier.MemLatency)
	}
}

func TestModeString(t *testing.T) {
	if pipeline.ModeBaseline.String() != "baseline" ||
		pipeline.ModeWFB.String() != "safespec-wfb" ||
		pipeline.ModeWFC.String() != "safespec-wfc" {
		t.Error("mode names wrong")
	}
	if pipeline.ModeBaseline.SafeSpec() || !pipeline.ModeWFC.SafeSpec() {
		t.Error("SafeSpec() wrong")
	}
}

// TestBuildMemoryLayoutDeterministic: a program's physical layout — which
// frame backs each page, and so which PTE addresses the page walker reads
// through the D-cache — depends only on the program, even for data pages no
// Region declares. Images are built once per process, so a layout that
// followed map iteration order would differ between grid workers.
func TestBuildMemoryLayoutDeterministic(t *testing.T) {
	b := asm.NewBuilder()
	b.Halt()
	prog := b.MustBuild()
	prog.Data = map[uint64]int64{}
	prog.KernelData = map[uint64]int64{}
	for page := uint64(0); page < 16; page++ {
		for w := uint64(0); w < 20; w++ {
			va := 0x40_0000 + page*0x1_3000 + w*0xc8
			if page%4 == 3 {
				prog.KernelData[va] = int64(page<<8 | w)
			} else {
				prog.Data[va] = int64(page<<8 | w)
			}
		}
	}
	first := pipeline.BuildMemory(prog)
	for build := 0; build < 4; build++ {
		again := pipeline.BuildMemory(prog)
		for _, words := range []map[uint64]int64{prog.Data, prog.KernelData} {
			for va, v := range words {
				got, want := again.Walk(va), first.Walk(va)
				if got != want {
					t.Fatalf("build %d: walk %#x = %+v, first build %+v", build, va, got, want)
				}
				if x, _ := again.Read(va, true); x != v {
					t.Fatalf("build %d: mem[%#x] = %d, want %d", build, va, x, v)
				}
			}
		}
	}
}
