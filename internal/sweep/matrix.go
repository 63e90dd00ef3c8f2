package sweep

import (
	"fmt"

	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/workloads"
)

// Job is one cell of the experiment matrix: a benchmark kernel run under one
// simulator configuration with one generator seed. Jobs are plain values so a
// matrix can be built once and handed to Run, serialized, or sharded.
type Job struct {
	// Bench is the workload name (one of workloads.Names).
	Bench string
	// Mode labels the configuration in results and sink rows. For the
	// standard matrix it is "baseline", "wfb" or "wfc"; custom configs may
	// use any label.
	Mode string
	// Seed overrides the workload's program-generator seed (0 keeps the
	// workload's deterministic per-name default).
	Seed int64
	// Config is the fully-specified simulator configuration, including run
	// limits and occupancy sampling.
	Config core.Config
}

// Program returns the job's kernel via the workloads memoization cache:
// every job with the same (bench, seed) shares one immutable *isa.Program,
// so seed/config fans never re-assemble the same kernel and simulator reuse
// can detect an unchanged program by pointer identity.
func (j Job) Program() (*isa.Program, error) {
	return workloads.Program(j.Bench, j.Seed, j.Config.Pipeline.NumThreads())
}

// String labels the job in errors and logs.
func (j Job) String() string {
	s := j.Bench + "/" + j.Mode
	if n := j.Config.Pipeline.NumThreads(); n > 1 {
		s = fmt.Sprintf("%s/t%d", s, n)
	}
	if j.Seed != 0 {
		s = fmt.Sprintf("%s/seed=%d", s, j.Seed)
	}
	return s
}

// ModeSpec pairs a configuration label with its base config. Run limits and
// sampling from the MatrixSpec are applied on top.
type ModeSpec struct {
	Name   string
	Config core.Config
}

// StandardModes returns the paper's three protection modes in evaluation
// order: baseline first (the normalization denominator), then WFC, then WFB.
func StandardModes() []ModeSpec {
	return []ModeSpec{
		{Name: "baseline", Config: core.Baseline()},
		{Name: "wfc", Config: core.WFC()},
		{Name: "wfb", Config: core.WFB()},
	}
}

// MatrixSpec describes a benchmark × mode × seed experiment matrix.
type MatrixSpec struct {
	// Benchmarks restricts the workload set (nil = all 21, figure order).
	Benchmarks []string
	// Modes are the configurations to run (nil = StandardModes).
	Modes []ModeSpec
	// Seeds are the generator seeds per (bench, mode) pair (nil = one run
	// with the workload's default seed).
	Seeds []int64
	// Instructions is the committed-instruction budget per job.
	Instructions uint64
	// MaxCycles is the safety cycle bound per job (0 = unbounded).
	MaxCycles uint64
	// SampleOccupancy enables the shadow-occupancy histograms needed by the
	// Figures 6-9 sizing study.
	SampleOccupancy bool
	// Threads is the SMT axis: hardware-thread counts to run each
	// (benchmark, mode) pair under (nil = single-thread only). A value of 1
	// leaves the config untouched, so single-thread jobs hash — and hit the
	// result cache — exactly as they did before the axis existed.
	Threads []int
}

// Jobs expands the spec into the full job list, benchmark-major so that all
// modes of one benchmark are adjacent (the order figures.Group expects).
func (m MatrixSpec) Jobs() ([]Job, error) {
	benches := m.Benchmarks
	if benches == nil {
		benches = workloads.Names()
	}
	for _, name := range benches {
		if _, err := workloads.ByName(name); err != nil {
			if !workloads.Registered(name) {
				return nil, err
			}
		}
	}
	modes := m.Modes
	if modes == nil {
		modes = StandardModes()
	}
	seeds := m.Seeds
	if seeds == nil {
		seeds = []int64{0}
	}
	threads := m.Threads
	if threads == nil {
		threads = []int{1}
	}
	jobs := make([]Job, 0, len(benches)*len(modes)*len(seeds)*len(threads))
	for _, bench := range benches {
		for _, mode := range modes {
			for _, th := range threads {
				cfg := mode.Config.WithLimits(m.Instructions, m.MaxCycles)
				cfg.SampleOccupancy = m.SampleOccupancy
				if th > 1 {
					cfg.Pipeline.Threads = th
				}
				for _, seed := range seeds {
					jobs = append(jobs, Job{Bench: bench, Mode: mode.Name, Seed: seed, Config: cfg})
				}
			}
		}
	}
	return jobs, nil
}

// Quick returns the reduced smoke matrix used by CI and the bench smoke: a
// representative benchmark subset at a small instruction budget. Fully
// deterministic, so result rows are byte-identical across worker counts.
func Quick() MatrixSpec {
	return MatrixSpec{
		Benchmarks:      []string{"perlbench", "mcf", "lbm", "exchange2", "gcc", "pop2"},
		Instructions:    15_000,
		MaxCycles:       5_000_000,
		SampleOccupancy: true,
	}
}

// Full returns the full evaluation matrix: all 21 benchmarks (nil selects
// the complete registry in figure order) under the three standard modes at
// a larger committed-instruction budget than Quick. Like Quick it is fully
// deterministic.
func Full() MatrixSpec {
	return MatrixSpec{
		Instructions:    50_000,
		MaxCycles:       17_000_000,
		SampleOccupancy: true,
	}
}
