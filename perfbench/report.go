package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"safespec/internal/stats"
	"safespec/internal/sweep"
)

// metricDef describes one reported number. clock says what it measures:
// "host" time or rates on the machine running the benchmark, "sim" for
// simulated quantities (deterministic for a given seed), "count" for
// counts and ratios of events.
type metricDef struct {
	name, unit, better, clock, what string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"cells_per_s", "1/s", "higher", "host", "sweep cells completed per second, median over the timed passes"},
	{"setup_s", "s", "lower", "host", "process start to the first timed cell; median of the run's set-ups, each a fresh process"},
	{"peak_rss_mb", "MB", "lower", "host", "peak resident memory (VmHWM) of the process after the timed passes"},
	{"cells_ok_frac", "ratio", "higher", "count", "cells that neither errored nor differed from the reference row, over cells attempted"},
	{"wfc_norm_ipc", "ratio", "higher", "sim", "geomean over benchmarks of IPC(wfc)/IPC(baseline), Figure 11"},
	{"wfb_norm_ipc", "ratio", "higher", "sim", "geomean over benchmarks of IPC(wfb)/IPC(baseline)"},
}

// perLayer are the metrics of a traced run (--trace 1), computed over its
// traced passes unless noted. A layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"workloads.build_ms", "ms", "lower", "host", "program generation during set-up"},
	{"workloads.self_ms", "ms", "lower", "host", "self time in Job.Program per traced cell (memo lookups)"},
	{"core.reset_ms", "ms", "lower", "host", "core.New/Simulator.Reset per simulated cell"},
	{"core.reset_share", "ratio", "lower", "host", "reset time over reset plus run time"},
	{"core.run_ms", "ms", "lower", "host", "Simulator.Run per simulated cell"},
	{"core.ns_per_sim_cycle", "ns", "lower", "host", "Simulator.Run time per simulated cycle"},
	{"core.self_ms", "ms", "lower", "host", "self time of the core layer per traced cell"},
	{"core.sim_cycles", "count", "lower", "sim", "simulated cycles of one pass over the matrix"},
	{"core.allocs_per_kcycle", "1/kcycle", "lower", "count", "heap allocations per 1000 simulated cycles, untraced passes after the first"},
	{"sweep.busy_frac", "ratio", "higher", "host", "executor time over pool workers times pass wall time"},
	{"sweep.tail_ms", "ms", "lower", "host", "median pass wall time after the last cell started"},
	{"resultcache.hit_ratio", "ratio", "higher", "count", "cache hits over lookups"},
	{"resultcache.errors", "count", "lower", "count", "Cache.Stats().Errors"},
	{"resultcache.hit_ms_p50", "ms", "lower", "host", "Timing.CacheNS of hits, median"},
	{"resultcache.hit_ms_p90", "ms", "lower", "host", "Timing.CacheNS of hits, 90th percentile"},
	{"resultcache.miss_store_ms_p50", "ms", "lower", "host", "Timing.CacheNS (lookup plus Put) of misses, median"},
	{"resultcache.miss_store_ms_p90", "ms", "lower", "host", "Timing.CacheNS (lookup plus Put) of misses, 90th percentile"},
	{"resultcache.self_ms", "ms", "lower", "host", "self time of the cache layer per traced cell"},
	{"grid.worker_busy_frac", "ratio", "higher", "host", "worker-side simulate time over worker slots times pass wall time"},
	{"grid.report_ms_p50", "ms", "lower", "host", "Timing.ReportNS, median"},
	{"grid.report_ms_p90", "ms", "lower", "host", "Timing.ReportNS, 90th percentile"},
	{"grid.lease_wait_ms_p50", "ms", "lower", "host", "Timing.QueueNS (enqueue to lease grant), median"},
	{"grid.lease_wait_ms_p90", "ms", "lower", "host", "Timing.QueueNS (enqueue to lease grant), 90th percentile"},
	{"grid.http_requests_per_cell", "1/cell", "lower", "count", "HTTP requests of all grid clients per cell"},
	{"grid.http_bytes_per_cell", "B/cell", "lower", "count", "HTTP body bytes of all grid clients per cell"},
	{"grid.leases_per_cell", "ratio", "lower", "count", "Server.Stats Granted over Completed"},
	{"grid.requeued", "count", "lower", "count", "Server.Stats Requeued plus Hedged"},
	{"grid.self_ms", "ms", "lower", "host", "self time of the grid layer per traced cell, as the sweep waits"},
	{"bench.trace_overhead_frac", "ratio", "lower", "host", "1 - traced/untraced cells_per_s, untraced passes after the first"},
	{"bench.traced_cells", "count", "higher", "count", "cells in the traced passes (the percentile sample)"},
}

// outcome is everything a run measured, before it becomes metrics.
type outcome struct {
	b         *bench
	passes    []pass
	ref       []sweep.Result
	refRows   []byte
	failed    int
	attempted int
	setup     []float64 // set-up seconds, one per set-up
	rssMB     float64
	spans     []span // traced runs only
}

// rates returns each pass's cells per second.
func rates(passes []pass) []float64 {
	out := make([]float64, 0, len(passes))
	for _, p := range passes {
		if p.wall > 0 {
			out = append(out, float64(len(p.cells))/p.wall.Seconds())
		}
	}
	return out
}

// rate is the median over passes of cells per second, which a burst of
// load from outside the benchmark moves less than a total would.
func rate(passes []pass) float64 { return stats.Median(rates(passes)) }

func split(passes []pass) (traced, untraced []pass) {
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	return traced, untraced
}

// endToEndMetrics computes the untraced run's metrics.
func (o *outcome) endToEndMetrics() map[string]float64 {
	return map[string]float64{
		"cells_per_s":   rate(o.passes),
		"setup_s":       stats.Median(o.setup),
		"peak_rss_mb":   o.rssMB,
		"cells_ok_frac": 1 - float64(o.failed)/float64(max(o.attempted, 1)),
		"wfc_norm_ipc":  normIPC(o.ref, "wfc"),
		"wfb_norm_ipc":  normIPC(o.ref, "wfb"),
	}
}

// perLayerMetrics computes the traced run's metrics; warn receives notes
// on percentiles with fewer than minTail samples beyond them.
func (o *outcome) perLayerMetrics(warn io.Writer) map[string]float64 {
	traced, untraced := split(o.passes)
	// The first pass also warms the process (simulator pools, connections,
	// heap growth); the untraced comparisons leave it out.
	if len(untraced) > 1 && untraced[0].n == 0 {
		untraced = untraced[1:]
	}
	m := map[string]float64{}

	// Spans: layer self time per traced cell, and the core calls.
	self := selfNS(o.spans)
	selfBy := map[string]int64{}
	var build, reset, run int64
	var resets, runs int
	var runCycles uint64
	for i, s := range o.spans {
		d := s.End - s.Start
		if s.Cell == setupCell {
			if s.Name == "workloads.program" {
				build += d
			}
			continue
		}
		selfBy[s.layer()] += self[i]
		switch s.Name {
		case "core.reset":
			reset += d
			resets++
		case "core.run":
			run += d
			runs++
			runCycles += s.Cycles
		}
	}
	var cells int
	var wall, execWall time.Duration
	var simNS int64
	var sum counters
	var hits, misses, reports, waits []float64
	for _, p := range traced {
		cells += len(p.cells)
		wall += p.wall
		sum = sum.add(p.delta)
		for _, c := range p.cells {
			execWall += c.wall
			simNS += c.timing.SimulateNS
			switch {
			case o.b.w.path == pathCache && c.timing.SimulateNS == 0:
				hits = append(hits, float64(c.timing.CacheNS))
			case o.b.w.path == pathCache:
				misses = append(misses, float64(c.timing.CacheNS))
			case o.b.w.path == pathGrid:
				reports = append(reports, float64(c.timing.ReportNS))
				waits = append(waits, float64(c.timing.QueueNS))
			}
		}
	}
	perCell := func(ns int64) float64 { return ms(float64(ns)) / float64(max(cells, 1)) }
	m["workloads.build_ms"] = ms(float64(build))
	m["workloads.self_ms"] = perCell(selfBy["workloads"])
	m["core.reset_ms"] = ms(float64(reset)) / float64(max(resets, 1))
	m["core.run_ms"] = ms(float64(run)) / float64(max(runs, 1))
	if reset+run > 0 {
		m["core.reset_share"] = float64(reset) / float64(reset+run)
	}
	if runCycles > 0 {
		m["core.ns_per_sim_cycle"] = float64(run) / float64(runCycles)
	}
	m["core.self_ms"] = perCell(selfBy["core"])
	m["resultcache.self_ms"] = perCell(selfBy["resultcache"])
	m["grid.self_ms"] = perCell(selfBy["grid"])
	for _, r := range o.ref {
		if r.Res != nil {
			m["core.sim_cycles"] += float64(r.Res.Cycles)
		}
	}

	var allocs int64
	var simCycles uint64
	for _, p := range untraced {
		allocs += p.delta[cAllocs]
		for _, c := range p.cells {
			if c.timing.SimulateNS > 0 {
				simCycles += c.cycles
			}
		}
	}
	if simCycles > 0 {
		m["core.allocs_per_kcycle"] = float64(allocs) / (float64(simCycles) / 1000)
	}

	m["sweep.busy_frac"] = busyFrac(execWall, o.b.workers, wall)
	m["sweep.tail_ms"] = ms(tailNS(traced, o.spans))

	if n := sum[cHits] + sum[cMisses]; n > 0 {
		m["resultcache.hit_ratio"] = float64(sum[cHits]) / float64(n)
	}
	m["resultcache.errors"] = float64(sum[cCacheErrors])
	pctl := func(name string, xs []float64, q float64) {
		v, ok := quantile(xs, q)
		if !ok && len(xs) > 0 {
			fmt.Fprintf(warn, "note: %s rests on %d samples, fewer than %d beyond it\n", name, len(xs), minTail)
		}
		m[name] = ms(v)
	}
	pctl("resultcache.hit_ms_p50", hits, 0.5)
	pctl("resultcache.hit_ms_p90", hits, 0.9)
	pctl("resultcache.miss_store_ms_p50", misses, 0.5)
	pctl("resultcache.miss_store_ms_p90", misses, 0.9)

	if o.b.w.path == pathGrid {
		m["grid.worker_busy_frac"] = busyFrac(time.Duration(simNS), gridSlots, wall)
		m["grid.http_requests_per_cell"] = float64(sum[cRequests]) / float64(max(cells, 1))
		m["grid.http_bytes_per_cell"] = float64(sum[cBytes]) / float64(max(cells, 1))
		if sum[cCompleted] > 0 {
			m["grid.leases_per_cell"] = float64(sum[cGranted]) / float64(sum[cCompleted])
		}
		m["grid.requeued"] = float64(sum[cRequeued])
	}
	pctl("grid.report_ms_p50", reports, 0.5)
	pctl("grid.report_ms_p90", reports, 0.9)
	pctl("grid.lease_wait_ms_p50", waits, 0.5)
	pctl("grid.lease_wait_ms_p90", waits, 0.9)

	if r := rate(untraced); r > 0 {
		m["bench.trace_overhead_frac"] = 1 - rate(traced)/r
	}
	m["bench.traced_cells"] = float64(cells)
	return m
}

// tailNS is the median over traced passes of the time from the last cell
// start (the latest root span of the pass) to the end of the pass.
func tailNS(traced []pass, spans []span) float64 {
	last := map[int64]int64{}
	for _, s := range spans {
		if s.Cell < 0 || s.Parent >= 0 {
			continue
		}
		n := s.Cell / cellStride
		last[n] = max(last[n], s.Start)
	}
	var tails []float64
	for _, p := range traced {
		if start, ok := last[int64(p.n)]; ok {
			tails = append(tails, float64(p.end-start))
		}
	}
	return stats.Median(tails)
}

// printMetrics lists every metric of defs by name, unit and clock.
func printMetrics(w io.Writer, defs []metricDef, m map[string]float64) {
	names := make([]string, 0, len(defs))
	byName := map[string]metricDef{}
	for _, d := range defs {
		names = append(names, d.name)
		byName[d.name] = d
	}
	sort.Strings(names)
	for _, name := range names {
		d := byName[name]
		fmt.Fprintf(w, "  %-32s %14.6g %-9s [%s] %s\n", name, m[name], d.unit, d.clock, d.what)
	}
}
