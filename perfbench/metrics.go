package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"safespec/internal/stats"
	"safespec/internal/sweep"
)

// minTail is how many samples must rank above a percentile before it is
// reported as supported (choosing-metrics: report the highest percentile
// with at least ten samples beyond it).
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1) and
// whether at least minTail samples rank strictly above it. xs is not
// modified; an empty sample yields (0, false).
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= minTail
}

// normIPC is the Figure 11 headline for one protection mode: per
// benchmark, the seed-paired ratio IPC(mode)/IPC(baseline) averaged over
// the seed fan, then the geometric mean over benchmarks. It follows
// figures.Performance and figures.GeoMeanNormIPC, which only cover WFC.
// Sums run in job order, so the result is bit-identical for a matrix.
func normIPC(results []sweep.Result, mode string) float64 {
	type cell struct {
		bench string
		seed  int64
	}
	type pair struct{ base, prot float64 }
	var order []cell
	pairs := map[cell]*pair{}
	for _, r := range results {
		if r.Res == nil || (r.Job.Mode != "baseline" && r.Job.Mode != mode) {
			continue
		}
		k := cell{r.Job.Bench, r.Job.Seed}
		p := pairs[k]
		if p == nil {
			p = &pair{}
			pairs[k] = p
			order = append(order, k)
		}
		if r.Job.Mode == "baseline" {
			p.base = r.Res.IPC()
		} else {
			p.prot = r.Res.IPC()
		}
	}
	var perBench, ratios []float64
	for i, k := range order {
		if p := pairs[k]; p.base > 0 && p.prot > 0 {
			ratios = append(ratios, p.prot/p.base)
		}
		if i == len(order)-1 || order[i+1].bench != k.bench {
			perBench = append(perBench, stats.Mean(ratios))
			ratios = ratios[:0]
		}
	}
	return stats.GeoMean(perBench)
}

// busyFrac is the share of slots × wall that work kept busy.
func busyFrac(busy time.Duration, slots int, wall time.Duration) float64 {
	if slots <= 0 || wall <= 0 {
		return 0
	}
	return float64(busy) / (float64(slots) * float64(wall))
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// heapAllocs returns the cumulative count of heap objects allocated by the
// process.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
