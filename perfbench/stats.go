package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p99 needs at least 1000 samples, a p90 100, a median 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// fails when fewer than minBeyond samples lie beyond the rank, because such
// a tail is decided by a handful of samples and does not repeat.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, max(n-rank, 0), n)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the plain median (mean of the middle pair for even counts),
// used for repeated set-up and figure timings where every sample counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (the layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// unit is one stretch of measured work: a figure, a slot, or a window of
// slots. Throughput and CPU cost per file are medians over units, so that
// a rare slow unit moves them no more than any other unit.
type unit struct {
	files int
	wall  time.Duration
	cpu   time.Duration
}

// unitRates returns the median files per second and the median CPU
// milliseconds per file over the units that committed files.
func unitRates(units []unit) (filesPerS, cpuMSPerFile float64, n int) {
	var rates, costs []float64
	for _, u := range units {
		if u.files == 0 || u.wall <= 0 {
			continue
		}
		rates = append(rates, float64(u.files)/u.wall.Seconds())
		costs = append(costs, ms(u.cpu)/float64(u.files))
	}
	return median(rates), median(costs), len(rates)
}

// recordRates writes the unit-median throughput and CPU cost, and the
// plain total throughput for comparison.
func recordRates(r *report, units []unit) {
	rate, cost, n := unitRates(units)
	r.put("files_per_s", "1/s", rate, n)
	r.put("cpu_ms_per_file", "ms", cost, n)
	var files int
	var wall time.Duration
	for _, u := range units {
		files += u.files
		wall += u.wall
	}
	r.put("files_per_s_total", "1/s", ratio(float64(files), wall.Seconds()), files)
}
