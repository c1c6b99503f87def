package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, each with the
// number of samples it takes to have one beyond it.
var tailLadder = []struct {
	pct float64
	per int
}{{50, 2}, {75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}}

// tailPercentile picks the highest ladder percentile, no higher than limit,
// that still has at least ten of the n samples beyond it. A tail with fewer
// samples beyond it is decided by a handful of outliers and does not repeat.
// limit is fixed per workload so that a faster host, which collects more
// samples, does not silently switch the reported percentile.
func tailPercentile(n int, limit float64) float64 {
	best := tailLadder[0].pct
	for _, l := range tailLadder {
		if l.pct <= limit && n >= 10*l.per {
			best = l.pct
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// opSamples holds the latencies of one operation type.
type opSamples struct {
	name string
	d    []time.Duration
}

// opSummary is the reported shape of one operation type.
type opSummary struct {
	Name    string
	N       int
	P50ms   float64
	TailPct float64 // the percentile TailMs is taken at
	TailMs  float64
}

// summarize reports every op type at its median and at one shared tail
// percentile: the one the type with the fewest samples supports.
func summarize(types []*opSamples, limit float64) []opSummary {
	minN := math.MaxInt
	for _, t := range types {
		if len(t.d) < minN {
			minN = len(t.d)
		}
	}
	pct := tailPercentile(minN, limit)
	out := make([]opSummary, len(types))
	for i, t := range types {
		sort.Slice(t.d, func(a, b int) bool { return t.d[a] < t.d[b] })
		out[i] = opSummary{
			Name:    t.name,
			N:       len(t.d),
			P50ms:   ms(percentile(t.d, 50)),
			TailPct: pct,
			TailMs:  ms(percentile(t.d, pct)),
		}
	}
	return out
}

// geomean is the paper's summary line: one heavy op type cannot hide the
// others the way it would in a mean.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

func geomeanOf(sum []opSummary, f func(opSummary) float64) float64 {
	vals := make([]float64, len(sum))
	for i, s := range sum {
		vals[i] = f(s)
	}
	return geomean(vals)
}

func medianFloat(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return percentile(s, 50)
}

// spread summarises one metric over repeated sets: a row of the -repeat table.
type spread struct {
	Unit   string  `json:"unit"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// Spread is (max-min)/median.
	Spread float64 `json:"spread"`
}

func spreadOf(unit string, vals []float64) spread {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := spread{Unit: unit, Min: s[0], Median: medianFloat(s), Max: s[len(s)-1]}
	out.Spread = share(out.Max-out.Min, out.Median)
	return out
}
