package main

import (
	"math"
	"sort"
)

// summary is the {median, min, max, n} record every reported number
// carries, so a reader can tell a steady measurement from a lucky one. The
// metric's value is always the median: a statistic every sample moves.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	s := sortedCopy(vs)
	return summary{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(sortedCopy(vs), 0.5) }

// geomean averages ratios and rates across apps; non-positive entries are
// skipped so a failed app cannot turn the mean into NaN.
func geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// geoSummary summarizes per-app values whose headline is their geometric
// mean.
func geoSummary(vs []float64) summary {
	s := summarize(vs)
	s.Median = geomean(vs)
	return s
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// combine folds per-app summaries into one: f is applied to the medians,
// the minima and the maxima separately, and the sample counts add up.
func combine(parts []summary, f func([]float64) float64) summary {
	var med, lo, hi []float64
	n := 0
	for _, p := range parts {
		med, lo, hi = append(med, p.Median), append(lo, p.Min), append(hi, p.Max)
		n += p.N
	}
	return summary{Median: f(med), Min: f(lo), Max: f(hi), N: n}
}

// scaled multiplies every field of s by k (unit conversion).
func (s summary) scaled(k float64) summary {
	return summary{Median: s.Median * k, Min: s.Min * k, Max: s.Max * k, N: s.N}
}

// point is the summary of a number that was measured once.
func point(v float64) summary { return summary{Median: v, Min: v, Max: v, N: 1} }

// tail collects samples in groups that are each expected to repeat — one
// program's repetitions, one window's requests of one program, one cluster
// run's epochs — every sample as a multiple of its group's median, and gives
// percentiles of that pool. The pool is large where a group is not: a
// percentile has tens to hundreds of samples beyond it. And a group the host
// slowed as a whole shifts its own median, so it does not pass for a tail. A
// workload's 90th percentile is its median times tail.at(0.9).
type tail struct{ rel []float64 }

func (t *tail) add(group []float64) {
	if len(group) == 0 {
		return
	}
	m := median(group)
	for _, v := range group {
		t.rel = append(t.rel, v/m)
	}
}

func (t *tail) at(q float64) float64 { return quantile(sortedCopy(t.rel), q) }
