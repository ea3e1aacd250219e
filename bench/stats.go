package main

import (
	"math"
	"sort"
)

// A window is one equal-op-count slice of a timed phase: one round of an
// end-to-end run, one block of the page phase. A windowed metric is
// computed in every window — a latency percentile over the window's ops,
// or its ops per second — and the run reports the BEST window, with the
// median and the worst window beside it.
//
// Why the best window and not the median over windows: this benchmark
// runs on shared microVMs whose host slows the CPU in bursts of 0.3–3 s
// and in phases of minutes (README.md, "Noise and the best window").
// Noise only ever adds time, so the quietest window is the closest the
// run came to the program on an undisturbed machine, which is the thing
// a code change moves. Over three rounds of ten runs the best window of
// the page latencies moved 1–9 % from run to run, the lowest decile
// 2–12 %, the lower quartile 3–14 %, the median over windows 3–27 %. A
// window still holds hundreds of ops, so the figure is a percentile of
// the program's own latency distribution, not a fastest op. What the
// best window cannot show is a slowdown that spares whole windows; the
// median over windows is recorded beside every figure for that.

// percentile returns the p-quantile (0..1) of xs by nearest rank; it
// sorts xs in place. Zero for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// windowed is one metric over the windows of a run.
type windowed struct {
	Best    float64 // the run's figure
	Median  float64
	Worst   float64
	Windows int
	Samples int
}

// bestOf reduces one figure per window: the lowest, or the highest where
// higher is better.
func bestOf(perWindow []float64, better string) windowed {
	if len(perWindow) == 0 {
		return windowed{}
	}
	xs := append([]float64(nil), perWindow...)
	sort.Float64s(xs)
	w := windowed{Best: xs[0], Median: percentile(xs, 0.5), Worst: xs[len(xs)-1], Windows: len(xs)}
	if better == higher {
		w.Best, w.Worst = w.Worst, w.Best
	}
	return w
}

// windowStat takes percentile p of every window's samples and reduces
// the windows with bestOf. Empty windows are skipped.
func windowStat(windows [][]int64, p float64) windowed {
	var per []float64
	samples := 0
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		xs := make([]float64, len(w))
		for i, v := range w {
			xs[i] = float64(v)
		}
		per = append(per, percentile(xs, p))
		samples += len(w)
	}
	out := bestOf(per, lower)
	out.Samples = samples
	return out
}

// chunks cuts xs into consecutive windows of size n; a short tail is
// dropped.
func chunks(xs []int64, n int) [][]int64 {
	var out [][]int64
	for ; n > 0 && len(xs) >= n; xs = xs[n:] {
		out = append(out, xs[:n])
	}
	return out
}

// cut cuts xs into n consecutive windows of equal size.
func cut(xs []int64, n int) [][]int64 { return chunks(xs, max(1, len(xs)/n)) }

// spread is |worst − best| / median of a windowed metric: how far the
// windows of one run disagree.
func (w windowed) spread() float64 {
	return ratio(math.Abs(w.Worst-w.Best), w.Median)
}

// blockRatio is the median over block pairs of a[i]/b[i]: each pair ran
// back to back, so drift in the machine cancels inside a pair.
func blockRatio(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	rs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if b[i] > 0 {
			rs = append(rs, a[i]/b[i])
		}
	}
	return percentile(rs, 0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
