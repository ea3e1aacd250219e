package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsened reports by what share of base the metric got worse (negative:
// it improved).
func worsened(better string, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if better == higher {
		return (base - now) / base
	}
	return (now - base) / base
}

func (rf *resultFile) workload(name string) *workloadResult {
	for _, w := range rf.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// singleRunNoise reads the result files in dir — the recorded runs of one
// commit on the reference box — and returns, per workload and end-to-end
// metric, the largest share by which one of them reads worse than
// another. Two runs of the same code differ by that much there.
func singleRunNoise(dir string, decls []decl) (map[string]map[string]float64, int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, 0, err
	}
	var runs []resultFile
	for _, p := range paths {
		var rf resultFile
		if err := readJSON(p, &rf); err != nil {
			return nil, 0, err
		}
		runs = append(runs, rf)
	}
	noise := map[string]map[string]float64{}
	for _, a := range runs {
		for _, wa := range a.Workloads {
			if noise[wa.Name] == nil {
				noise[wa.Name] = map[string]float64{}
			}
			for _, b := range runs {
				wb := b.workload(wa.Name)
				if wb == nil {
					continue
				}
				for _, d := range decls {
					if w := worsened(d.better, wa.EndToEnd[d.name].Value, wb.EndToEnd[d.name].Value); w > noise[wa.Name][d.name] {
						noise[wa.Name][d.name] = w
					}
				}
			}
		}
	}
	return noise, len(runs), nil
}

// compareFiles prints every (workload, metric) of two result files side
// by side — b relative to a, the base — and returns 1 if
//
//   - the two files do not hold the same workloads, or one lacks an
//     end-to-end metric;
//   - fail_frac rose;
//   - an end-to-end metric worsened past its bound and by more than two
//     single runs of one commit differ on the reference box, going by the
//     recorded runs in baselineDir.
//
// A metric that worsened past its bound but inside that noise is printed
// as "unresolved": one pair of runs cannot tell such a change from the
// weather, and the verdict is left to medians over ten alternating runs
// of each side, which is what a bound is defined on. Per-layer metrics
// print without a verdict.
func compareFiles(aPath, bPath, baselineDir string, stdout, stderr io.Writer) int {
	var a, b resultFile
	for _, f := range []struct {
		path string
		v    *resultFile
	}{{aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench: compare:", err)
			return 2
		}
	}
	noise, nruns, err := singleRunNoise(baselineDir, allEndToEnd)
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "base %s (commit %s, seed %d)\nnew  %s (commit %s, seed %d)\nnoise: the most one of the %d runs in %s reads worse than another\n",
		aPath, a.Meta.Commit, a.Meta.Seed, bPath, b.Meta.Commit, b.Meta.Seed, nruns, baselineDir)
	bad := 0
	flag := func(format string, args ...any) string {
		bad++
		return "  REGRESSION: " + fmt.Sprintf(format, args...)
	}
	for _, wb := range b.Workloads {
		if a.workload(wb.Name) == nil {
			fmt.Fprintf(stdout, "\n== %s%s\n", wb.Name, flag("missing from %s", aPath))
		}
	}
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(stdout, "\n== %s%s\n", wa.Name, flag("missing from %s", bPath))
			continue
		}
		fmt.Fprintf(stdout, "\n== %s  stream %s → %s\n", wa.Name, wa.StreamHash, wb.StreamHash)
		fmt.Fprintf(stdout, "   %-32s %14s %14s %10s %8s %8s\n", "metric", "base", "new", "new/base", "bound", "noise")
		verdict := ""
		if wb.FailFrac > wa.FailFrac {
			verdict = flag("fail_frac rose")
		}
		fmt.Fprintf(stdout, "   %-32s %14g %14g%s\n", "fail_frac", wa.FailFrac, wb.FailFrac, verdict)
		for _, d := range allEndToEnd {
			va, oka := wa.EndToEnd[d.name]
			vb, okb := wb.EndToEnd[d.name]
			if !oka || !okb {
				fmt.Fprintf(stdout, "   %-32s%s\n", d.name, flag("missing from a file"))
				continue
			}
			n, verdict := noise[wa.Name][d.name], ""
			switch w := worsened(d.better, va.Value, vb.Value); {
			case w <= d.bound:
			case w <= n:
				verdict = "  unresolved: past the bound, inside the noise of single runs"
			default:
				verdict = flag("worse by %.3f", w)
			}
			fmt.Fprintf(stdout, "   %-32s %14.4f %14.4f %10.4f %8.2f %8.3f%s\n",
				d.name, va.Value, vb.Value, ratio(vb.Value, va.Value), d.bound, n, verdict)
		}
		for _, d := range perLayer {
			va, oka := wa.PerLayer[d.name]
			vb, okb := wb.PerLayer[d.name]
			if oka && okb {
				fmt.Fprintf(stdout, "   %-32s %14.4f %14.4f %10.4f %8s\n",
					d.name, va.Value, vb.Value, ratio(vb.Value, va.Value), "-")
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "bench: compare: %d regression(s)\n", bad)
		return 1
	}
	return 0
}
