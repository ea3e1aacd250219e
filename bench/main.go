// Command bench is the repository's standing benchmark: the paper-facing
// HotCRP page overhead and the served wire path, four workloads, and a
// per-layer breakdown taken from outside the program. README.md in this
// directory defines every metric and workload; BENCHMARK.json at the
// repository root is the contract a driver runs it under.
//
//	go run ./bench                                   all workloads, both passes
//	go run ./bench -workload wire_write -seed 7      one workload
//	go run ./bench -workload wire_read -trace 0      end-to-end metrics only (driver form)
//	go run ./bench -compare a.json b.json            regression gate
//	go run ./bench -smoke                            everything at a small fraction of the size
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// meta is the run metadata every result file carries.
type meta struct {
	Commit        string  `json:"commit"`
	Started       string  `json:"started"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Smoke         bool    `json:"smoke"`
	Clients       int     `json:"clients"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Kernel        string  `json:"kernel"`
	WALFilesystem string  `json:"wal_filesystem"`
	LoadAvgStart  float64 `json:"loadavg_start"`
}

type resultFile struct {
	Meta      meta              `json:"meta"`
	Workloads []*workloadResult `json:"workloads"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// childEnv marks a process started by runPasses. The test binary,
// re-executed, runs main instead of the tests when it is set.
const childEnv = "RESIN_BENCH_CHILD"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload ("+workloadNames()+"); empty runs all four")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed generates the same ops")
		seconds  = fs.Float64("seconds", 15, "run length: every part of a run does a fixed number of ops per second of it, sized so that the measured parts take about this long on the reference box")
		trace    = fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (traced pass); -1: both")
		out      = fs.String("out", "", "write the result as JSON to this file (default .bench_build/result.json when running all workloads)")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans, one JSON object per line (default .bench_build/spans.jsonl when running all workloads)")
		smoke    = fs.Bool("smoke", false, "run everything at a small fraction of the size, all oracles on")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), filepath.Join("bench", "baseline"), stdout, stderr)
	}

	sc := fullScale
	if *smoke {
		sc = smokeScale
		if !flagSet(fs, "seconds") {
			*seconds = 0.1
		}
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
			return 2
		}
		todo = []workload{w}
	} else if !*smoke {
		if *out == "" {
			*out = filepath.Join(".bench_build", "result.json")
		}
		if *traceOut == "" {
			*traceOut = filepath.Join(".bench_build", "spans.jsonl")
		}
	}

	// Every temp dir of the run lives under one root, removed on every
	// exit path: return, failed check, or a signal.
	root, err := os.MkdirTemp("", "resin-bench-*")
	if err != nil {
		return fail(err)
	}
	var child childProc
	disarm := onSignal(func() {
		child.stop()
		os.RemoveAll(root) //nolint:errcheck // best effort on the way out
	})
	defer func() {
		disarm()
		os.RemoveAll(root) //nolint:errcheck // best effort on the way out
	}()
	sc.tmp = root

	rf := &resultFile{Meta: newMeta(*seed, *seconds, *smoke, root)}
	if rf.Meta.LoadAvgStart > float64(rf.Meta.NProc) && os.Getenv(childEnv) == "" {
		fmt.Fprintf(stderr, "bench: warning: load average %.2f exceeds %d cores; latencies will include someone else's work\n",
			rf.Meta.LoadAvgStart, rf.Meta.NProc)
	}

	// One workload and one pass is a measuring run — the form the driver
	// uses. Anything wider runs each workload's passes as measuring runs in
	// processes of their own, so none inherits the process-wide intern and
	// memo tables, or the heap, of the one before it, and merges them.
	measuring := *name != "" && *trace >= 0
	passes := []int{0, 1}
	if *trace >= 0 {
		passes = []int{*trace}
	}
	var spans []byte
	failed := false
	for _, w := range todo {
		var res *workloadResult
		var sp []byte
		var err error
		if measuring {
			pass := runE2E
			if *trace == 1 {
				pass = runTraced
			}
			if res, err = pass(w, sc, *seed, *seconds); err == nil {
				sp, err = encodeSpans(res)
			}
		} else {
			res, sp, err = child.runPasses(w, passes, *seed, *seconds, *smoke, root, stderr)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		rf.Workloads = append(rf.Workloads, res)
		spans = append(spans, sp...)
		printWorkload(stdout, rf.Meta, res)
		failed = failed || !res.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nresult: %s\n", *out)
	}
	if *traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(*traceOut), 0o755); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*traceOut, spans, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "spans:  %s\n", *traceOut)
	}
	if failed {
		fmt.Fprintln(stderr, "bench: FAILED: at least one op or oracle failed; the numbers above are not a result")
		return 1
	}
	if measuring {
		// The driver's contract: one JSON object on the last line.
		if err := json.NewEncoder(stdout).Encode(driverLine(rf.Workloads[0], *trace)); err != nil {
			return fail(err)
		}
	}
	return 0
}

func newMeta(seed int64, seconds float64, smoke bool, walDir string) meta {
	return meta{
		Commit: commit(), Started: time.Now().UTC().Format(time.RFC3339),
		Seed: seed, Seconds: seconds, Smoke: smoke, Clients: nclients,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernelRelease(), WALFilesystem: fsType(walDir), LoadAvgStart: loadAvg(),
	}
}

// onSignal runs cleanup and exits 130 when SIGINT or SIGTERM arrives.
// The returned function disarms it.
func onSignal(cleanup func()) (disarm func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			cleanup()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// childProc is the measuring run in progress, if any, so that a signal
// can stop it before this process exits.
type childProc struct {
	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd has been waited for
}

// run starts cmd and waits for it.
func (c *childProc) run(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan struct{})
	c.mu.Lock()
	c.cmd, c.done = cmd, done
	c.mu.Unlock()
	err := cmd.Wait()
	c.mu.Lock()
	c.cmd = nil
	c.mu.Unlock()
	close(done)
	return err
}

// stop passes SIGTERM on to the child, which removes its own temp dirs,
// and waits until run has reaped it.
func (c *childProc) stop() {
	c.mu.Lock()
	cmd, done := c.cmd, c.done
	c.mu.Unlock()
	if cmd != nil {
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
		<-done
	}
}

// runPasses runs the given passes of w, each as a measuring run of this
// binary in a process of its own, and merges their results and spans.
func (c *childProc) runPasses(w workload, passes []int, seed int64, seconds float64, smoke bool, dir string, stderr io.Writer) (*workloadResult, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	res := &workloadResult{Name: w.name, Ops: map[string]int{}}
	var spans []byte
	for _, pass := range passes {
		partOut, partSpans := filepath.Join(dir, "result.json"), filepath.Join(dir, "spans.jsonl")
		args := []string{"-workload", w.name, "-trace", strconv.Itoa(pass),
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-out", partOut, "-trace-out", partSpans}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = stderr // its printed metrics are dropped: the merged result is printed instead
		if err := c.run(cmd); err != nil {
			return nil, nil, fmt.Errorf("trace %d: %w", pass, err)
		}
		var part resultFile
		if err := readJSON(partOut, &part); err != nil {
			return nil, nil, err
		}
		res.merge(part.Workloads[0])
		b, err := os.ReadFile(partSpans)
		if err != nil {
			return nil, nil, err
		}
		spans = append(spans, b...)
	}
	res.finish()
	return res, spans, nil
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// merge folds one pass's result into the workload's.
func (r *workloadResult) merge(p *workloadResult) {
	r.count(p.Attempted, p.Failed)
	r.StreamHash = p.StreamHash
	for k, v := range p.Ops {
		r.Ops[k] += v
	}
	if p.EndToEnd != nil {
		r.EndToEnd, r.ElapsedS = p.EndToEnd, p.ElapsedS
	}
	if p.PerLayer != nil {
		r.PerLayer, r.Shares = p.PerLayer, p.Shares
	}
	r.Checks = append(r.Checks, p.Checks...)
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

func driverLine(r *workloadResult, trace int) driverResult {
	decls, src := endToEnd, r.EndToEnd
	if trace == 1 {
		decls, src = perLayer, r.PerLayer
	}
	d := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for _, dc := range decls {
		d.Metrics[dc.name] = driverMetric{src[dc.name].Value, dc.unit}
	}
	return d
}

func printWorkload(w io.Writer, m meta, r *workloadResult) {
	verdict := "correct"
	if !r.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "\n== %s  seed %d, %d closed-loop clients, %.3g s — %s: %d ops attempted, %d failed, fail_frac = %g\n",
		r.Name, m.Seed, m.Clients, m.Seconds, verdict, r.Attempted, r.Failed, r.FailFrac)
	fmt.Fprintf(w, "   stream %s, ops %v, main phase %.2f s\n", r.StreamHash, r.Ops, r.ElapsedS)
	section := func(title string, decls []decl, vals map[string]value) {
		if vals == nil {
			return
		}
		fmt.Fprintf(w, " %s\n", title)
		for _, d := range decls {
			v := vals[d.name]
			fmt.Fprintf(w, "   %-32s %14.4f %-6s", d.name, v.Value, v.Unit)
			if v.Source != "" {
				fmt.Fprintf(w, " [%s]", v.Source)
			}
			switch {
			case v.Source == "setup":
				fmt.Fprintf(w, " best pieces of %d builds, median build %.4g, slowest %.4g", v.Windows, v.Median, v.Worst)
			case v.Windows > 0:
				fmt.Fprintf(w, " best of %d windows, median %.4g, worst %.4g", v.Windows, v.Median, v.Worst)
			}
			if v.Samples > 0 {
				fmt.Fprintf(w, ", %d samples", v.Samples)
			}
			fmt.Fprintln(w)
		}
	}
	section("end-to-end, gated (tracing off)", endToEnd, r.EndToEnd)
	section("end-to-end, reported only (tracing off)", reported, r.EndToEnd)
	section("per-layer (traced pass, counters, layer microbenchmarks)", perLayer, r.PerLayer)
	if len(r.Shares) > 0 {
		fmt.Fprintln(w, " where one traced call's time went (median self times, one client)")
		for _, s := range r.Shares {
			fmt.Fprintln(w, "   "+s)
		}
	}
	fmt.Fprintln(w, " checks")
	for _, c := range r.Checks {
		fmt.Fprintln(w, "   - "+c)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
