package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestMain lets the test binary stand in for the benchmark's: a run wider
// than one workload and pass re-executes its own binary for every
// measuring run (runPasses), and marks those children with childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
	}
	os.Exit(m.Run())
}

func TestWindowStat(t *testing.T) {
	// Forty windows of two samples: window w holds {10w+1, 10w+2};
	// nearest-rank p50 of a pair is its lower element, p99 its upper.
	const n = 40
	var all []int64
	for w := 0; w < n; w++ {
		all = append(all, int64(10*w+1), int64(10*w+2))
	}
	ws := chunks(all, 2)
	if len(ws) != n {
		t.Fatalf("chunks made %d windows, want %d", len(ws), n)
	}
	// Window p50s are 1, 11, 21, …, 391.
	got := windowStat(ws, 0.5)
	if want := (windowed{Best: 1, Median: 191, Worst: 391, Windows: n, Samples: 2 * n}); got != want {
		t.Errorf("p50 over windows = %+v, want %+v", got, want)
	}
	if want := 390.0 / 191; !near(got.spread(), want) {
		t.Errorf("spread = %v, want %v", got.spread(), want)
	}
	if got := windowStat(ws, 0.99); !near(got.Best, 2) || !near(got.Worst, 392) {
		t.Errorf("p99 over windows = %+v, want best 2, worst 392", got)
	}

	// Noise that covers all but one window moves the median and the worst
	// window, not the figure.
	noisy := append([]int64(nil), all...)
	for i := 2; i < len(noisy); i++ {
		noisy[i] += 1e9
	}
	if got := windowStat(chunks(noisy, 2), 0.5); !near(got.Best, 1) || got.Median < 1e9 {
		t.Errorf("with all windows but one disturbed: %+v, want best 1 and a disturbed median", got)
	}

	// A rate's best window is its highest.
	if got := bestOf([]float64{5, 1, 4, 2, 3}, higher); !near(got.Best, 5) || !near(got.Median, 3) || !near(got.Worst, 1) {
		t.Errorf("best rate = %+v, want best 5, median 3, worst 1", got)
	}

	if got := chunks([]int64{1, 2, 3, 4, 5}, 2); len(got) != 2 || got[1][1] != 4 {
		t.Errorf("chunks drops a short tail: %v", got)
	}
	if got := cut([]int64{1, 2, 3, 4, 5, 6, 7}, 3); len(got) != 3 || len(got[2]) != 2 {
		t.Errorf("cut into 3 windows: %v", got)
	}
	if got := windowStat([][]int64{{7, 9, 8}, nil}, 0.5); !near(got.Best, 8) || got.Windows != 1 || got.Samples != 3 {
		t.Errorf("one window and an empty one: %+v, want the plain median 8", got)
	}
	if got := windowStat(nil, 0.5); got != (windowed{}) {
		t.Errorf("no samples: %+v, want zero", got)
	}
}

func TestWindowRates(t *testing.T) {
	// Ten windows; the host took half the CPU away during four of them.
	var rs []rate
	for i := 0; i < 10; i++ {
		r := rate{ops: 1000, elapsed: time.Second, cpu: 100 * time.Millisecond}
		if i%3 == 0 {
			r.elapsed, r.cpu = 2*time.Second, 150*time.Millisecond
		}
		rs = append(rs, r)
	}
	rs = append(rs, rate{}) // a window in which nothing completed is skipped
	ops, cpu := windowRates(rs)
	if !near(ops.Best, 1000) || !near(cpu.Best, 100) || !near(ops.Worst, 500) || !near(cpu.Worst, 150) || ops.Windows != 10 {
		t.Errorf("windowRates = %+v ops/s, %+v us/op; want the undisturbed 1000 and 100, worst 500 and 150", ops, cpu)
	}
	if ops, cpu := windowRates(nil); ops.Best != 0 || cpu.Best != 0 {
		t.Errorf("no windows: %v, %v", ops, cpu)
	}
}

func TestSetupTime(t *testing.T) {
	// Three builds of three pieces; a stall hit a different piece each time.
	got := setupTime([][]float64{{1, 2, 9}, {1, 7, 3}, {5, 2, 3}})
	if want := (windowed{Best: 1 + 2 + 3, Median: 11, Worst: 12, Windows: 3}); got != want {
		t.Errorf("setupTime = %+v, want %+v", got, want)
	}
	if got := setupTime(nil); got != (windowed{}) {
		t.Errorf("no builds: %+v", got)
	}
}

func TestBlockRatio(t *testing.T) {
	// The machine slows down 10× halfway; inside a pair the ratio holds.
	resin := []float64{20, 20, 200, 200, 210}
	base := []float64{10, 10, 100, 100, 100}
	if got := blockRatio(resin, base); !near(got, 2) {
		t.Errorf("blockRatio = %v, want 2 (ratio of means would be %v)", got, 650.0/320)
	}
	if got := blockRatio([]float64{3, 9}, []float64{1}); !near(got, 3) {
		t.Errorf("unequal lengths: %v, want 3", got)
	}
	if got := blockRatio(nil, nil); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
}

func TestRollupSelfTimes(t *testing.T) {
	spans := []span{
		{OpID: 1, Name: spanOp, Class: "insert", Start: 0, End: 1000, Parent: -1},
		{OpID: 1, Name: spanExecWAL, Class: "insert", Start: 1000, End: 1700, Parent: 0},
		{OpID: 1, Name: spanExecMem, Class: "insert", Start: 1700, End: 1800, Parent: 0},
		{OpID: 1, Name: spanEncode, Class: "insert", Start: 1800, End: 1810, Parent: 0},
		{OpID: 2, Name: spanOp, Class: "page", Start: 2000, End: 2500, Parent: -1},
		{OpID: 2, Name: spanExecMem, Class: "page", Start: 2500, End: 2600, Parent: 4},
		{OpID: 2, Name: spanExecMem, Class: "page", Start: 2600, End: 2750, Parent: 4},
	}
	m := metrics{}
	lines := m.fromSpans(rollup(spans))
	for name, want := range map[string]float64{
		"wire.self_insert_us_p50": 0.3,  // 1000 − 700
		"sqldb.wal_self_us_p50":   0.6,  // 700 − 100
		"sqldb.wal_insert_us_p50": 0.7,  //
		"sqldb.mem_insert_us_p50": 0.1,  //
		"httpd.do_self_us_p50":    0.25, // 500 − (100 + 150)
		"wire.self_point_us_p50":  0,    // no such op traced
	} {
		if !near(m[name], want) {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	if len(lines) != 2 || !strings.Contains(lines[0], "wal  60.0%") {
		t.Errorf("share lines = %q, want the insert line to give the WAL 60%%", lines)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	hash := func(seed int64, w workload) string {
		tbl, err := newTable(seed, smokeScale.rows, smokeScale.forums, smokeScale.smallPolicies, nclients)
		if err != nil {
			t.Fatal(err)
		}
		return streamHash(tbl, w, 2000)
	}
	for _, w := range workloads {
		a, b, c := hash(1, w), hash(1, w), hash(2, w)
		if a != b {
			t.Errorf("%s: seed 1 hashed %s then %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both hash to %s", w.name, a)
		}
	}
	if hash(1, workloads[1]) == hash(1, workloads[2]) {
		t.Error("wire_read and wire_write share a stream")
	}

	// The mix is honoured and updates stay on the client's own ids.
	tbl, err := newTable(1, 2000, 16, 64, nclients)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(tbl, "wire_mixed", 1)
	g.setMix(workloads[3].m)
	var n [numClasses]int
	for i := 0; i < 40000; i++ {
		o := g.next()
		n[o.class]++
		switch o.class {
		case opUpdate:
			if o.id%nclients != 1 || o.id >= tbl.rows {
				t.Fatalf("client 1 updates id %d", o.id)
			}
		case opInsert:
			if o.id < insertBase*2 || o.id >= insertBase*3 {
				t.Fatalf("client 1 inserts id %d", o.id)
			}
		}
	}
	if w := n[opInsert] + n[opUpdate]; w != 10000 {
		t.Errorf("%d writes in 40000 ops, want every 4th", w)
	}
	if f := float64(n[opPoint]) / 30000; f < 0.68 || f > 0.72 {
		t.Errorf("point share of reads %.3f, want 0.70", f)
	}
	if f := float64(n[opInsert]) / 10000; f < 0.67 || f > 0.73 {
		t.Errorf("insert share of writes %.3f, want 0.70", f)
	}
}

// TestWALBytesRepeat: the same seed does the same work and grows the WAL
// by the same bytes, so wal_bytes_per_user_byte compares exactly across
// two builds.
func TestWALBytesRepeat(t *testing.T) {
	growth := func(seed int64) (int64, int64) {
		sc := smokeScale
		sc.tmp = t.TempDir()
		e, _, err := setup(workloads[2], sc, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := e.close(); err != nil {
				t.Error(err)
			}
		}()
		r := e.se.run(phase{m: workloads[2].m, nclients: nclients, ops: 150})
		if r.failed != 0 || r.ops != 300 {
			t.Fatalf("%d ops, %d failed; want 300, 0", r.ops, r.failed)
		}
		if _, err := restartCheck(e.se); err != nil {
			t.Fatal(err)
		}
		return r.walBytes, r.userBytes
	}
	w1, u1 := growth(5)
	w2, u2 := growth(5)
	w3, u3 := growth(6)
	if w1 != w2 || u1 != u2 {
		t.Errorf("seed 5 twice: WAL %d/%d, user bytes %d/%d", w1, w2, u1, u2)
	}
	if w1 == w3 && u1 == u3 {
		t.Errorf("seeds 5 and 6 wrote identical bytes (%d WAL, %d user)", w1, u1)
	}
	if r := float64(w1) / float64(u1); r < 1 || r > 10 {
		t.Errorf("wal_bytes_per_user_byte = %v", r)
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestDeclaredNames holds names.go equal to BENCHMARK.json and both
// inside the driver's limits.
func TestDeclaredNames(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the name syntax", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) || len(workloads) != 4 {
		t.Fatalf("%d workloads declared, %d in names.go, want 4", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, names.go %q (or their why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d in names.go, limit 16", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range bf.EndToEnd {
		name("end-to-end", d.Name)
		if want := endToEnd[i]; d.Name != want.name || d.Unit != want.unit || d.Better != want.better || d.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, names.go has %+v", i, d, want)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit syntax", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) missing from end_to_end")
	}

	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in names.go, limit 128", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range bf.PerLayer {
		name("per-layer", d.Name)
		if want := perLayer[i]; d.Name != want.name || d.Unit != want.unit || d.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, names.go has %+v", i, d, want)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit syntax", d.Name, d.Unit)
		}
	}

	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// TestSmoke runs all four workloads, both passes, every oracle on, at
// smoke size — eight measuring runs in child processes, merged — and
// checks that what comes out is exactly what is declared.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // so the leftover check below sees only this run
	// Under -race every child would otherwise sleep a second on its way
	// out; a race it finds is still reported and still fails it.
	t.Setenv("GORACE", "atexit_sleep_ms=0")
	dir := t.TempDir()
	out, spans := filepath.Join(dir, "r.json"), filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	if code := run([]string{"-smoke", "-out", out, "-trace-out", spans}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke took %v, want under 10 s", d)
	}
	var rf resultFile
	if err := readJSON(out, &rf); err != nil {
		t.Fatal(err)
	}
	if len(rf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(rf.Workloads), len(workloads))
	}
	if rf.Meta.Clients != nclients || rf.Meta.GoVersion == "" || rf.Meta.WALFilesystem == "" || rf.Meta.NProc == 0 {
		t.Errorf("metadata incomplete: %+v", rf.Meta)
	}
	for i, r := range rf.Workloads {
		if r.Name != workloads[i].name || !r.Correct || r.Failed != 0 || r.FailFrac != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Name, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.EndToEnd) != len(allEndToEnd) || len(r.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
				r.Name, len(r.EndToEnd), len(r.PerLayer), len(allEndToEnd), len(perLayer))
		}
		for _, d := range allEndToEnd {
			if v, ok := r.EndToEnd[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", r.Name, d.name, v, d.unit)
			}
			if !strings.Contains(stdout.String(), d.name) {
				t.Errorf("%s not printed", d.name)
			}
		}
		for _, d := range perLayer {
			if v, ok := r.PerLayer[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v, want unit %s", r.Name, d.name, v, d.unit)
			}
		}
		if r.PerLayer["lineage.gate_off"].Value != 1 || r.PerLayer["sqldb.commits_per_write"].Value != 1 {
			t.Errorf("%s: gate_off %v, commits_per_write %v, want 1 and 1", r.Name,
				r.PerLayer["lineage.gate_off"].Value, r.PerLayer["sqldb.commits_per_write"].Value)
		}
		if len(r.Checks) < 4 {
			t.Errorf("%s: checks %q, want page, gate and two restart oracles", r.Name, r.Checks)
		}
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workload":"wire_write"`, `"name":"sqldb.exec_wal"`, `"name":"core.decode_cells"`, `"class":"page"`} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("span file lacks %s", want)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(os.TempDir(), "resin-bench-*")); len(left) != 0 {
		t.Errorf("temp dirs left behind: %v", left)
	}
}

// TestFixedWork: the same seed and --seconds do the same ops — same
// counts per class, same stream, same WAL bytes per user byte — whatever
// the machine does meanwhile; another seed sends another stream.
func TestFixedWork(t *testing.T) {
	one := func(seed string) *workloadResult {
		out := filepath.Join(t.TempDir(), "r.json")
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "-workload", "wire_mixed", "-trace", "0", "-seed", seed, "-out", out}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d\n%s", args, code, stderr.String())
		}
		var rf resultFile
		if err := readJSON(out, &rf); err != nil {
			t.Fatal(err)
		}
		return rf.Workloads[0]
	}
	a, b, c := one("5"), one("5"), one("6")
	wal := func(r *workloadResult) float64 { return r.EndToEnd["wal_bytes_per_user_byte"].Value }
	if a.StreamHash != b.StreamHash || a.Attempted != b.Attempted || !reflect.DeepEqual(a.Ops, b.Ops) || wal(a) != wal(b) {
		t.Errorf("seed 5 twice: stream %s/%s, attempted %d/%d, ops %v/%v, WAL bytes per user byte %v/%v",
			a.StreamHash, b.StreamHash, a.Attempted, b.Attempted, a.Ops, b.Ops, wal(a), wal(b))
	}
	if a.StreamHash == c.StreamHash {
		t.Errorf("seeds 5 and 6 share stream %s", a.StreamHash)
	}
	if a.Attempted != c.Attempted {
		t.Errorf("seeds 5 and 6 attempted %d and %d ops, want the same count", a.Attempted, c.Attempted)
	}
}

// TestDriverLine: with -workload and -trace the last line is the one
// JSON object the driver reads, holding exactly the declared names.
func TestDriverLine(t *testing.T) {
	for trace, decls := range [][]decl{endToEnd, perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "--workload", "wire_mixed", "--seed", "3", "--seconds", "0.3", "--trace", []string{"0", "1"}[trace]}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d\n%s", args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if len(got) != 4 {
			t.Errorf("driver line has keys %v, want exactly correct, attempted, failed, metrics", got)
		}
		var d driverResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &d); err != nil {
			t.Fatal(err)
		}
		if !d.Correct || d.Attempted < 1 || d.Failed != 0 || len(d.Metrics) != len(decls) {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d, %d metrics, want %d",
				trace, d.Correct, d.Attempted, d.Failed, len(d.Metrics), len(decls))
		}
		for _, dc := range decls {
			if m, ok := d.Metrics[dc.name]; !ok || m.Unit != dc.unit {
				t.Errorf("trace %d: %s = %+v, want unit %s", trace, dc.name, m, dc.unit)
			}
		}
	}
	if code := run([]string{"-workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	type wl struct {
		name       string
		point, ops float64 // read_point_us_p50 (0: left out) and ops_per_s; every other metric reads 100
		failFrac   float64
	}
	write := func(path string, wls ...wl) string {
		var rf resultFile
		for _, w := range wls {
			e := map[string]value{}
			for _, d := range allEndToEnd {
				e[d.name] = value{Value: 100, Unit: d.unit}
			}
			e["ops_per_s"] = value{Value: w.ops, Unit: "1/s"}
			e["read_point_us_p50"] = value{Value: w.point, Unit: "us"}
			if w.point == 0 {
				delete(e, "read_point_us_p50")
			}
			rf.Workloads = append(rf.Workloads, &workloadResult{Name: w.name, FailFrac: w.failFrac, EndToEnd: e})
		}
		p := filepath.Join(dir, path)
		if err := writeJSON(p, rf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Both metrics are bounded at 0.25. The recorded runs: on wire_read
	// single runs agree within that; on wire_mixed the point read differs
	// by 37.5 % between two runs of the same code.
	baseline := filepath.Join(dir, "baseline")
	run1 := write("baseline/run1.json", wl{"wire_read", 30, 20000, 0}, wl{"wire_mixed", 80, 6000, 0})
	run2 := write("baseline/run2.json", wl{"wire_read", 31, 19500, 0}, wl{"wire_mixed", 110, 5800, 0})

	n := 0
	fresh := func(w wl) string {
		n++
		return write(fmt.Sprintf("new%d.json", n), w)
	}
	read := func(point, ops, failFrac float64) string { return fresh(wl{"wire_read", point, ops, failFrac}) }
	mixed := func(point, ops float64) string { return fresh(wl{"wire_mixed", point, ops, 0}) }
	base := write("base.json", wl{"wire_read", 30, 20000, 0})
	baseMixed := write("base-mixed.json", wl{"wire_mixed", 80, 6000, 0})
	both := write("both.json", wl{"wire_read", 30, 20000, 0}, wl{"wire_mixed", 80, 6000, 0})
	for _, c := range []struct {
		name                              string
		a, b                              string
		want, regressions, wantUnresolved int
	}{
		{"same", base, read(30, 20000, 0), 0, 0, 0},
		{"inside the bounds", base, read(37, 15500, 0), 0, 0, 0},
		{"better on both", base, read(20, 30000, 0), 0, 0, 0},
		{"latency past its bound", base, read(38, 20000, 0), 1, 1, 0},
		{"throughput past its bound", base, read(30, 14000, 0), 1, 1, 0},
		{"a failed op", base, read(30, 20000, 0.001), 1, 1, 0},
		{"a workload dropped", both, base, 1, 1, 0},
		{"a workload added", base, both, 1, 1, 0},
		{"a metric dropped", base, read(0, 20000, 0), 1, 1, 0},
		{"past the bound, inside the noise of single runs", baseMixed, mixed(105, 6000), 0, 0, 1},
		{"past the bound and the noise", baseMixed, mixed(130, 6000), 1, 1, 0},
		{"one unresolved, one regression", baseMixed, mixed(105, 4000), 1, 1, 1},
		{"two recorded runs", run1, run2, 0, 0, 1},
		{"and the other way round", run2, run1, 0, 0, 0},
	} {
		var stdout, stderr bytes.Buffer
		got := compareFiles(c.a, c.b, baseline, &stdout, &stderr)
		reg, unres := strings.Count(stdout.String(), "REGRESSION"), strings.Count(stdout.String(), "unresolved")
		if got != c.want || reg != c.regressions || unres != c.wantUnresolved {
			t.Errorf("%s: exit %d, %d regressions, %d unresolved; want %d, %d, %d\n%s",
				c.name, got, reg, unres, c.want, c.regressions, c.wantUnresolved, stdout.String())
		}
	}
	if got := compareFiles(base, filepath.Join(dir, "missing.json"), baseline, &bytes.Buffer{}, &bytes.Buffer{}); got != 2 {
		t.Errorf("missing file: exit %d, want 2", got)
	}
}

// TestBaselinePairs: any two of the committed runs compare clean, both
// ways round.
func TestBaselinePairs(t *testing.T) {
	const baseline = "baseline"
	runs, err := filepath.Glob(filepath.Join(baseline, "*.json"))
	if err != nil || len(runs) < 5 {
		t.Fatalf("%d recorded runs in %s (%v), want at least 5", len(runs), baseline, err)
	}
	for _, a := range runs {
		for _, b := range runs {
			var stdout, stderr bytes.Buffer
			if code := compareFiles(a, b, baseline, &stdout, &stderr); code != 0 {
				t.Errorf("-compare %s %s exited %d\n%s", a, b, code, stderr.String())
			}
		}
	}
}
