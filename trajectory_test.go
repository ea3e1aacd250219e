package resin_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
)

// trajectoryRecord is one measured performance claim in
// BENCH_trajectory.json: the parent's and the change's values of one
// metric on one workload, pair by pair in seed order, as
// scripts/bench-pairs.sh prints them.
type trajectoryRecord struct {
	Title    string    `json:"title"`
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Better   string    `json:"better"`
	Seeds    []int     `json:"seeds"`
	Parent   []float64 `json:"parent"`
	Change   []float64 `json:"change"`
	Wins     int       `json:"wins"`
	Pairs    int       `json:"pairs"`
	Command  string    `json:"command"`
}

// benchmarkSpec is what the trajectory check reads of BENCHMARK.json:
// the workload names and each metric's direction.
type benchmarkSpec struct {
	workloads map[string]bool
	better    map[string]string
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	type metric struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	}
	var raw struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	spec := benchmarkSpec{workloads: map[string]bool{}, better: map[string]string{}}
	for _, w := range raw.Workloads {
		spec.workloads[w.Name] = true
	}
	for _, m := range append(raw.EndToEnd, raw.PerLayer...) {
		spec.better[m.Name] = m.Better
	}
	return spec
}

// deterministicMetrics repeat within 1 % for a seed, so three pairs, all
// won, make a claim on them; any other metric needs nine wins in ten.
var deterministicMetrics = map[string]bool{"heap_mb_end": true, "wal_bytes_per_user_byte": true}

// problems returns what is wrong with r as a claim, or nothing.
func (spec benchmarkSpec) problems(r trajectoryRecord) []string {
	var out []string
	if r.Title == "" || r.Command == "" {
		out = append(out, "no title or no command")
	}
	if !spec.workloads[r.Workload] {
		out = append(out, fmt.Sprintf("workload %q is not in BENCHMARK.json", r.Workload))
	}
	switch better, ok := spec.better[r.Metric]; {
	case !ok:
		out = append(out, fmt.Sprintf("metric %q is not in BENCHMARK.json", r.Metric))
	case r.Better != better:
		out = append(out, fmt.Sprintf("better %q, but BENCHMARK.json says %q", r.Better, better))
	}
	if len(r.Parent) != r.Pairs || len(r.Change) != r.Pairs || len(r.Seeds) != r.Pairs {
		return append(out, fmt.Sprintf("%d pairs, but %d parent values, %d change values and %d seeds", r.Pairs, len(r.Parent), len(r.Change), len(r.Seeds)))
	}
	seeds := slices.Clone(r.Seeds)
	slices.Sort(seeds)
	if len(slices.Compact(seeds)) != len(r.Seeds) {
		out = append(out, fmt.Sprintf("seeds %v repeat", r.Seeds))
	}
	beats := func(change, parent float64) bool {
		if r.Better == "higher" {
			return change > parent
		}
		return change < parent
	}
	wins := 0
	for i := range r.Parent {
		if beats(r.Change[i], r.Parent[i]) {
			wins++
		}
	}
	if wins != r.Wins {
		out = append(out, fmt.Sprintf("records %d wins, the values give %d", r.Wins, wins))
	}
	if deterministicMetrics[r.Metric] {
		if r.Pairs < 3 || wins < r.Pairs {
			out = append(out, fmt.Sprintf("%d/%d wins; a claim on %s needs ≥ 3 pairs, all won", wins, r.Pairs, r.Metric))
		}
	} else if r.Pairs < 10 || 10*wins < 9*r.Pairs {
		out = append(out, fmt.Sprintf("%d/%d wins; a claim on %s needs ≥ 9 in 10 of ≥ 10 pairs", wins, r.Pairs, r.Metric))
	}
	if r.Pairs > 0 && !beats(median(r.Change), median(r.Parent)) {
		out = append(out, fmt.Sprintf("the change's median %g does not beat the parent's %g", median(r.Change), median(r.Parent)))
	}
	return out
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// TestTrajectoryWellFormed checks every record of BENCH_trajectory.json,
// the repository's measured performance claims: its workload and metric
// are BENCHMARK.json's and its direction is the metric's; its wins are
// what its values give and meet the bar for its metric (3/3 for a metric
// that repeats for a seed, 9/10 for any other); and the change's median
// beats the parent's. It also checks that a record failing any of these
// is refused.
func TestTrajectoryWellFormed(t *testing.T) {
	spec := readBenchmarkSpec(t)
	data, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var records []trajectoryRecord
	if err := dec.Decode(&records); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("BENCH_trajectory.json holds no record")
	}
	for i, r := range records {
		for _, p := range spec.problems(r) {
			t.Errorf("record %d (%s, %s on %s): %s", i, r.Title, r.Metric, r.Workload, p)
		}
	}

	good := trajectoryRecord{
		Title: "a claim", Workload: "wire_write", Metric: "heap_mb_end", Better: "lower",
		Seeds: []int{1, 2, 3}, Parent: []float64{33.1, 33.2, 33.1}, Change: []float64{30.3, 30.4, 30.3},
		Wins: 3, Pairs: 3, Command: "bash scripts/bench-pairs.sh -w wire_write -n 3",
	}
	if p := spec.problems(good); len(p) > 0 {
		t.Fatalf("a good record is refused: %v", p)
	}
	for name, spoil := range map[string]func(*trajectoryRecord){
		"an unknown metric":   func(r *trajectoryRecord) { r.Metric = "heap_mb" },
		"an unknown workload": func(r *trajectoryRecord) { r.Workload = "wire" },
		"the wrong direction": func(r *trajectoryRecord) { r.Better = "higher" },
		"a lost pair":         func(r *trajectoryRecord) { r.Change[1], r.Wins = 33.3, 2 },
		"a miscounted win":    func(r *trajectoryRecord) { r.Wins = 2 },
		"too few pairs": func(r *trajectoryRecord) {
			r.Seeds, r.Parent, r.Change, r.Wins, r.Pairs = r.Seeds[:2], r.Parent[:2], r.Change[:2], 2, 2
		},
		"a value missing":        func(r *trajectoryRecord) { r.Change = r.Change[:2] },
		"a repeated seed":        func(r *trajectoryRecord) { r.Seeds[2] = 1 },
		"a timing metric, three": func(r *trajectoryRecord) { r.Metric = "setup_s" },
		"no title":               func(r *trajectoryRecord) { r.Title = "" },
	} {
		r := good
		r.Seeds, r.Parent, r.Change = slices.Clone(good.Seeds), slices.Clone(good.Parent), slices.Clone(good.Change)
		spoil(&r)
		if len(spec.problems(r)) == 0 {
			t.Errorf("a record with %s is accepted", name)
		}
	}
	ten := trajectoryRecord{
		Title: "a claim", Workload: "page_hotcrp", Metric: "setup_s", Better: "lower",
		Seeds:  []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Parent: []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, Change: []float64{4, 4, 4, 4, 4, 4, 4, 4, 4, 9},
		Wins: 9, Pairs: 10, Command: "bash scripts/bench-pairs.sh -n 5",
	}
	if len(spec.problems(ten)) != 0 {
		t.Errorf("nine wins in ten are refused: %v", spec.problems(ten))
	}
	ten.Parent = []float64{4.1, 4.1, 4.1, 4.1, 4.1, 3, 3, 3, 3, 3}
	ten.Change = []float64{4, 4, 4, 4, 4, 2.9, 2.9, 2.9, 2.9, 9}
	if len(spec.problems(ten)) == 0 {
		t.Error("a change median ten than the parent's is accepted")
	}
}
