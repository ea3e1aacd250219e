package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"resin/internal/core"
	"resin/internal/lineage"
	"resin/internal/sqldb"
)

// work is how many ops (per client; renders per runtime) a part of a run
// does at perSecond ops for every second of --seconds.
func work(perSecond int, seconds float64) int {
	return max(1, int(float64(perSecond)*seconds))
}

// The per-layer run replays the end-to-end run's parts at a fraction of
// their length (see runTraced).
const (
	tracedFraction  = 5 // the traced pass: one fifth of the ops, one client
	countedFraction = 2 // the counted phase: half the ops per client, both clients
)

type metrics map[string]float64

// value is one reported figure. A windowed figure is the best window's,
// and carries the median and the worst window, the window count and the
// sample count beside it; Source says whether the workload's own traffic
// or a reference probe produced it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Median  float64 `json:"window_median,omitempty"`
	Worst   float64 `json:"window_worst,omitempty"`
	Windows int     `json:"windows,omitempty"`
	Samples int     `json:"samples,omitempty"`
	Source  string  `json:"source,omitempty"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Name       string           `json:"name"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	FailFrac   float64          `json:"fail_frac"`
	StreamHash string           `json:"stream_hash"`
	Ops        map[string]int   `json:"ops"`
	ElapsedS   float64          `json:"elapsed_s"`
	Checks     []string         `json:"checks"`
	EndToEnd   map[string]value `json:"end_to_end,omitempty"` // gated and reported-only alike
	PerLayer   map[string]value `json:"per_layer,omitempty"`
	Shares     []string         `json:"self_time_shares,omitempty"`

	spans []span
}

func (r *workloadResult) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func (r *workloadResult) finish() {
	r.FailFrac = ratio(float64(r.Failed), float64(r.Attempted))
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

func (r *workloadResult) check(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// restart runs the restart oracle and books its verdict: a failure is one
// failed op, a pass is listed among the checks. It returns nil on failure.
func (r *workloadResult) restart(se *session) *restartReport {
	rep, err := restartCheck(se)
	if err != nil {
		r.count(1, 1)
		logFailure("restart oracle: %v", err)
		return nil
	}
	r.check("restart oracle: %d acknowledged writes present after reopen, byte-identical on primary and replica, frontiers equal", rep.checked)
	return rep
}

func unitOf(decls []decl, name string) string {
	for _, d := range decls {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: undeclared metric " + name)
}

func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f, _ := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return f
}

func requireGateOff() error {
	if lineage.Enabled() {
		return errors.New("lineage gate is on: end-to-end numbers are only taken with it off")
	}
	return nil
}

// env is one workload's table, stack, pages and session.
type env struct {
	sc scale
	t  *table
	st *stack
	pg *pages
	se *session
}

func (e *env) close() error { return e.st.close() }

// setup builds the environment `builds` times, keeps the last, and returns
// every build's piece times.
func setup(w workload, sc scale, seed int64, builds int) (*env, [][]float64, error) {
	policies := sc.smallPolicies
	if w.bigPolicies {
		policies = sc.bigPolicies
	}
	e := &env{sc: sc}
	var times [][]float64
	for i := 0; i < builds; i++ {
		if e.st != nil {
			if err := e.st.close(); err != nil {
				return nil, nil, fmt.Errorf("tear down setup %d: %w", i, err)
			}
		}
		l := &laps{last: time.Now()}
		var err error
		if e.t, err = newTable(seed, sc.rows, sc.forums, policies, nclients); err != nil {
			return nil, nil, err
		}
		l.lap()
		if e.st, err = newStack(e.t, nclients, sc.tmp, l); err != nil {
			return nil, nil, fmt.Errorf("set up stack: %w", err)
		}
		if e.pg, err = newPages(); err != nil {
			e.st.close() //nolint:errcheck // the oracle error is the one to report
			return nil, nil, err
		}
		l.lap()
		times = append(times, l.pieces)
	}
	e.se = newSession(e.t, e.st, w.name)
	return e, times, nil
}

// setupTime puts setup_s together from several builds: the sum over the
// pieces of a build of the quickest that piece was in any build — the
// best window again, a window being one piece. A whole build takes half a
// second, and the host's preemptions land somewhere in every one of them;
// they do not land on the same hundred rows five times. The median and
// the slowest whole build stand beside it.
func setupTime(builds [][]float64) windowed {
	if len(builds) == 0 {
		return windowed{}
	}
	var totals []float64
	best := append([]float64(nil), builds[0]...)
	for _, b := range builds {
		total := 0.0
		for i, d := range b {
			total += d
			best[i] = math.Min(best[i], d)
		}
		totals = append(totals, total)
	}
	out := bestOf(totals, lower)
	out.Best = 0
	for _, d := range best {
		out.Best += d
	}
	return out
}

// e2e collects a run's end-to-end figures, gated and reported-only alike.
type e2e map[string]value

func (o e2e) set(name string, v float64, src string) {
	o[name] = value{Value: v, Unit: unitOf(allEndToEnd, name), Source: src}
}

// setWindowed books a windowed figure, scaled into the metric's unit.
func (o e2e) setWindowed(name string, w windowed, scale float64, src string) {
	o[name] = value{Value: w.Best * scale, Unit: unitOf(allEndToEnd, name),
		Median: w.Median * scale, Worst: w.Worst * scale, Windows: w.Windows, Samples: w.Samples, Source: src}
}

const nsToUs = 1e-3

func (o e2e) reads(rs []*phaseResult, src string) {
	o.setWindowed("read_point_us_p50", windowStat(latencies(rs, opPoint), 0.5), nsToUs, src)
	o.setWindowed("read_point_us_p99", windowStat(latencies(rs, opPoint), 0.99), nsToUs, src)
	o.setWindowed("read_text_us_p50", windowStat(latencies(rs, opText), 0.5), nsToUs, src)
	o.setWindowed("read_range_us_p50", windowStat(latencies(rs, opRange), 0.5), nsToUs, src)
}

func (o e2e) writes(rs []*phaseResult, src string) {
	lat := latencies(rs, opInsert, opUpdate)
	o.setWindowed("write_us_p50", windowStat(lat, 0.5), nsToUs, src)
	o.setWindowed("write_us_p99", windowStat(lat, 0.99), nsToUs, src)
	var wal, user int64
	for _, r := range rs {
		wal, user = wal+r.walBytes, user+r.userBytes
	}
	o.set("wal_bytes_per_user_byte", ratio(float64(wal), float64(user)), src)
}

// wire books the metrics a wire phase of mix m yields.
func (o e2e) wire(m mix, rs []*phaseResult, src string) {
	if m.hasReads() {
		o.reads(rs, src)
	}
	if m.hasWrites() {
		o.writes(rs, src)
	}
}

func (o e2e) pages(r *pairResult, src string) {
	o.setWindowed("page_resin_us_p50", windowStat(chunks(r.a, r.block), 0.5), nsToUs, src)
	o.setWindowed("page_base_us_p50", windowStat(chunks(r.b, r.block), 0.5), nsToUs, src)
	o.set("page_overhead_ratio", r.ratio(), src)
}

// runE2E is one untraced run of a workload: every end-to-end metric.
//
// After a discarded warm-up a wire workload does its work in sc.rounds
// rounds, each one slice of the workload's own traffic followed by one
// slice of every reference probe; a slice is one window of its metrics.
// Interleaving spreads every metric's windows over the whole run, so a
// burst of host noise lands on a few windows of each metric rather than
// on the whole of one.
func runE2E(w workload, sc scale, seed int64, seconds float64) (_ *workloadResult, err error) {
	if err := requireGateOff(); err != nil {
		return nil, err
	}
	e, setups, err := setup(w, sc, seed, sc.setups)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, e.close()) }()

	res := &workloadResult{Name: w.name, Ops: map[string]int{}, StreamHash: streamHash(e.t, w, 4096)}
	res.check("page oracle: tracked and untracked bodies byte-equal, Anonymous shown, password-preview attack blocked (fresh and timed instance)")
	res.check("lineage gate off")

	perRound := func(perSecond int) int { return max(1, work(perSecond, seconds)/sc.rounds) }
	probes := w.probes()
	var (
		mainWire  []*phaseResult
		probeWire = make([][]*phaseResult, len(probes))
		mainPage  = &pairResult{block: sc.pageBlock}
		probePage = &pairResult{block: sc.probeBlock}
	)
	if w.page {
		// The page phase is not sliced: switching to wire traffic and back
		// leaves the tracked runtime's working set cold, which moved the
		// overhead ratio from 2.2 to 2.4 when it was tried. Block pairs
		// already spread both runtimes over the whole phase.
		pairs := max(1, work(w.perSecond, seconds)/sc.pageBlock)
		e.pg.run(&pairResult{block: sc.pageBlock}, pairs/16+1)
		e.pg.run(mainPage, pairs)
	} else {
		e.se.run(phase{m: w.m, nclients: nclients, ops: 2 * perRound(w.perSecond)})
	}
	for round := 0; round < sc.rounds; round++ {
		if !w.page {
			mainWire = append(mainWire, e.se.run(phase{m: w.m, nclients: nclients, ops: perRound(w.perSecond)}))
			e.pg.run(probePage, max(1, perRound(pageProbePerSecond)/sc.probeBlock))
		}
		for i, p := range probes {
			probeWire[i] = append(probeWire[i], e.se.run(phase{m: p.m, nclients: nclients, ops: perRound(p.perSecond)}))
		}
	}

	const mainSrc, probeSrc = "main", "probe"
	out := e2e{}
	out.setWindowed("setup_s", setupTime(setups), 1, "setup")
	var mainRates []rate
	if w.page {
		mainRates, res.ElapsedS = mainPage.rates, mainPage.elapsed.Seconds()
		res.count(mainPage.renders, mainPage.failed)
		res.Ops["page"] = mainPage.renders
		out.pages(mainPage, mainSrc)
	} else {
		mainRates = rates(mainWire)
		res.count(probePage.renders, probePage.failed)
		out.pages(probePage, probeSrc)
		for _, r := range mainWire {
			res.count(r.ops, r.failed)
			res.ElapsedS += r.elapsed.Seconds()
			for c := opClass(0); c < numClasses; c++ {
				res.Ops[c.String()] += len(r.lat[c])
			}
		}
		out.wire(w.m, mainWire, mainSrc)
	}
	for i, p := range probes {
		for _, r := range probeWire[i] {
			res.count(r.ops, r.failed)
		}
		out.wire(p.m, probeWire[i], probeSrc)
	}
	opsPerS, cpuPerOp := windowRates(mainRates)
	out.setWindowed("ops_per_s", opsPerS, 1, mainSrc)
	out.setWindowed("cpu_us_per_op", cpuPerOp, 1, mainSrc)
	mainWire, probeWire, mainPage, probePage = nil, nil, nil, nil // the samples are not the program's heap
	out.set("heap_mb_end", heapMiB(), mainSrc)

	res.restart(e.se)
	if err := requireGateOff(); err != nil {
		return nil, err
	}
	res.EndToEnd = out
	res.finish()
	return res, nil
}

// counters are the public counters read around the counted phase.
type counters struct {
	intern                 core.InternStats
	plan                   sqldb.PlanCacheStats
	lex, parse, sort, stop uint64
	mem                    runtime.MemStats
}

func readCounters(db *sqldb.DB) counters {
	c := counters{
		intern: core.ReadInternStats(),
		plan:   db.Filter().PlanStats(),
		lex:    sqldb.TokenizeCount(), parse: sqldb.ParseCount(),
		sort: sqldb.SortCount(), stop: sqldb.LimitStopCount(),
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func hitRatio(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }

func (m metrics) counted(a, b counters, ops int) {
	n := float64(ops)
	m["core.intern_hit_ratio"] = hitRatio(b.intern.SetHits-a.intern.SetHits, b.intern.SetMisses-a.intern.SetMisses)
	m["core.union_hit_ratio"] = hitRatio(b.intern.UnionHits-a.intern.UnionHits, b.intern.UnionMisses-a.intern.UnionMisses)
	m["core.intern_rotations"] = float64(b.intern.Flushes - a.intern.Flushes)
	m["core.intern_sets_end"] = float64(b.intern.Sets)
	m["sqldb.plan_hit_ratio"] = hitRatio(b.plan.Hits-a.plan.Hits, b.plan.Misses-a.plan.Misses)
	m["sqldb.lex_per_op"] = ratio(float64(b.lex-a.lex), n)
	m["sqldb.parse_per_op"] = ratio(float64(b.parse-a.parse), n)
	m["sqldb.sort_per_op"] = ratio(float64(b.sort-a.sort), n)
	m["sqldb.limit_stops_per_op"] = ratio(float64(b.stop-a.stop), n)
	m["process.allocs_per_op"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), n)
	m["process.alloc_bytes_per_op"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), n)
	m["process.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["process.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
}

// runTraced is the per-layer run of a workload. In order:
//
//  1. the traced pass — one client replays the workload's stream at one
//     fifth of the end-to-end run's ops, then the page, then each op class
//     its mix lacks, every call followed by its twin replays (twins equal
//     the primary here, nothing else has written yet);
//  2. the same mix untraced with one client, for bench.trace_overhead_ratio;
//  3. the counted phase — the workload as the end-to-end run sends it, at
//     half the ops, with the public counters read before and after;
//  4. the layer microbenchmarks, compaction under writes, and the restart
//     oracle, whose reopen and replica catch-up are themselves metrics.
func runTraced(w workload, sc scale, seed int64, seconds float64) (_ *workloadResult, err error) {
	if err := requireGateOff(); err != nil {
		return nil, err
	}
	m := metrics{"lineage.gate_off": 1, "process.loadavg_start": loadAvg()}
	e, _, err := setup(w, sc, seed, 1)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	res := &workloadResult{Name: w.name, Ops: map[string]int{}, StreamHash: streamHash(e.t, w, 4096)}

	tr := &tracer{epoch: time.Now()}
	if tr.wal, err = newTwin(e.t, filepath.Join(e.st.dir, "twin.wal")); err != nil {
		return nil, fmt.Errorf("WAL twin: %w", err)
	}
	defer tr.wal.db.Close() //nolint:errcheck // scratch twin, directory removed by env.close
	if tr.mem, err = newTwin(e.t, ""); err != nil {
		return nil, fmt.Errorf("memory twin: %w", err)
	}

	// 1. Traced pass.
	traced := func(perSecond int) int { return max(1, work(perSecond, seconds)/tracedFraction) }
	e.se.tr = tr
	tracedPhase := func(mx mix, ops int) *phaseResult {
		r := e.se.run(phase{m: mx, nclients: 1, ops: ops})
		res.count(r.ops, r.failed)
		return r
	}
	tracedPage := func(n int) ([]int64, error) {
		lat, err := e.pg.traced(tr, n)
		res.count(len(lat), 0)
		return lat, err
	}
	// leadOps is the length of the traced main slice and of its untraced
	// twin in step 2.
	leadOps := nclients * traced(w.perSecond)
	if w.page {
		leadOps = traced(w.perSecond) / 2 // three spans a render: keep the span file small
	}
	wal0, front0 := tr.wal.db.WALSize(), tr.wal.db.Frontier()
	var tracedLead []int64
	tracedWrites := 0
	if w.page {
		if _, err := tracedPage(leadOps/16 + 1); err != nil {
			return nil, err
		}
		tr.spans, tr.ops = tr.spans[:0], 0
		if tracedLead, err = tracedPage(leadOps); err != nil {
			return nil, err
		}
	} else {
		tracedPhase(w.m, leadOps/16+1)
		tr.spans, tr.ops = tr.spans[:0], 0
		wal0, front0 = tr.wal.db.WALSize(), tr.wal.db.Frontier()
		r := tracedPhase(w.m, leadOps)
		tracedLead = r.lat[w.lead]
		tracedWrites += r.writes()
		if _, err := tracedPage(traced(pageProbePerSecond)); err != nil {
			return nil, err
		}
	}
	for _, p := range w.probes() {
		tracedWrites += tracedPhase(p.m, nclients*traced(p.perSecond)).writes()
	}
	e.se.tr = nil
	m["sqldb.wal_bytes_per_op"] = ratio(float64(tr.wal.db.WALSize()-wal0), float64(tracedWrites))
	m["sqldb.commits_per_write"] = ratio(float64(tr.wal.db.Frontier()-front0), float64(tracedWrites))
	res.Ops["traced"] = tr.ops
	res.spans = tr.spans

	// 2. The same slice untraced, one client.
	var untracedLead []int64
	if w.page {
		pr := &pairResult{block: sc.probeBlock}
		e.pg.run(pr, max(1, leadOps/sc.probeBlock))
		untracedLead = pr.a
	} else {
		r := e.se.run(phase{m: w.m, nclients: 1, ops: leadOps})
		res.count(r.ops, r.failed)
		untracedLead = r.lat[w.lead]
	}
	m["bench.trace_overhead_ratio"] = ratio(
		windowStat(cut(tracedLead, sc.rounds), 0.5).Best, windowStat(cut(untracedLead, sc.rounds), 0.5).Best)

	// 3. Counted phase.
	before := readCounters(e.st.db)
	var lead windowed
	if w.page {
		pr := &pairResult{block: sc.pageBlock}
		e.pg.run(pr, max(1, work(w.perSecond, seconds)/countedFraction/sc.pageBlock))
		res.count(pr.renders, pr.failed)
		res.Ops["counted"], res.ElapsedS = pr.renders, pr.elapsed.Seconds()
		lead = windowStat(chunks(pr.a, pr.block), 0.5)
	} else {
		r := e.se.run(phase{m: w.m, nclients: nclients, ops: max(1, work(w.perSecond, seconds)/countedFraction)})
		res.count(r.ops, r.failed)
		res.Ops["counted"], res.ElapsedS = r.ops, r.elapsed.Seconds()
		lead = windowStat(cut(r.lat[w.lead], sc.rounds), 0.5)
		m["wire.replica_lag_bytes_p50"] = median(r.lag)
		m["wire.replica_lag_bytes_max"] = percentile(r.lag, 1)
	}
	m.counted(before, readCounters(e.st.db), res.Ops["counted"])
	m["bench.window_spread_p50"] = lead.spread()
	m["wire.replica_resyncs"] = float64(e.st.rep.Resyncs())

	// 4. Layers, compaction, restart.
	if err := layerBenches(m, e, tr, seconds); err != nil {
		return nil, err
	}
	if rep := res.restart(e.se); rep != nil {
		m["sqldb.reopen_ms"] = float64(rep.reopen) / 1e6
		m["wire.replica_catchup_ms"] = float64(rep.catchup) / 1e6
		if err := shipApply(m, rep.reopened, e.st.dir); err != nil {
			return nil, fmt.Errorf("ship apply: %w", err)
		}
	}
	if err := requireGateOff(); err != nil {
		return nil, err
	}
	res.Shares = m.fromSpans(rollup(tr.spans))
	res.PerLayer = map[string]value{}
	for _, d := range perLayer {
		res.PerLayer[d.name] = value{Value: m[d.name], Unit: d.unit}
	}
	res.finish()
	return res, nil
}

func layerBenches(m metrics, e *env, tr *tracer, seconds float64) error {
	steps := []struct {
		name string
		run  func() error
	}{
		{"wire floor", func() error { return wireFloor(m, e.st, e.sc.iters) }},
		{"database/sql driver", func() error { return driverSelf(m, e.t, e.st, e.sc.iters) }},
		{"device fsync", func() error { return deviceFsync(m, e.st.dir, e.sc.iters/4) }},
		{"core ops", func() error { return coreOps(m, e.sc.iters) }},
		{"serialize", func() error { return serializeOps(m, e.sc.annotations) }},
		{"text to plan", func() error { return textToPlan(m, tr.mem.db.Engine(), e.sc.iters) }},
		{"compaction", func() error { return compaction(m, e.t, tr.wal) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	m["lineage.page_on_over_off_ratio"] = e.pg.runLineage(e.sc.probeBlock,
		max(1, work(pageProbePerSecond, seconds)/2/e.sc.probeBlock))
	return nil
}

// fromSpans turns the traced pass's spans into the per-layer self times,
// and returns one line per op class saying where its time went.
func (m metrics) fromSpans(roots []layerTimes) []string {
	us := func(f func(layerTimes) float64, classes ...string) float64 {
		return p50Of(roots, f, classes...) / 1e3
	}
	op := func(r layerTimes) float64 { return r.op }
	wal := func(r layerTimes) float64 { return r.child[spanExecWAL] }
	mem := func(r layerTimes) float64 { return r.child[spanExecMem] }
	ser := func(r layerTimes) float64 { return r.child[spanEncode] + r.child[spanDecode] }
	wireSelf := func(r layerTimes) float64 { return r.op - r.child[spanExecWAL] }
	walSelf := func(r layerTimes) float64 { return r.child[spanExecWAL] - r.child[spanExecMem] }
	engine := func(r layerTimes) float64 { return mem(r) - ser(r) }
	point, text, rng, ins, upd := opPoint.String(), opText.String(), opRange.String(), opInsert.String(), opUpdate.String()

	m["wire.self_point_us_p50"] = us(wireSelf, point)
	m["wire.self_range_us_p50"] = us(wireSelf, rng)
	m["wire.self_insert_us_p50"] = us(wireSelf, ins)
	m["sqldb.wal_insert_us_p50"] = us(wal, ins)
	m["sqldb.wal_update_us_p50"] = us(wal, upd)
	m["sqldb.wal_self_us_p50"] = us(walSelf, ins, upd)
	m["sqldb.mem_insert_us_p50"] = us(mem, ins)
	m["sqldb.mem_update_us_p50"] = us(mem, upd)
	m["sqldb.mem_range_us_p50"] = us(mem, rng)
	m["sqldb.prepared_point_us_p50"] = us(mem, point)
	m["sqldb.text_point_us_p50"] = us(mem, text)
	m["httpd.do_self_us_p50"] = us(func(r layerTimes) float64 { return r.op - mem(r) }, classPage)

	var lines []string
	for _, c := range []string{point, text, rng, ins, upd} {
		total := us(op, c)
		if total == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf(
			"%-6s op %8.1f us = wire %5.1f%% + wal %5.1f%% + engine/filter %5.1f%% + serialize %5.1f%%",
			c, total, 100*us(wireSelf, c)/total, 100*us(walSelf, c)/total, 100*us(engine, c)/total, 100*us(ser, c)/total))
	}
	if total := us(op, classPage); total > 0 {
		lines = append(lines, fmt.Sprintf("%-6s op %8.1f us = httpd %5.1f%% + sql %5.1f%%",
			classPage, total, 100*m["httpd.do_self_us_p50"]/total, 100*us(mem, classPage)/total))
	}
	return lines
}
