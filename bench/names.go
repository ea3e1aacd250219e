package main

// Every metric the benchmark emits, with its unit and direction. The
// names are fixed — later issues cite them verbatim — and a test holds
// this file equal to BENCHMARK.json.

type decl struct {
	name, unit, better string
	bound              float64 // end-to-end only: the share by which it may worsen before that counts as a regression
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees and the driver gates: the
// figures whose run-to-run spread on a shared 2-core microVM stays inside
// the largest bound the contract allows, 0.25 (README.md, "What is gated
// and what is only reported"). Every workload reports all of them: a
// metric whose op class is not in the workload's mix comes from a
// reference probe. Names, units and bounds equal BENCHMARK.json's.
var endToEnd = []decl{
	{"setup_s", "s", lower, 0.25},
	{"page_resin_us_p50", "us", lower, 0.25},
	{"page_base_us_p50", "us", lower, 0.25},
	{"page_overhead_ratio", "ratio", lower, 0.15},
	{"wal_bytes_per_user_byte", "ratio", lower, 0.10},
	{"heap_mb_end", "MiB", lower, 0.10},
}

// reported are the other end-to-end figures of the issue: measured,
// checked, printed, written to every result file and judged by -compare
// against the bounds here, exactly like the gated ones — but not in
// BENCHMARK.json, because on this host they follow the minute more than
// the program: the box has slow phases of a few minutes in which the
// two-thread, syscall-heavy wire path costs 30–50 % more CPU per op, so
// over ten runs their interquartile spread reaches 0.2–0.45 whatever the
// estimator, and the contract refuses a benchmark whose declared metric
// does that. fail_frac, the fifteenth, is the result's failed/attempted
// pair: the contract wants metrics that are never 0.
var reported = []decl{
	{"ops_per_s", "1/s", higher, 0.25},
	{"read_point_us_p50", "us", lower, 0.25},
	{"read_point_us_p99", "us", lower, 0.30},
	{"read_range_us_p50", "us", lower, 0.25},
	{"read_text_us_p50", "us", lower, 0.25},
	{"write_us_p50", "us", lower, 0.25},
	{"write_us_p99", "us", lower, 0.30},
	{"cpu_us_per_op", "us", lower, 0.25},
}

// allEndToEnd is endToEnd then reported.
var allEndToEnd = append(append([]decl(nil), endToEnd...), reported...)

// perLayer is one package's own work, measured from outside it.
var perLayer = []decl{
	{name: "core.concat_ns_p50", unit: "ns", better: lower},
	{name: "core.slice_ns_p50", unit: "ns", better: lower},
	{name: "core.channel_write_ns_p50", unit: "ns", better: lower},
	{name: "core.encode_spans_ns_p50", unit: "ns", better: lower},
	{name: "core.decode_spans_hit_ns_p50", unit: "ns", better: lower},
	{name: "core.decode_spans_miss_ns_p50", unit: "ns", better: lower},
	{name: "core.intern_hit_ratio", unit: "ratio", better: higher},
	{name: "core.union_hit_ratio", unit: "ratio", better: higher},
	{name: "core.intern_rotations", unit: "count", better: lower},
	{name: "core.intern_sets_end", unit: "count", better: lower},
	{name: "lineage.page_on_over_off_ratio", unit: "ratio", better: lower},
	{name: "lineage.gate_off", unit: "count", better: higher},
	{name: "httpd.do_self_us_p50", unit: "us", better: lower},
	{name: "sqldb.lex_ns_p50", unit: "ns", better: lower},
	{name: "sqldb.parse_ns_p50", unit: "ns", better: lower},
	{name: "sqldb.rewrite_ns_p50", unit: "ns", better: lower},
	{name: "sqldb.text_point_us_p50", unit: "us", better: lower},
	{name: "sqldb.prepared_point_us_p50", unit: "us", better: lower},
	{name: "sqldb.plan_hit_ratio", unit: "ratio", better: higher},
	{name: "sqldb.lex_per_op", unit: "count", better: lower},
	{name: "sqldb.parse_per_op", unit: "count", better: lower},
	{name: "sqldb.mem_range_us_p50", unit: "us", better: lower},
	{name: "sqldb.mem_insert_us_p50", unit: "us", better: lower},
	{name: "sqldb.mem_update_us_p50", unit: "us", better: lower},
	{name: "sqldb.sort_per_op", unit: "count", better: lower},
	{name: "sqldb.limit_stops_per_op", unit: "count", better: higher},
	{name: "sqldb.wal_insert_us_p50", unit: "us", better: lower},
	{name: "sqldb.wal_update_us_p50", unit: "us", better: lower},
	{name: "sqldb.wal_self_us_p50", unit: "us", better: lower},
	{name: "sqldb.wal_bytes_per_op", unit: "B", better: lower},
	{name: "sqldb.commits_per_write", unit: "count", better: lower},
	{name: "sqldb.compact_ms", unit: "ms", better: lower},
	{name: "sqldb.compact_size_ratio", unit: "ratio", better: lower},
	{name: "sqldb.compact_stall_us_max", unit: "us", better: lower},
	{name: "sqldb.reopen_ms", unit: "ms", better: lower},
	{name: "sqldb.ship_apply_mb_per_s", unit: "MiB/s", better: higher},
	{name: "wire.rtt_status_us_p50", unit: "us", better: lower},
	{name: "wire.self_point_us_p50", unit: "us", better: lower},
	{name: "wire.self_range_us_p50", unit: "us", better: lower},
	{name: "wire.self_insert_us_p50", unit: "us", better: lower},
	{name: "wire.dial_prepare_us_p50", unit: "us", better: lower},
	{name: "wire.replica_lag_bytes_p50", unit: "B", better: lower},
	{name: "wire.replica_lag_bytes_max", unit: "B", better: lower},
	{name: "wire.replica_catchup_ms", unit: "ms", better: lower},
	{name: "wire.replica_resyncs", unit: "count", better: lower},
	{name: "resinsql.self_point_us_p50", unit: "us", better: lower},
	{name: "device.fsync_us_p50", unit: "us", better: lower},
	{name: "device.fsync_us_p99", unit: "us", better: lower},
	{name: "process.allocs_per_op", unit: "count", better: lower},
	{name: "process.alloc_bytes_per_op", unit: "B", better: lower},
	{name: "process.gc_cycles", unit: "count", better: lower},
	{name: "process.gc_pause_ms", unit: "ms", better: lower},
	{name: "process.loadavg_start", unit: "count", better: lower},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: lower},
	{name: "bench.window_spread_p50", unit: "ratio", better: lower},
}

// workload is one traffic shape. clients is fixed at 2 — the core count
// of the box the bounds were measured on — and recorded, never derived at
// run time: more runnable goroutines than cores measures the scheduler.
//
// Work is fixed, not time: a part of a run sends perSecond ops per client
// for every second of --seconds, however long that takes, so two builds
// compared at the same --seconds do identical work and end with the same
// table, the same log and the same heap to account for. The figures are
// sized so that on the reference box the measured parts of a run add up
// to about --seconds.
type workload struct {
	name        string
	why         string
	page        bool    // the main phase renders pages; otherwise it sends m
	m           mix     // main-phase traffic of a wire workload
	perSecond   int     // main-phase ops per client (renders per runtime) for each second of --seconds
	bigPolicies bool    // 16 384 distinct policies instead of 256
	lead        opClass // the class whose windows feed bench.window_spread_p50 and bench.trace_overhead_ratio
}

const nclients = 2

var workloads = []workload{
	{
		name: "page_hotcrp", page: true, perSecond: 16000,
		why: "the paper's own metric: all work is in core, httpd and the in-memory sqldb filter/engine, none in WAL or wire; a tracked-string or interning change shows here first, a WAL or wire change must not",
	},
	{
		name: "wire_read", m: mix{reads: readMix}, perSecond: 6500, bigPolicies: true, lead: opPoint,
		why: "reads over rows carrying 16384 distinct policies, above the 4096-entry annotation memos: wire encode/decode, shadow-column decode and plan/execute do the work and the WAL none",
	},
	{
		name: "wire_write", m: mix{writes: writeMix, writeEvery: 1}, perSecond: 900, lead: opInsert,
		why: "durable writes from two committers with the replica attached: WAL append + fsync under Engine.mu dominates, so group commit or fsync outside the lock must show here",
	},
	{
		name: "wire_mixed", m: mix{reads: readMix, writes: writeMix, writeEvery: 4}, perSecond: 1800, lead: opPoint,
		why: "every 4th op a write, 256 policies that fit every cache: reads queue behind a writer's fsync on the engine lock, so a write-path gain bought by starving readers (or the reverse) shows here only",
	},
}

// probe is a reference probe: a short slice of another workload's traffic
// — wire_read's read mix, wire_write's write mix — sent by both clients,
// so a workload whose own mix lacks a class still reports the class's
// metrics. The driver wants every end-to-end metric from every run.
type probe struct {
	m         mix
	perSecond int // ops per client for each second of --seconds
}

var (
	readProbe  = probe{mix{reads: readMix}, 1300}
	writeProbe = probe{mix{writes: writeMix, writeEvery: 1}, 150}
)

// pageProbePerSecond is the page probe's renders per runtime for each
// second of --seconds, on the workloads whose main phase is not the page.
const pageProbePerSecond = 3000

// probes lists the wire probes of w, in the order they run: the traffic
// w's own mix does not contain.
func (w workload) probes() []probe {
	var ps []probe
	if w.page || !w.m.hasReads() {
		ps = append(ps, readProbe)
	}
	if w.page || !w.m.hasWrites() {
		ps = append(ps, writeProbe)
	}
	return ps
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes a run. full is the benchmark; smoke is the same code at a
// size a test can afford.
type scale struct {
	rows          int
	forums        int
	bigPolicies   int
	smallPolicies int
	setups        int    // stacks built per end-to-end run; setup_s is put together from their pieces
	rounds        int    // slices the measured work is cut into; a slice is one window
	iters         int    // calls per layer microbenchmark
	annotations   int    // distinct annotations streamed through the serializer
	pageBlock     int    // renders per block in the page phase
	probeBlock    int    // renders per block in the page probe
	tmp           string // parent of every directory the run creates
}

var (
	fullScale = scale{rows: 20000, forums: 64, bigPolicies: 16384, smallPolicies: 256,
		setups: 5, rounds: 40, iters: 2000, annotations: 16384, pageBlock: 2000, probeBlock: 200}
	smokeScale = scale{rows: 400, forums: 8, bigPolicies: 256, smallPolicies: 32,
		setups: 1, rounds: 4, iters: 40, annotations: 128, pageBlock: 50, probeBlock: 20}
)
