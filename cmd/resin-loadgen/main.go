// Command resin-loadgen drives the forum workload through the wire
// server and prints a JSON report of latency, throughput and replica
// staleness. Every request crosses the TCP protocol (docs/WIRE.md),
// writes carry tainted payloads, and the run fails unless a tainted
// value written through a client comes back over the wire with its
// policy set byte-identical to an in-process read. Its numbers are not
// the repo's benchmark (that is bench/, see bench/README.md).
//
// scripts/server-integration.sh runs it against real servers over TCP:
//
//	resin-loadgen -smoke -audit -addr host:7634 -replica host:7635
//
// Without -addr it spawns an in-process WAL-backed primary, a
// WAL-shipping replica, and TCP servers for both, then loads them:
//
//	resin-loadgen -conns 1000 -requests 20 > report.json
//
// -smoke is a handful of connections, one batch of requests, full
// taint-round-trip assertion, same JSON shape.
//
// -audit additionally runs the lineage probe after the load: an
// in-process forum app posts a tainted body (httpd taint filter → SQL
// shadow column), ships it across the wire connection, and the run
// fails unless /audit reports every crossing in execution order
// (docs/LINEAGE.md §5).
//
// The run also fails if the replica staleness sampler ever observes a
// negative lag — the PrimarySize/Applied accounting regressing across a
// resync is a bug, never something to clamp away silently.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"resin/internal/core"
	"resin/internal/lineage"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
	"resin/internal/wire"

	// A wire client must have the policy classes of the data it reads
	// registered (docs/WIRE.md §3); a -seed-forum server's rows carry
	// forum.MessagePolicy. The -audit probe also drives the app itself.
	"resin/internal/apps/forum"
)

type report struct {
	Bench          string  `json:"bench"`
	Date           string  `json:"date"`
	Conns          int     `json:"conns"`
	Requests       int     `json:"requests"`
	Writes         int64   `json:"writes"`
	Reads          int64   `json:"reads"`
	Errors         int64   `json:"errors"`
	DurationSec    float64 `json:"duration_sec"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	P50Ms          float64 `json:"latency_p50_ms"`
	P99Ms          float64 `json:"latency_p99_ms"`
	MaxMs          float64 `json:"latency_max_ms"`
	MaxStaleBytes  int64   `json:"max_staleness_bytes"`
	FinalStale     int64   `json:"final_staleness_bytes"`
	PrimaryFront   uint64  `json:"primary_frontier"`
	ReplicaFront   uint64  `json:"replica_frontier"`
	TaintRoundTrip string  `json:"taint_roundtrip"`
	Audit          string  `json:"audit,omitempty"`
}

func main() {
	var (
		addr      = flag.String("addr", "", "primary address (empty = self-contained in-process servers)")
		replica   = flag.String("replica", "", "replica address for staleness sampling (optional)")
		conns     = flag.Int("conns", 1000, "concurrent client connections")
		requests  = flag.Int("requests", 20, "requests per connection")
		writeFrac = flag.Float64("write-frac", 0.25, "fraction of requests that write")
		smoke     = flag.Bool("smoke", false, "CI smoke: 8 conns, 2 requests each, full assertions")
		audit     = flag.Bool("audit", false, "run the /audit lineage probe after the load; fail unless the trace is complete and ordered")
	)
	flag.Parse()
	if *smoke {
		*conns, *requests = 8, 2
	}
	raiseFDLimit(*conns)

	// Self-contained mode: primary + replica + servers, all in-process.
	var primaryDB *sqldb.DB
	var rep *wire.Replica
	if *addr == "" {
		var cleanup func()
		primaryDB, rep, *addr, *replica, cleanup = selfContained()
		defer cleanup()
	}

	setup, err := wire.Dial(*addr)
	if err != nil {
		log.Fatalf("resin-loadgen: dial %s: %v", *addr, err)
	}
	mustExec(setup, "CREATE TABLE messages (id INT, forum INT, author TEXT, subject TEXT, body TEXT)")
	mustExec(setup, "CREATE INDEX ON messages (forum)")
	mustExec(setup, "CREATE INDEX ON messages (id)")

	// Staleness sampler: poll the replica's own status over its socket
	// (or in-process when self-contained) while the load runs. The lag
	// is the raw PrimarySize-Applied difference — a negative sample is a
	// replication accounting bug and fails the run (tripwire below),
	// never a value to clamp away.
	var maxStale, negStale atomic.Int64
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	staleness := func() (int64, bool) { return 0, false }
	if rep != nil {
		staleness = func() (int64, bool) {
			st := rep.Status()
			return st.PrimarySize - st.Applied, true
		}
	} else if *replica != "" {
		rc, err := wire.Dial(*replica)
		if err != nil {
			log.Fatalf("resin-loadgen: dial replica %s: %v", *replica, err)
		}
		defer rc.Close() //nolint:errcheck
		staleness = func() (int64, bool) {
			st, err := rc.Status()
			if err != nil {
				return 0, false
			}
			return st.PrimarySize - st.Applied, true
		}
	}
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-t.C:
				lag, ok := staleness()
				switch {
				case !ok:
				case lag < 0:
					negStale.Store(lag)
				case lag > maxStale.Load():
					maxStale.Store(lag)
				}
			}
		}
	}()

	// The load: each worker holds one connection with two prepared
	// statements, issuing a read/write mix. Writes bind a tainted body —
	// the annotation crosses the wire on every insert.
	var (
		wg       sync.WaitGroup
		writes   atomic.Int64
		reads    atomic.Int64
		failures atomic.Int64
		msgID    atomic.Int64
		latMu    sync.Mutex
		lats     []time.Duration
	)
	start := time.Now()
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.Dial(*addr)
			if err != nil {
				failures.Add(int64(*requests))
				return
			}
			defer c.Close() //nolint:errcheck
			ins, err := c.Prepare(core.NewString(
				"INSERT INTO messages (id, forum, author, subject, body) VALUES (?, ?, ?, ?, ?)"))
			if err != nil {
				failures.Add(int64(*requests))
				return
			}
			sel, err := c.Prepare(core.NewString(
				"SELECT id, author, body FROM messages WHERE forum = ? ORDER BY id LIMIT ?"))
			if err != nil {
				failures.Add(int64(*requests))
				return
			}
			local := make([]time.Duration, 0, *requests)
			writeEvery := 0
			if *writeFrac > 0 {
				writeEvery = int(1 / *writeFrac)
			}
			for i := 0; i < *requests; i++ {
				t0 := time.Now()
				if writeEvery > 0 && i%writeEvery == 0 {
					id := msgID.Add(1)
					body := sanitize.Taint(
						core.NewString(fmt.Sprintf("post %d from worker %d", id, w)),
						fmt.Sprintf("form:w%d", w))
					_, err = ins.Exec(id, int(id%4)+1, fmt.Sprintf("user%d", w), "load", body)
					if err == nil {
						writes.Add(1)
					}
				} else {
					_, err = sel.Query(w%4+1, 10)
					if err == nil {
						reads.Add(1)
					}
				}
				if err != nil {
					if failures.Add(1) <= 3 {
						log.Printf("resin-loadgen: worker %d request %d: %v", w, i, err)
					}
				} else {
					local = append(local, time.Since(t0))
				}
			}
			latMu.Lock()
			lats = append(lats, local...)
			latMu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopSample)
	sampleWG.Wait()

	// Taint round trip: one more tainted write, read back over the wire,
	// annotation must equal the canonical EncodeSpans form — and, when
	// self-contained, be byte-identical to the in-process read.
	taintStatus, err := assertTaintRoundTrip(setup, primaryDB)
	if err != nil {
		log.Fatalf("resin-loadgen: taint round trip: %v", err)
	}

	// Lineage probe: drive a tainted value httpd → SQL → wire and
	// require the complete ordered trace from /audit.
	auditStatus := ""
	if *audit {
		auditStatus, err = runAuditProbe(setup)
		if err != nil {
			log.Fatalf("resin-loadgen: audit probe: %v", err)
		}
	}

	rpt := report{
		Bench:          "wire",
		Date:           time.Now().UTC().Format(time.RFC3339),
		Conns:          *conns,
		Requests:       *conns * *requests,
		Writes:         writes.Load(),
		Reads:          reads.Load(),
		Errors:         failures.Load(),
		DurationSec:    elapsed.Seconds(),
		ThroughputRPS:  float64(writes.Load()+reads.Load()) / elapsed.Seconds(),
		MaxStaleBytes:  maxStale.Load(),
		TaintRoundTrip: taintStatus,
		Audit:          auditStatus,
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rpt.P50Ms = ms(lats[len(lats)/2])
		rpt.P99Ms = ms(lats[len(lats)*99/100])
		rpt.MaxMs = ms(lats[len(lats)-1])
	}
	if st, err := setup.Status(); err == nil {
		rpt.PrimaryFront = st.Frontier
	}
	if rep != nil {
		// Let the replica settle, then record the final gap and frontier.
		deadline := time.Now().Add(10 * time.Second)
		for rep.Staleness() > 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		rpt.FinalStale = rep.Staleness()
		rpt.ReplicaFront = rep.DB().Frontier()
	} else if *replica != "" {
		if lag, ok := staleness(); ok {
			if lag < 0 {
				negStale.Store(lag)
			}
			rpt.FinalStale = lag
		}
	}
	setup.Close() //nolint:errcheck

	blob, err := json.MarshalIndent(rpt, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	os.Stdout.Write(blob) //nolint:errcheck
	if neg := negStale.Load(); neg < 0 {
		log.Fatalf("resin-loadgen: sampled negative replica staleness %d bytes — PrimarySize/Applied accounting regressed", neg)
	}
	if rpt.Errors > 0 {
		log.Fatalf("resin-loadgen: %d request(s) failed", rpt.Errors)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// mustExec runs a setup statement, tolerating "already exists" so the
// harness can target a server whose forum schema is pre-seeded.
func mustExec(c *wire.Conn, q string) {
	if _, err := c.QueryRaw(q); err != nil && !strings.Contains(err.Error(), "exists") {
		log.Fatalf("resin-loadgen: %s: %v", q, err)
	}
}

// selfContained spins up a WAL-backed primary, a shipping replica, and
// TCP servers for both, returning the addresses and a teardown func.
func selfContained() (*sqldb.DB, *wire.Replica, string, string, func()) {
	rt := core.NewRuntime()
	dir, err := os.MkdirTemp("", "resin-loadgen-*")
	if err != nil {
		log.Fatal(err)
	}
	db, err := sqldb.OpenDB(rt, filepath.Join(dir, "primary.wal"))
	if err != nil {
		log.Fatal(err)
	}
	plis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	psrv := wire.NewServer(db, wire.Config{MaxConns: 4096})
	go psrv.Serve(plis) //nolint:errcheck

	rep, err := wire.NewReplica(rt, plis.Addr().String(), filepath.Join(dir, "replica.wal"))
	if err != nil {
		log.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	repDone := make(chan struct{})
	go func() { defer close(repDone); rep.Run(rctx) }() //nolint:errcheck
	flis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fsrv := wire.NewFollowerServer(rep, wire.Config{})
	go fsrv.Serve(flis) //nolint:errcheck

	cleanup := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fsrv.Shutdown(ctx) //nolint:errcheck
		psrv.Shutdown(ctx) //nolint:errcheck
		rcancel()
		<-repDone
		rep.DB().Close()  //nolint:errcheck
		db.Close()        //nolint:errcheck
		os.RemoveAll(dir) //nolint:errcheck
	}
	return db, rep, plis.Addr().String(), flis.Addr().String(), cleanup
}

// assertTaintRoundTrip writes a tainted value through the wire client,
// reads it back over the wire, and checks the annotation is the
// canonical EncodeSpans form; with an in-process handle it additionally
// requires byte equality with a local read of the same row.
func assertTaintRoundTrip(c *wire.Conn, local *sqldb.DB) (string, error) {
	body := sanitize.Taint(core.NewString("taint-probe body"), "probe")
	want, err := core.EncodeSpans(body)
	if err != nil {
		return "", err
	}
	if _, err := c.QueryRaw(
		"INSERT INTO messages (id, forum, author, subject, body) VALUES (?, ?, ?, ?, ?)",
		-1, 99, "probe", "probe", body); err != nil {
		return "", err
	}
	res, err := c.QueryRaw("SELECT body FROM messages WHERE forum = 99")
	if err != nil {
		return "", err
	}
	if res.Len() != 1 {
		return "", fmt.Errorf("probe row count %d", res.Len())
	}
	got, err := core.EncodeSpans(res.Get(0, "body").Str)
	if err != nil {
		return "", err
	}
	if string(got) != string(want) {
		return "", fmt.Errorf("wire annotation %s != written %s", got, want)
	}
	if local != nil {
		inProc, err := local.QueryRaw("SELECT body FROM messages WHERE forum = 99")
		if err != nil {
			return "", err
		}
		localAnn, err := core.EncodeSpans(inProc.Get(0, "body").Str)
		if err != nil {
			return "", err
		}
		if string(got) != string(localAnn) {
			return "", fmt.Errorf("wire annotation %s != in-process %s", got, localAnn)
		}
	}
	return "ok", nil
}

// runAuditProbe drives a tainted value across every instrumented
// boundary class and replays the /audit trace against it: an in-process
// forum app posts a body (httpd taint filter is the source), the body is
// re-read from its SQL shadow column, shipped over the wire connection
// both directions, and the /audit endpoint must report each crossing in
// execution order. Recording is enabled only for the probe — the load
// itself runs with the gate closed.
func runAuditProbe(c *wire.Conn) (string, error) {
	lineage.Reset()
	lineage.Enable()
	defer func() {
		lineage.Disable()
		lineage.Reset()
	}()

	rt := core.NewRuntime()
	app := forum.New(rt, nil, true)
	sess := app.Server.NewSession("admin")
	resp, err := app.Server.Do("POST", "/post", map[string]string{
		"forum": "1", "subject": "audit probe", "body": "lineage-audit-probe-body",
	}, sess)
	if err != nil {
		return "", fmt.Errorf("post: %w", err)
	}
	reply := resp.RawBody()
	if !strings.HasPrefix(reply, "posted #") {
		return "", fmt.Errorf("unexpected post reply %q", reply)
	}
	id, err := strconv.Atoi(strings.TrimPrefix(reply, "posted #"))
	if err != nil {
		return "", fmt.Errorf("parse post id from %q: %w", reply, err)
	}

	res, err := app.DB.QueryRaw("SELECT body FROM messages WHERE id = ?", id)
	if err != nil {
		return "", fmt.Errorf("body read-back: %w", err)
	}
	if res.Len() != 1 {
		return "", fmt.Errorf("body read-back: %d rows", res.Len())
	}
	body := res.Get(0, "body").Str
	if !body.IsTainted() {
		return "", fmt.Errorf("posted body lost its policies")
	}

	// Wire hop: the tainted body crosses the connection in both
	// directions — the bound argument is encoded on send, the selected
	// row decoded on receive — so the wire edges record client-side even
	// against an external server.
	if _, err := c.QueryRaw(
		"INSERT INTO messages (id, forum, author, subject, body) VALUES (?, ?, ?, ?, ?)",
		-2, 98, "auditor", "audit probe", body); err != nil {
		return "", fmt.Errorf("wire insert: %w", err)
	}
	if _, err := c.QueryRaw("SELECT body FROM messages WHERE forum = 98"); err != nil {
		return "", fmt.Errorf("wire select: %w", err)
	}

	aresp, err := app.Server.Do("GET", "/audit", map[string]string{"msg": strconv.Itoa(id)}, sess)
	if err != nil {
		return "", fmt.Errorf("audit: %w", err)
	}
	text := aresp.RawBody()
	pos := 0
	for _, marker := range []string{
		"filter:TaintReadFilter(http)",
		"sql-store", "sql:messages.body",
		"sql-load",
		"wire-send", "wire-recv",
	} {
		i := strings.Index(text[pos:], marker)
		if i < 0 {
			return "", fmt.Errorf("audit trace missing %q after offset %d:\n%s", marker, pos, text)
		}
		pos += i
	}
	return "ok", nil
}

// raiseFDLimit lifts the soft file-descriptor limit toward the hard
// limit: a self-contained 1000-connection run holds both socket ends in
// one process.
func raiseFDLimit(conns int) {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return
	}
	need := uint64(conns)*3 + 256
	if rl.Cur >= need {
		return
	}
	rl.Cur = rl.Max
	if rl.Cur > need {
		rl.Cur = need
	}
	syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl) //nolint:errcheck
	if rl.Cur < need {
		log.Printf("resin-loadgen: fd limit %d below the ~%d needed for %d connections; expect dial failures",
			rl.Cur, need, conns)
	}
}
