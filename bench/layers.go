package main

import (
	"database/sql"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
	"resin/resinsql"
)

// Layer measurements that need no workload: each times calls into one
// package's public functions from outside. They run after the counted
// phase, because several of them churn the process-wide intern and memo
// tables the counters watch.

// sinkString keeps the compiler from discarding a timed call's result.
var sinkString core.String

// batchP50 runs fn in `samples` batches of `batch` calls and returns the
// median ns per call. Batching keeps the two clock reads (≈50 ns) out of
// sub-microsecond operations.
func batchP50(samples, batch int, fn func()) float64 {
	xs := make([]float64, samples)
	for i := range xs {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		xs[i] = float64(time.Since(t0)) / float64(batch)
	}
	return percentile(xs, 0.5)
}

// eachNs times every call of fn(i), i in [0,n), and returns percentile p in ns.
func eachNs(n int, p float64, fn func(i int) error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		err := fn(i)
		xs[i] = float64(time.Since(t0))
		if err != nil {
			return 0, err
		}
	}
	return percentile(xs, p), nil
}

// coreOps: concat, slice and a channel write of 1 KiB carrying one policy
// through ExportCheckFilter (Table 5's shapes).
func coreOps(m metrics, iters int) error {
	pol := &sanitize.UntrustedData{Source: "bench-core"}
	a := core.NewStringPolicy(strings.Repeat("a", 512), pol)
	b := core.NewString(strings.Repeat("b", 512))
	kib := core.NewStringPolicy(strings.Repeat("x", 1024), pol)
	m["core.concat_ns_p50"] = batchP50(iters, 16, func() { sinkString = core.Concat(a, b) })
	m["core.slice_ns_p50"] = batchP50(iters, 16, func() { sinkString = kib.Slice(100, 900) })
	ch := core.NewChannel(core.NewRuntime(), "http", core.ExportCheckFilter{})
	var werr error
	m["core.channel_write_ns_p50"] = batchP50(iters, 16, func() {
		if err := ch.Write(kib); err != nil {
			werr = err
		}
		ch.ResetOutput()
	})
	return werr
}

// serializeOps streams n distinct annotations — more than the 4096-entry
// annCompileMemo and spanDecodeMemo hold when n is 16 384 — through
// EncodeSpans and DecodeSpans (every decode a miss), then re-decodes a
// small resident set (every decode a hit).
func serializeOps(m metrics, n int) error {
	raws := make([]string, n)
	strs := make([]core.String, n)
	anns := make([][]byte, n)
	for i := range strs {
		raws[i] = bodyFor(int64(i), 0)
		strs[i] = sanitize.Taint(core.NewString(raws[i]), fmt.Sprintf("bench-ser-%d", i))
	}
	var err error
	if m["core.encode_spans_ns_p50"], err = eachNs(n, 0.5, func(i int) (err error) {
		anns[i], err = core.EncodeSpans(strs[i])
		return err
	}); err != nil {
		return err
	}
	if m["core.decode_spans_miss_ns_p50"], err = eachNs(n, 0.5, func(i int) (err error) {
		sinkString, err = core.DecodeSpans(raws[i], anns[i])
		return err
	}); err != nil {
		return err
	}
	hot := 64
	if hot > n {
		hot = n
	}
	for i := 0; i < hot; i++ {
		if _, err := core.DecodeSpans(raws[i], anns[i]); err != nil {
			return err
		}
	}
	i := 0
	var derr error
	m["core.decode_spans_hit_ns_p50"] = batchP50(n/8+1, 16, func() {
		if sinkString, err = core.DecodeSpans(raws[i%hot], anns[i%hot]); err != nil {
			derr = err
		}
		i++
	})
	return derr
}

// textToPlan times the three steps the text route pays and the prepared
// route skips: tokenize, parse, policy-column rewrite.
func textToPlan(m metrics, engine *sqldb.Engine, iters int) error {
	q := core.NewString(pointSQL)
	toks, err := sqldb.Lex(q)
	if err != nil {
		return err
	}
	stmt, err := sqldb.ParseTokens(toks)
	if err != nil {
		return err
	}
	if _, err := sqldb.RewriteWithPolicies(engine, stmt); err != nil {
		return err
	}
	m["sqldb.lex_ns_p50"] = batchP50(iters, 8, func() { sqldb.Lex(q) })                                //nolint:errcheck // checked above
	m["sqldb.parse_ns_p50"] = batchP50(iters, 8, func() { sqldb.ParseTokens(toks) })                   //nolint:errcheck // checked above
	m["sqldb.rewrite_ns_p50"] = batchP50(iters, 8, func() { sqldb.RewriteWithPolicies(engine, stmt) }) //nolint:errcheck // checked above
	return nil
}

// wireFloor: a status round trip carries no SQL, so it is the frame +
// socket + dispatch floor under every wire op; dial+prepare is what a
// new client pays before its first query.
func wireFloor(m metrics, st *stack, iters int) error {
	cl := st.clients[0]
	p50, err := eachNs(iters, 0.5, func(int) error {
		_, err := cl.c.Status()
		return err
	})
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	m["wire.rtt_status_us_p50"] = p50 / 1e3
	p50, err = eachNs(iters/50+5, 0.5, func(int) error {
		c, err := dialClient(st.addr)
		if err != nil {
			return err
		}
		return c.c.Close()
	})
	if err != nil {
		return fmt.Errorf("dial+prepare: %w", err)
	}
	m["wire.dial_prepare_us_p50"] = p50 / 1e3
	return nil
}

// driverSelf is what database/sql over a net: DSN adds to a prepared
// point read on a bare wire.Conn, in alternating blocks of 100.
func driverSelf(m metrics, t *table, st *stack, iters int) error {
	db, err := sql.Open(resinsql.DriverName, resinsql.NetPrefix+st.addr)
	if err != nil {
		return err
	}
	defer db.Close() //nolint:errcheck // read-only handle
	db.SetMaxOpenConns(1)
	stmt, err := db.Prepare(pointSQL)
	if err != nil {
		return err
	}
	defer stmt.Close() //nolint:errcheck // read-only handle
	direct := st.clients[0].point
	var viaSQL, viaWire []float64
	for i := 0; i < iters; i++ {
		id := int64(t.perm[i%len(t.perm)])
		t0 := time.Now()
		if (i/100)%2 == 0 {
			var rid resinsql.Int
			var author, body resinsql.String
			if err := stmt.QueryRow(id).Scan(&rid, &author, &body); err != nil {
				return fmt.Errorf("database/sql point read: %w", err)
			}
			if rid.V.Value() != id || !body.V.IsTainted() {
				return fmt.Errorf("database/sql point read of %d: id %d, tainted %v", id, rid.V.Value(), body.V.IsTainted())
			}
			viaSQL = append(viaSQL, float64(time.Since(t0)))
		} else {
			if _, err := direct.Query(id); err != nil {
				return err
			}
			viaWire = append(viaWire, float64(time.Since(t0)))
		}
	}
	m["resinsql.self_point_us_p50"] = (percentile(viaSQL, 0.5) - percentile(viaWire, 0.5)) / 1e3
	return nil
}

// deviceFsync is the floor under every durable write on this box: a bare
// 200-byte append + File.Sync in the WAL's directory.
func deviceFsync(m metrics, dir string, samples int) error {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) //nolint:errcheck // the directory is removed anyway
	defer f.Close()           //nolint:errcheck // probe file, nothing to keep
	buf := make([]byte, 200)
	xs := make([]float64, samples)
	for i := range xs {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		xs[i] = float64(time.Since(t0))
	}
	m["device.fsync_us_p50"] = percentile(xs, 0.5) / 1e3
	m["device.fsync_us_p99"] = percentile(xs, 0.99) / 1e3
	return nil
}

// compaction runs Compact on the WAL twin while this goroutine keeps
// writing to it, and reports the compaction's length, the size it left,
// and the worst write ack seen while it ran.
func compaction(m metrics, t *table, tw *twin) error {
	before := tw.db.WALSize()
	done := make(chan error, 1)
	t0 := time.Now()
	go func() { done <- tw.db.Compact() }()
	var worst time.Duration
	var cerr error
	for i, running := int64(0), true; running; i++ {
		id := insertBase*9 + i
		w0 := time.Now()
		if _, err := tw.ins.Exec(id, t.forumOf(id), author(id), subject, t.body(id, 0)); err != nil {
			return fmt.Errorf("write during compaction: %w", err)
		}
		if d := time.Since(w0); d > worst {
			worst = d
		}
		select {
		case cerr = <-done:
			running = false
		default:
		}
	}
	if cerr != nil {
		return fmt.Errorf("compact: %w", cerr)
	}
	m["sqldb.compact_ms"] = float64(time.Since(t0)) / 1e6
	m["sqldb.compact_size_ratio"] = ratio(float64(tw.db.WALSize()), float64(before))
	m["sqldb.compact_stall_us_max"] = float64(worst) / 1e3
	return nil
}

// shipPrefix bounds what shipApply replays: the preload's 1000-row groups
// (about 5 MiB) and, on write workloads, the first few thousand single-row
// commits. The follower syncs its mirror per chunk and replays single-row
// commits at about 1 MiB/s, so the whole log of a write workload would
// take longer than the workload itself.
const shipPrefix = 6 << 20

// shipApply feeds the first shipPrefix bytes of the reopened primary's
// log to a fresh follower in 1 MiB chunks — the replication apply path
// with no socket.
func shipApply(m metrics, src *sqldb.DB, dir string) error {
	db, err := sqldb.OpenDB(core.NewRuntime(), filepath.Join(dir, "ship-target.wal"))
	if err != nil {
		return err
	}
	defer db.Close() //nolint:errcheck // scratch follower
	fol, err := sqldb.NewFollower(db)
	if err != nil {
		return err
	}
	var off int64
	var spent time.Duration
	for off < shipPrefix {
		data, _, err := src.ReadWAL(off, 1<<20)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			break
		}
		t0 := time.Now()
		if err := fol.Apply(off, data); err != nil {
			return err
		}
		spent += time.Since(t0)
		off += int64(len(data))
	}
	if applied, _ := fol.Offsets(); applied == 0 || db.Frontier() == 0 {
		return fmt.Errorf("follower applied %d of %d shipped bytes, frontier %d", applied, off, db.Frontier())
	}
	m["sqldb.ship_apply_mb_per_s"] = ratio(float64(off)/(1<<20), spent.Seconds())
	return nil
}
