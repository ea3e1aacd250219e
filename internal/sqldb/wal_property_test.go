package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// tableState is a test dump of one table: schema, visible rows with
// their stable ids in ascending-id scan order, each cell as its refCell
// so that reflect.DeepEqual compares content (policy columns included
// as data — their bytes are the serialized annotations, so equality
// here is annotation equality), and indexed columns. Comparing ids as
// well as values pins that recovery rebuilds the *identity* of every
// row, not just its contents — the property per-row conflict detection
// depends on.
type tableState struct {
	cols    []ColumnDef
	ids     []uint64
	rows    [][]refCell
	indexed []string
}

// dumpEngine snapshots the committed (frontier-visible) engine state for
// equality comparison.
func dumpEngine(e *Engine) map[string]tableState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	frontier := e.frontier.Load()
	out := make(map[string]tableState, len(e.tables))
	for key, t := range e.tables {
		ts := tableState{cols: append([]ColumnDef(nil), t.cols...)}
		for _, en := range t.entries {
			if v := en.visible(frontier); v != nil {
				ts.ids = append(ts.ids, en.id)
				ts.rows = append(ts.rows, refRow(v.row()))
			}
		}
		ts.indexed = t.indexedCols()
		out[key] = ts
	}
	return out
}

// checkFollowerParity feeds the bytes recovery just judged (data, the
// whole file; rec and recErr, OpenDB's result on it) to a fresh Follower
// — post-header, in rng-chosen chunk sizes — and requires the same
// verdict: on success equal tables, equal frontier, and an applied
// offset equal to recovery's truncation point; on damage the same
// reason, record offset and cause. Header damage is skipped: the header
// is never shipped.
func checkFollowerParity(t *testing.T, rt *core.Runtime, data []byte, rng *rand.Rand, rec *DB, recErr error) {
	t.Helper()
	var want *WALCorruptionError
	if recErr != nil && (!errors.As(recErr, &want) || want.Offset < int64(walHeaderSize)) {
		return
	}
	fdb, err := OpenDB(rt, filepath.Join(t.TempDir(), "follower.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	fl, err := NewFollower(fdb)
	if err != nil {
		t.Fatal(err)
	}
	var ferr error
	for off := walHeaderSize; off < len(data) && ferr == nil; {
		n := 1 + rng.Intn(len(data)-off)
		ferr = fl.Apply(int64(off), data[off:off+n])
		off += n
	}
	applied, _ := fl.Offsets()
	if want != nil {
		var got *WALCorruptionError
		if !errors.As(ferr, &got) || got.Reason != want.Reason || got.Offset != want.Offset ||
			fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
			t.Fatalf("follower verdict diverges from recovery's\nfollower: %v\nrecovery: %v", ferr, recErr)
		}
		return
	}
	if ferr != nil {
		t.Fatalf("follower rejects bytes recovery accepted: %v", ferr)
	}
	if applied != rec.WALSize() {
		t.Fatalf("follower applied through %d, recovery truncated at %d", applied, rec.WALSize())
	}
	if fl.Frontier() != rec.Frontier() {
		t.Fatalf("follower frontier %d, recovery frontier %d", fl.Frontier(), rec.Frontier())
	}
	if got, want := dumpEngine(fdb.Engine()), dumpEngine(rec.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state diverges from recovery's\nfollower: %+v\nrecovery: %+v", got, want)
	}
}

// checkFollowerRestart feeds data (a whole log file) to a follower that
// crashes at an rng-chosen offset — OpenDB on its local log, which
// drops what the crash tore, then NewFollower — and resumes shipping
// from its recovered offset. It must end where recovery (rec) did:
// equal applied offset, frontier and tables. The bytes after the
// restart reference annotations defined before it, so the resumed
// follower must continue from the dictionary its log defines.
func checkFollowerRestart(t *testing.T, rt *core.Runtime, data []byte, rng *rand.Rand, rec *DB) {
	t.Helper()
	if len(data) <= walHeaderSize {
		return
	}
	path := filepath.Join(t.TempDir(), "restart.wal")
	ship := func(f *Follower, from, to int) {
		for off := from; off < to; {
			n := 1 + rng.Intn(to-off)
			if err := f.Apply(int64(off), data[off:off+n]); err != nil {
				t.Fatalf("follower apply at %d: %v", off, err)
			}
			off += n
		}
	}
	fdb := openWALDB(t, rt, path)
	f, err := NewFollower(fdb)
	if err != nil {
		t.Fatal(err)
	}
	ship(f, walHeaderSize, walHeaderSize+rng.Intn(len(data)-walHeaderSize))
	fdb.Close()
	fdb = openWALDB(t, rt, path)
	defer fdb.Close()
	if f, err = NewFollower(fdb); err != nil {
		t.Fatal(err)
	}
	_, resume := f.Offsets()
	ship(f, int(resume), len(data))
	if applied, _ := f.Offsets(); applied != rec.WALSize() {
		t.Fatalf("restarted follower applied through %d, recovery truncated at %d", applied, rec.WALSize())
	}
	if f.Frontier() != rec.Frontier() {
		t.Fatalf("restarted follower frontier %d, recovery frontier %d", f.Frontier(), rec.Frontier())
	}
	if got, want := dumpEngine(fdb.Engine()), dumpEngine(rec.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted follower diverges from recovery\nfollower: %+v\nrecovery: %+v", got, want)
	}
}

// TestWALCrashRecoveryProperty runs a seeded randomized DDL/DML workload
// (tainted values included, under a pool of policies so that the log's
// annotation dictionary defines entries throughout; updates that change
// one column of several, set one to NULL, or rewrite one with an equal
// value, so that the log's deltas leave cells out) against a persistent
// database, then replays a crash at every record boundary and at several
// mid-record offsets: copy-truncate the log, reopen, and require the
// recovered tables, indexes, and shadow policy columns to equal the
// state at the last durable point at or before the cut — a standalone
// statement's record end, or a transaction's commit marker (an offset
// inside a begin..commit group recovers to the state before the group).
// A replica fed the same cut in rng-chosen chunks must agree with
// recovery (checkFollowerParity), and so must one restarted mid-stream
// (checkFollowerRestart). The recovered database then writes rows
// carrying annotations the log defined before the cut and ones defined
// only by the group the cut tore, and a reopen must read back what the
// live engine holds: the recovered dictionary is the log's, no more.
func TestWALCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20090211)) // seeded: reruns are identical
	dir := t.TempDir()
	path := filepath.Join(dir, "workload.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)

	// A durable point's written holds the tainted values written since
	// the point before it — the annotations its records may define.
	type durablePoint struct {
		off     int64
		state   map[string]tableState
		written []core.String
	}
	points := []durablePoint{{db.WALSize(), dumpEngine(db.Engine()), nil}}
	var written []core.String
	checkpoint := func() {
		points = append(points, durablePoint{db.WALSize(), dumpEngine(db.Engine()), written})
		written = nil
	}

	tables := []string{"alpha", "beta", "gamma"}
	live := map[string]bool{}
	taint := func(s string) core.String {
		v := core.NewStringPolicy(s, &sanitize.UntrustedData{Source: fmt.Sprintf("prop%d", rng.Intn(24))})
		written = append(written, v)
		return v
	}
	someTable := func() (string, bool) {
		var names []string
		for n, ok := range live {
			if ok {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return "", false
		}
		sort.Strings(names) // map order must not leak into the workload
		return names[rng.Intn(len(names))], true
	}
	mutate := func(q func(q core.String, args ...any) (*Result, error)) {
		name, ok := someTable()
		if !ok {
			return
		}
		id := rng.Intn(20)
		var err error
		switch rng.Intn(4) {
		case 0, 1:
			_, err = q(core.NewString("INSERT INTO "+name+" (id, val, note) VALUES (?, ?, ?)"),
				id, taint(fmt.Sprintf("v%d", rng.Intn(1000))), fmt.Sprintf("n%d", rng.Intn(3)))
		case 2: // the WAL logs an update's changed cells only
			switch rng.Intn(3) {
			case 0: // one column of several
				_, err = q(core.NewString("UPDATE "+name+" SET val = ? WHERE id = ?"),
					taint(fmt.Sprintf("u%d", rng.Intn(1000))), id)
			case 1: // a column to NULL, maybe alongside a changed one
				_, err = q(core.NewString("UPDATE "+name+" SET note = NULL, val = ? WHERE id = ?"),
					taint(fmt.Sprintf("u%d", rng.Intn(1000))), id)
				if err == nil && rng.Intn(2) == 0 {
					_, err = q(core.NewString("UPDATE "+name+" SET note = NULL WHERE id = ?"), id)
				}
			case 2: // a column rewritten with an equal value, another maybe not
				_, err = q(core.NewString("UPDATE "+name+" SET id = ?, note = ? WHERE id = ?"),
					id, fmt.Sprintf("n%d", rng.Intn(3)), id)
			}
		case 3:
			_, err = q(core.NewString("DELETE FROM "+name+" WHERE id = ?"), id)
		}
		if err != nil {
			t.Fatalf("workload mutation on %s: %v", name, err)
		}
	}

	for op := 0; op < 90; op++ {
		switch r := rng.Intn(10); {
		case r == 0: // DDL: create or drop a pool table
			name := tables[rng.Intn(len(tables))]
			if live[name] {
				if rng.Intn(2) == 0 {
					db.MustExec("DROP TABLE " + name)
					live[name] = false
				} else if _, err := db.QueryRaw("CREATE INDEX ON " + name + " (id)"); err != nil {
					// duplicate index: fine, state unchanged
					checkpoint()
					continue
				}
			} else {
				db.MustExec("CREATE TABLE " + name + " (id INT, val TEXT, note TEXT)")
				live[name] = true
			}
		case r == 1: // transaction: a few writes, commit or roll back
			tx := db.Begin()
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				mutate(tx.Query)
			}
			if name, ok := someTable(); ok && rng.Intn(2) == 0 {
				// One row written by three statements of the group: each
				// update is logged against the row the one before left.
				id := rng.Intn(20)
				must := func(_ *Result, err error) {
					if err != nil {
						t.Fatalf("transaction rewriting one row of %s: %v", name, err)
					}
				}
				must(tx.Query(core.NewString("INSERT INTO "+name+" (id, val, note) VALUES (?, ?, 'n0')"),
					id, taint(fmt.Sprintf("v%d", rng.Intn(1000)))))
				must(tx.Query(core.NewString("UPDATE "+name+" SET val = ? WHERE id = ?"),
					taint(fmt.Sprintf("u%d", rng.Intn(1000))), id))
				must(tx.Query(core.NewString("UPDATE "+name+" SET note = NULL WHERE id = ?"), id))
			}
			if rng.Intn(4) == 0 {
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
			} else if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		default:
			mutate(db.Query)
		}
		checkpoint()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := walRecordEnds(data)
	if len(ends) < 50 {
		t.Fatalf("workload produced only %d records", len(ends))
	}

	// pointAt is the index of the last durable point at or before off.
	pointAt := func(off int64) int {
		best := 0
		for i, p := range points {
			if p.off <= off {
				best = i
			}
		}
		return best
	}

	var cuts []int64
	for i, e := range ends {
		cuts = append(cuts, e) // every record boundary
		if i+1 < len(ends) {   // several mid-record offsets
			next := ends[i+1]
			if e+1 < next {
				cuts = append(cuts, e+1)
			}
			if mid := (e + next) / 2; mid > e && mid < next {
				cuts = append(cuts, mid)
			}
		}
	}
	cuts = append(cuts, int64(len(data))-1)

	crash := filepath.Join(dir, "crash.wal")
	for _, off := range cuts {
		if off > int64(len(data)) {
			continue
		}
		if err := os.WriteFile(crash, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := OpenDB(rt, crash)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", off, err)
		}
		checkFollowerParity(t, rt, data[:off], rng, db2, nil)
		checkFollowerRestart(t, rt, data[:off], rng, db2)
		at := pointAt(off)
		got := dumpEngine(db2.Engine())
		want := points[at].state
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: recovered state diverges from committed prefix\ngot:  %+v\nwant: %+v", off, got, want)
		}

		// Annotations the recovered log defines (the point's own writes)
		// and ones only the torn group defined (the next point's).
		var reuse []core.String
		for _, p := range points[max(at, 1):min(at+2, len(points))] {
			reuse = append(reuse, p.written...)
		}
		db2.MustExec("CREATE TABLE post (id INT, val TEXT)")
		tx := db2.Begin()
		for i, v := range reuse {
			if _, err := tx.QueryRaw("INSERT INTO post (id, val) VALUES (?, ?)", i, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for i, v := range reuse {
			if _, err := db2.QueryRaw("UPDATE post SET val = ? WHERE id = ?", v, len(reuse)-1-i); err != nil {
				t.Fatal(err)
			}
		}
		want = dumpEngine(db2.Engine())
		db2.Close()
		db3, err := OpenDB(rt, crash)
		if err != nil {
			t.Fatalf("cut at %d: reopen after writing past recovery: %v", off, err)
		}
		if got := dumpEngine(db3.Engine()); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: reopen after writing past recovery diverges\ngot:  %+v\nwant: %+v", off, got, want)
		}
		db3.Close()
	}
}
