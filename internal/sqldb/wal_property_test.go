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
// their stable ids in ascending-id scan order (policy columns included
// as data — their bytes are the serialized annotations, so equality
// here is annotation equality), and indexed columns. Comparing ids as
// well as values pins that recovery rebuilds the *identity* of every
// row, not just its contents — the property per-row conflict detection
// depends on.
type tableState struct {
	cols    []ColumnDef
	ids     []uint64
	rows    [][]value
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
				ts.rows = append(ts.rows, append([]value(nil), v.vals...))
			}
		}
		for ci := range t.indexes {
			ts.indexed = append(ts.indexed, t.cols[ci].Name)
		}
		sort.Strings(ts.indexed)
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

// TestWALCrashRecoveryProperty runs a seeded randomized DDL/DML workload
// (tainted values included) against a persistent database, then replays
// a crash at every record boundary and at several mid-record offsets:
// copy-truncate the log, reopen, and require the recovered tables,
// indexes, and shadow policy columns to equal the state at the last
// durable point at or before the cut — a standalone statement's record
// end, or a transaction's commit marker (an offset inside a begin..commit
// group recovers to the state before the group). A replica fed the same
// cut in rng-chosen chunks must agree with recovery
// (checkFollowerParity).
func TestWALCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20090211)) // seeded: reruns are identical
	dir := t.TempDir()
	path := filepath.Join(dir, "workload.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)

	type durablePoint struct {
		off   int64
		state map[string]tableState
	}
	points := []durablePoint{{db.WALSize(), dumpEngine(db.Engine())}}
	checkpoint := func() {
		points = append(points, durablePoint{db.WALSize(), dumpEngine(db.Engine())})
	}

	tables := []string{"alpha", "beta", "gamma"}
	live := map[string]bool{}
	taint := func(s string) core.String {
		return core.NewStringPolicy(s, &sanitize.UntrustedData{Source: "prop"})
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
			_, err = q(core.NewString("INSERT INTO "+name+" (id, val) VALUES (?, ?)"),
				id, taint(fmt.Sprintf("v%d", rng.Intn(1000))))
		case 2:
			_, err = q(core.NewString("UPDATE "+name+" SET val = ? WHERE id = ?"),
				taint(fmt.Sprintf("u%d", rng.Intn(1000))), id)
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
				db.MustExec("CREATE TABLE " + name + " (id INT, val TEXT)")
				live[name] = true
			}
		case r == 1: // transaction: a few writes, commit or roll back
			tx := db.Begin()
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				mutate(tx.Query)
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

	expectAt := func(off int64) map[string]tableState {
		best := points[0].state
		for _, p := range points {
			if p.off <= off {
				best = p.state
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
		got := dumpEngine(db2.Engine())
		want := expectAt(off)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: recovered state diverges from committed prefix\ngot:  %+v\nwant: %+v", off, got, want)
		}
		db2.Close()
	}
}
