package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// The MVCC concurrency-correctness harness. Three layers, mirroring the
// WAL's property/anomaly/race structure:
//
//   - TestMVCCSnapshotIsolationProperty: seeded randomized concurrent
//     workloads; every read a snapshot makes is validated byte-for-byte
//     (serialized policy spans included) against the version frontier
//     it began on.
//   - TestMVCCAnomalySuite: the textbook anomalies, pinned one by one —
//     which the engine prevents, and which (write skew) it documents.
//   - TestMVCCStressRestartEquality: snapshot readers, conflicting
//     transactions, index DDL and mid-flight compaction race under
//     -race, then a restart must reproduce the surviving state.

// snapRow is one row of a snapshot capture: stable ordering key, raw
// cell bytes, and the EncodeSpans-serialized policy annotations — so
// equality is value AND policy equality, per cell.
type snapRow struct {
	cells []string
	spans []string
}

type querier interface {
	QueryRaw(q string, args ...any) (*Result, error)
}

// captureSorted snapshots a full-table read through q. Every cell's
// text and serialized policy spans are recorded.
func captureSorted(t testing.TB, q querier, query string) []snapRow {
	t.Helper()
	res, err := q.QueryRaw(query)
	if err != nil {
		t.Fatalf("capture %q: %v", query, err)
	}
	out := make([]snapRow, 0, res.Len())
	for i := 0; i < res.Len(); i++ {
		var r snapRow
		for _, col := range res.Columns {
			cell := res.Get(i, col)
			txt := cell.Text()
			spans, err := core.EncodeSpans(txt)
			if err != nil {
				t.Fatalf("capture %q: encode spans: %v", query, err)
			}
			r.cells = append(r.cells, txt.Raw())
			r.spans = append(r.spans, string(spans))
		}
		out = append(out, r)
	}
	return out
}

func requireSameSnapshot(t testing.TB, ctx string, got, want []snapRow) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: snapshot read diverged from the frontier it began on\ngot:  %+v\nwant: %+v", ctx, got, want)
	}
}

// TestMVCCSnapshotIsolationProperty is the seeded property test: for
// 1000+ iterations, a transaction begins on a small tainted table,
// captures what its frontier shows, and then keeps re-reading that
// snapshot while concurrent writers (direct statements and competing
// transactions) churn rows, move index keys, and rewrite policies
// underneath it. Every read the snapshot makes — values and
// EncodeSpans-serialized policy columns alike — must equal the capture,
// and a multi-row UPDATE must never be seen half-applied by concurrent
// frontier readers (statement atomicity: one frontier bump publishes
// all of a statement's row versions).
func TestMVCCSnapshotIsolationProperty(t *testing.T) {
	iters := 1100
	if testing.Short() {
		iters = 120
	}
	const nrows, writers, mutsPerWriter, readsPerIter = 6, 2, 8, 4
	seed := rand.New(rand.NewSource(20090211)) // seeded: reruns are identical
	query := "SELECT id, val FROM s ORDER BY id"

	for iter := 0; iter < iters; iter++ {
		rng := rand.New(rand.NewSource(seed.Int63()))
		rt := core.NewRuntime()
		db := Open(rt)
		db.MustExec("CREATE TABLE s (id INT, val TEXT)")
		db.MustExec("CREATE INDEX ON s (id)")
		for i := 0; i < nrows; i++ {
			if _, err := db.QueryRaw("INSERT INTO s (id, val) VALUES (?, ?)", i,
				core.NewStringPolicy(fmt.Sprintf("g0-%d", i), &sanitize.UntrustedData{Source: "mvcc"})); err != nil {
				t.Fatal(err)
			}
		}

		want := captureSorted(t, db, query)
		tx := db.Begin()
		requireSameSnapshot(t, "first read", captureSorted(t, tx, query), want)

		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int, wseed int64) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(wseed))
				for i := 0; i < mutsPerWriter; i++ {
					id := wrng.Intn(nrows + 2)
					val := core.NewStringPolicy(fmt.Sprintf("g%d-%d-%d", iter, w, i),
						&sanitize.UntrustedData{Source: "mvcc-churn"})
					var err error
					switch wrng.Intn(4) {
					case 0:
						_, err = db.QueryRaw("INSERT INTO s (id, val) VALUES (?, ?)", id, val)
					case 1:
						_, err = db.QueryRaw("UPDATE s SET val = ?, id = ? WHERE id = ?", val, id+nrows, id)
					case 2:
						_, err = db.QueryRaw("DELETE FROM s WHERE id = ?", id)
					case 3:
						// A competing transaction: commit may succeed or lose
						// the per-row race; anything else is a bug.
						tx2 := db.Begin()
						if _, err2 := tx2.QueryRaw("UPDATE s SET val = ? WHERE id = ?", val, id); err2 != nil {
							err = err2
							break
						}
						if cerr := tx2.Commit(); cerr != nil && !errors.Is(cerr, ErrTxConflict) {
							err = cerr
						}
					}
					if err != nil {
						t.Errorf("iter %d writer %d: %v", iter, w, err)
						return
					}
				}
			}(w, rng.Int63())
		}

		// Frontier readers watch statement atomicity: rows 0 and 1 are
		// stamped with one generation tag by a single multi-row UPDATE
		// below; no read may catch them half-stamped.
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.QueryRaw("SELECT val FROM s WHERE id = 100 ORDER BY val")
				if err != nil {
					t.Errorf("iter %d frontier reader: %v", iter, err)
					return
				}
				var tags []string
				for i := 0; i < res.Len(); i++ {
					tags = append(tags, res.Get(i, "val").Str.Raw())
				}
				for i := 1; i < len(tags); i++ {
					if tags[i] != tags[0] {
						t.Errorf("iter %d: multi-row UPDATE observed half-applied: %v", iter, tags)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.MustExec("INSERT INTO s (id, val) VALUES (100, 'pair'), (100, 'pair')")
			for g := 0; g < mutsPerWriter; g++ {
				if _, err := db.QueryRaw("UPDATE s SET val = ? WHERE id = 100", fmt.Sprintf("pair-g%d", g)); err != nil {
					t.Errorf("iter %d pair writer: %v", iter, err)
					return
				}
			}
			close(stop)
		}()

		for r := 0; r < readsPerIter; r++ {
			requireSameSnapshot(t, fmt.Sprintf("iter %d read %d", iter, r), captureSorted(t, tx, query), want)
		}
		wg.Wait()
		requireSameSnapshot(t, fmt.Sprintf("iter %d final read", iter), captureSorted(t, tx, query), want)
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMVCCAnomalySuite pins the isolation level one anomaly at a time.
// Snapshot isolation prevents dirty reads, non-repeatable reads,
// phantoms within a transaction, and lost updates (first-committer-wins
// on row write sets). Write skew is ALLOWED — reads are not validated —
// and the last subtest pins that fact so a future strengthening to
// serializable shows up as a deliberate test change, not a silent one
// (docs/SQL.md §9 documents the same example).
func TestMVCCAnomalySuite(t *testing.T) {
	open := func(t *testing.T) *DB {
		db := Open(core.NewRuntime())
		db.MustExec("CREATE TABLE a (k TEXT, n INT)")
		db.MustExec("INSERT INTO a (k, n) VALUES ('x', 10), ('y', 20)")
		return db
	}
	readN := func(t *testing.T, q querier, k string) int {
		t.Helper()
		res, err := q.QueryRaw("SELECT n FROM a WHERE k = ?", k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("row %q: %d rows", k, res.Len())
		}
		return int(res.Get(0, "n").Int.Value())
	}

	t.Run("NoDirtyRead", func(t *testing.T) {
		db := open(t)
		tx := db.Begin()
		tx.MustExec("UPDATE a SET n = 99 WHERE k = 'x'")
		if got := readN(t, db, "x"); got != 10 {
			t.Fatalf("uncommitted write visible outside the tx: n = %d", got)
		}
		other := db.Begin()
		defer other.Rollback()
		if got := readN(t, other, "x"); got != 10 {
			t.Fatalf("uncommitted write visible to a sibling tx: n = %d", got)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if got := readN(t, db, "x"); got != 10 {
			t.Fatalf("rolled-back write leaked: n = %d", got)
		}
	})

	t.Run("NoNonRepeatableRead", func(t *testing.T) {
		db := open(t)
		tx := db.Begin()
		first := readN(t, tx, "x")
		db.MustExec("UPDATE a SET n = 77 WHERE k = 'x'")
		if again := readN(t, tx, "x"); again != first {
			t.Fatalf("non-repeatable read: %d then %d", first, again)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if got := readN(t, db, "x"); got != 77 {
			t.Fatalf("committed update lost: n = %d", got)
		}
	})

	t.Run("NoPhantoms", func(t *testing.T) {
		db := open(t)
		tx := db.Begin()
		before, err := tx.QueryRaw("SELECT k FROM a WHERE n >= 0 ORDER BY k")
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec("INSERT INTO a (k, n) VALUES ('z', 30)")
		db.MustExec("DELETE FROM a WHERE k = 'y'")
		after, err := tx.QueryRaw("SELECT k FROM a WHERE n >= 0 ORDER BY k")
		if err != nil {
			t.Fatal(err)
		}
		if before.Len() != after.Len() {
			t.Fatalf("phantom: %d rows then %d", before.Len(), after.Len())
		}
	})

	t.Run("LostUpdateRejected", func(t *testing.T) {
		db := open(t)
		// Classic read-modify-write race: both transactions read n=10 and
		// write back an increment. Without first-committer-wins the
		// second commit would silently erase the first increment.
		tx1, tx2 := db.Begin(), db.Begin()
		n1, n2 := readN(t, tx1, "x"), readN(t, tx2, "x")
		tx1.MustExec(fmt.Sprintf("UPDATE a SET n = %d WHERE k = 'x'", n1+1))
		tx2.MustExec(fmt.Sprintf("UPDATE a SET n = %d WHERE k = 'x'", n2+1))
		if err := tx1.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Commit(); !errors.Is(err, ErrTxConflict) {
			t.Fatalf("second writer committed: %v (lost update)", err)
		}
		if got := readN(t, db, "x"); got != 11 {
			t.Fatalf("n = %d, want 11 (exactly one increment)", got)
		}
	})

	t.Run("WriteSkewAllowed", func(t *testing.T) {
		// Both transactions read the invariant n(x)+n(y) >= 25, then each
		// decrements a DIFFERENT row. Disjoint write sets → both commit →
		// invariant broken. This is the documented gap between snapshot
		// isolation and serializability; the assertion pins the current
		// behavior on purpose. (The paper's integrity assertions are the
		// intended tool for guarding such invariants at commit time.)
		db := open(t)
		tx1, tx2 := db.Begin(), db.Begin()
		if s := readN(t, tx1, "x") + readN(t, tx1, "y"); s < 25 {
			t.Fatalf("setup: sum %d", s)
		}
		if s := readN(t, tx2, "x") + readN(t, tx2, "y"); s < 25 {
			t.Fatalf("setup: sum %d", s)
		}
		tx1.MustExec("UPDATE a SET n = 0 WHERE k = 'x'")
		tx2.MustExec("UPDATE a SET n = 0 WHERE k = 'y'")
		if err := tx1.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Commit(); err != nil {
			t.Fatalf("write skew is documented as allowed; commit failed: %v", err)
		}
		if s := readN(t, db, "x") + readN(t, db, "y"); s != 0 {
			t.Fatalf("sum = %d; the pinned write-skew outcome changed", s)
		}
	})
}

// TestMVCCStressRestartEquality races every moving part at once under
// -race: snapshot readers holding transactions open, direct writers,
// conflicting read-modify-write transactions, index DDL churn, and
// mid-flight Compact — against a WAL-backed database. When the dust
// settles, a restart must reproduce the exact surviving state
// (dumpEngine equality, ids included, plus canonical index contents).
func TestMVCCStressRestartEquality(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mvcc-stress.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE m (id INT, val TEXT)")
	db.MustExec("CREATE INDEX ON m (id)")
	const nrows = 64
	for i := 0; i < nrows; i++ {
		if _, err := db.QueryRaw("INSERT INTO m (id, val) VALUES (?, ?)", i,
			core.NewStringPolicy(fmt.Sprintf("seed-%d", i), &sanitize.UntrustedData{Source: "stress"})); err != nil {
			t.Fatal(err)
		}
	}

	const iters = 60
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ { // snapshot readers: hold a tx open across churn
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				tx := db.Begin()
				a := captureSorted(t, tx, "SELECT id, val FROM m ORDER BY id")
				b := captureSorted(t, tx, "SELECT id, val FROM m ORDER BY id")
				if !reflect.DeepEqual(a, b) {
					t.Errorf("reader %d: snapshot moved between reads", r)
					tx.Rollback()
					return
				}
				if err := tx.Rollback(); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ { // direct writers: update/delete/reinsert
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (w*iters + i*7) % nrows
				if _, err := db.QueryRaw("UPDATE m SET val = ? WHERE id = ?", fmt.Sprintf("w%d-%d", w, i), id); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%5 == 0 {
					if _, err := db.QueryRaw("DELETE FROM m WHERE id = ?", id); err != nil {
						t.Errorf("writer %d delete: %v", w, err)
						return
					}
					if _, err := db.QueryRaw("INSERT INTO m (id, val) VALUES (?, ?)", id,
						core.NewStringPolicy("reborn", &sanitize.UntrustedData{Source: "stress"})); err != nil {
						t.Errorf("writer %d reinsert: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // conflicting transactions on a hot row
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tx := db.Begin()
			if _, err := tx.QueryRaw("UPDATE m SET val = ? WHERE id = 0", fmt.Sprintf("hot-%d", i)); err != nil {
				t.Errorf("hot tx: %v", err)
				return
			}
			if err := tx.Commit(); err != nil && !errors.Is(err, ErrTxConflict) {
				t.Errorf("hot tx commit: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // index DDL churn
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := db.QueryRaw("CREATE INDEX ON m (val)"); err != nil {
				t.Errorf("create index: %v", err)
				return
			}
			if _, err := db.QueryRaw("DROP INDEX ON m (val)"); err != nil {
				t.Errorf("drop index: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // mid-flight compaction
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := db.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	live := dumpEngine(db.Engine())
	liveIdx := indexStructures(db.Engine())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, live) {
		t.Error("recovered state diverges from live state after MVCC stress")
	}
	if got := indexStructures(db2.Engine()); !reflect.DeepEqual(got, liveIdx) {
		t.Error("recovered index contents diverge after MVCC stress")
	}
}

// TestTxBeginIsSnapshotReference pins the O(1) Begin: the speculative
// engine shares the base's table structures by pointer (no row copy,
// no Engine.Clone) until a write materializes a private copy.
func TestTxBeginIsSnapshotReference(t *testing.T) {
	db := Open(core.NewRuntime())
	db.MustExec("CREATE TABLE big (id INT, val TEXT)")
	db.MustExec("CREATE TABLE other (id INT)")
	db.MustExec("INSERT INTO big (id, val) VALUES (1, 'a'), (2, 'b')")

	tx := db.Begin()
	defer tx.Rollback()
	base := db.Engine()
	spec := tx.spec
	if spec.tables["big"] != base.tables["big"] || spec.tables["other"] != base.tables["other"] {
		t.Fatal("Begin copied table structures; it should capture a snapshot reference")
	}
	if spec.txBase != base || len(spec.owned) != 0 {
		t.Fatal("speculative engine not wired to its base")
	}
	// First write materializes only the written table.
	tx.MustExec("UPDATE big SET val = 'c' WHERE id = 1")
	if spec.tables["big"] == base.tables["big"] {
		t.Fatal("write did not materialize a private copy")
	}
	if spec.tables["other"] != base.tables["other"] {
		t.Fatal("write materialized an untouched table")
	}
	// The base is untouched and the private copy kept stable row ids.
	if got := captureSorted(t, db, "SELECT val FROM big ORDER BY id"); got[0].cells[0] != "a" {
		t.Fatalf("base leaked the speculative write: %+v", got)
	}
	if spec.tables["big"].entries[0].id != base.tables["big"].entries[0].id {
		t.Fatal("materialized copy renumbered row ids")
	}
}

// TestVacuumKeepsTopAndDemotedSnapshots: snapshot registration has two
// tiers — the newest snapshot's reader count in the top slot, older ones
// in the map a later registration demotes them to. A vacuum under the
// write lock keeps every version a reader in either tier still needs,
// and reclaims them once both are released.
func TestVacuumKeepsTopAndDemotedSnapshots(t *testing.T) {
	e := NewEngine()
	exec := func(q string) {
		t.Helper()
		stmt, err := Parse(core.NewString(q))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.ExecuteRaw(stmt); err != nil {
			t.Fatal(err)
		}
	}
	pin := func() uint64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.acquireSnap()
	}
	vacuum := func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.vacuum()
	}
	sel, err := Parse(core.NewString("SELECT v FROM t WHERE id = 1"))
	if err != nil {
		t.Fatal(err)
	}
	readAt := func(snap uint64) string {
		t.Helper()
		raw, _, err := e.selectAt(nil, 0, sel.(*Select), nil, nil, &snap)
		if err != nil || raw.Len() != 1 {
			t.Fatalf("read at %d: %+v, %v", snap, raw, err)
		}
		return raw.at(raw.rows[0], 0).s
	}

	exec("CREATE TABLE t (id INT, v TEXT)")
	exec("INSERT INTO t (id, v) VALUES (1, 'a')")
	old := pin()
	exec("UPDATE t SET v = 'b' WHERE id = 1")
	mid, mid2 := pin(), pin() // demotes old to the map
	exec("UPDATE t SET v = 'c' WHERE id = 1")
	if e.top != mid || e.topN != 2 || e.snaps[old] != 1 {
		t.Fatalf("registration: top %d×%d, map %v; want top %d×2, map {%d:1}", e.top, e.topN, e.snaps, mid, old)
	}
	vacuum()
	for snap, want := range map[uint64]string{old: "a", mid: "b", e.frontier.Load(): "c"} {
		if got := readAt(snap); got != want {
			t.Errorf("after vacuum, snapshot %d reads %q, want %q", snap, got, want)
		}
	}

	e.releaseSnap(old)
	e.releaseSnap(mid)
	vacuum()
	if got := readAt(mid); got != "b" {
		t.Errorf("a top-slot reader still registered lost its version: %q", got)
	}
	e.releaseSnap(mid2)
	vacuum()
	if e.topN != 0 || len(e.snaps) != 0 {
		t.Errorf("released registrations left top %d×%d, map %v", e.top, e.topN, e.snaps)
	}
	if head := e.tables["t"].entries[0].head.Load(); head.prev != nil {
		t.Error("vacuum kept versions no snapshot can reach")
	}
}
