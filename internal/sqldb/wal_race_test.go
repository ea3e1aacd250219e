package sqldb

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// TestWALConcurrentWritersReadersCompaction drives concurrent
// prepared-statement writers appending to the WAL, readers querying, and
// snapshot/compaction running mid-flight — the -race CI run watches the
// lock discipline (appends inside the engine's write critical section,
// compaction swapping file handles under the same lock). A final
// restart proves the log stayed coherent under the interleaving.
func TestWALConcurrentWritersReadersCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (id INT, val TEXT)")
	db.MustExec("CREATE INDEX ON t (id)")

	ins := db.MustPrepare("INSERT INTO t (id, val) VALUES (?, ?)")
	upd := db.MustPrepare("UPDATE t SET val = ? WHERE id = ?")
	sel := db.MustPrepare("SELECT id, val FROM t WHERE id = ?")

	const writers, perWriter, readers = 4, 40, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				tainted := core.NewStringPolicy("payload", &sanitize.UntrustedData{Source: "race"})
				if _, err := ins.Exec(id, tainted); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%4 == 0 {
					if _, err := upd.Exec("updated", id); err != nil {
						t.Errorf("writer %d update: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perWriter*2; i++ {
				if _, err := sel.Query(i % (writers * perWriter)); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := db.Compact(); err != nil {
				t.Errorf("mid-flight compaction: %v", err)
				return
			}
		}
	}()
	// Transactions committing while direct writers append: the commit's
	// log handoff runs under the engine write lock, so the race detector
	// watches the contested path (and conflicted commits exercise the
	// rewrite-from-state branch).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			tx := db.Begin()
			if _, err := tx.QueryRaw("INSERT INTO t (id, val) VALUES (?, ?)", 100000+i, "tx"); err != nil {
				t.Errorf("tx writer: %v", err)
				return
			}
			if i%3 == 0 {
				if err := tx.Rollback(); err != nil {
					t.Errorf("tx rollback: %v", err)
				}
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("tx commit: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	// A quiesced write with a policy, then the real invariant: whatever
	// interleaving happened (commits merge row versions, so racing
	// direct writes and transactions all survive unless they conflicted
	// per row), the state recovered from the log must equal the live
	// state at close.
	finalVal := core.NewStringPolicy("final", &sanitize.UntrustedData{Source: "race-final"})
	if _, err := db.QueryRaw("INSERT INTO t (id, val) VALUES (?, ?)", 999999, finalVal); err != nil {
		t.Fatal(err)
	}
	live := dumpEngine(db.Engine())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, live) {
		t.Error("recovered state diverges from live state after the concurrent run")
	}
	one, err := db2.QueryRaw("SELECT val FROM t WHERE id = ?", 999999)
	if err != nil || one.Len() != 1 {
		t.Fatalf("point lookup after restart: %d rows, %v", one.Len(), err)
	}
	if !one.Get(0, "val").Str.IsTainted() {
		t.Error("policy lost across the concurrent run + restart")
	}
}

// indexStructures captures the *effective* contents of every ordered
// index: the (key, row id) pairs whose row is visible at the frontier
// under that key — exactly the pairs the visible-key traversal rule
// serves to queries. MVCC buckets are supersets (they may carry stale
// pairs awaiting vacuum, and a live engine and a replayed one reclaim
// on different schedules), so equality is defined on this canonical
// projection of the real structures, not on raw buckets. A pair the
// index lost shows up as a hole on one side; a pair wrongly served
// shows up as an extra.
func indexStructures(e *Engine) map[string]map[string]map[string][]uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	frontier := e.frontier.Load()
	out := make(map[string]map[string]map[string][]uint64)
	for name, t := range e.tables {
		if len(t.indexes) == 0 {
			continue
		}
		cols := make(map[string]map[string][]uint64, len(t.indexes))
		for ci, ix := range t.indexes {
			eff := make(map[string][]uint64)
			for k, bucket := range ix.m {
				for _, id := range bucket {
					en := t.byID[id]
					if en == nil {
						continue
					}
					v := en.visible(frontier)
					if v == nil || indexKey(v.vals[ci]) != k {
						continue
					}
					eff[k] = append(eff[k], id)
				}
			}
			cols[t.cols[ci].Name] = eff
		}
		out[name] = cols
	}
	return out
}

// TestWALConcurrentRangeScansIndexDDL races range/ORDER BY readers
// against writers doing index-moving UPDATEs while a DDL goroutine
// drops and recreates an index mid-flight — then restarts and requires
// the recovered engine to match the live one, down to the ordered-index
// internals: the structure incrementally maintained under concurrency
// must deep-equal the one WAL replay rebuilds from scratch.
func TestWALConcurrentRangeScansIndexDDL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "range-race.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE r (id INT, name TEXT)")
	db.MustExec("CREATE INDEX ON r (id)")
	db.MustExec("CREATE INDEX ON r (name)")
	for i := 0; i < 200; i++ {
		if _, err := db.QueryRaw("INSERT INTO r (id, name) VALUES (?, ?)", i,
			core.NewStringPolicy(fmt.Sprintf("n-%03d", i), &sanitize.UntrustedData{Source: "rr"})); err != nil {
			t.Fatal(err)
		}
	}

	const readers, writers, iters = 4, 2, 120
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lo := (i * 13) % 150
				queries := []string{
					fmt.Sprintf("SELECT id, name FROM r WHERE id >= %d AND id < %d ORDER BY id", lo, lo+25),
					fmt.Sprintf("SELECT name FROM r WHERE name LIKE 'n-0%d%%' ORDER BY name DESC", i%10),
					"SELECT id FROM r ORDER BY id DESC LIMIT 5",
				}
				if _, err := db.QueryRaw(queries[i%len(queries)]); err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
			}
		}(rd)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Index-moving UPDATE: shifts rows between key buckets on
				// both indexed columns.
				id := (w*iters + i) % 200
				if _, err := db.QueryRaw("UPDATE r SET id = ?, name = ? WHERE id = ?",
					200+((id*7)%200), fmt.Sprintf("m-%03d", i), id); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // mid-flight CREATE/DROP INDEX churn
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := db.QueryRaw("DROP INDEX ON r (name)"); err != nil {
				t.Errorf("drop index: %v", err)
				return
			}
			if _, err := db.QueryRaw("CREATE INDEX ON r (name)"); err != nil {
				t.Errorf("create index: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	live := dumpEngine(db.Engine())
	liveIdx := indexStructures(db.Engine())
	liveRows, err := db.QueryRaw("SELECT id, name FROM r WHERE id >= 50 AND id < 320 ORDER BY id DESC")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, live) {
		t.Error("recovered state diverges from live state")
	}
	if got := indexStructures(db2.Engine()); !reflect.DeepEqual(got, liveIdx) {
		t.Error("ordered indexes rebuilt by WAL replay diverge from the incrementally-maintained ones")
	}
	recRows, err := db2.QueryRaw("SELECT id, name FROM r WHERE id >= 50 AND id < 320 ORDER BY id DESC")
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "post-restart range scan", recRows, liveRows)
}
