package sqldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// shipPair opens a WAL-backed primary and an empty follower for direct
// shipping tests (no network in between).
func shipPair(t *testing.T) (primary *DB, follower *Follower, fpath string) {
	t.Helper()
	rt := core.NewRuntime()
	primary, err := OpenDB(rt, filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() }) //nolint:errcheck
	fpath = filepath.Join(t.TempDir(), "f.wal")
	fdb, err := OpenDB(rt, fpath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() }) //nolint:errcheck
	follower, err = NewFollower(fdb)
	if err != nil {
		t.Fatal(err)
	}
	return primary, follower, fpath
}

// shipAll copies the primary's log bytes from the follower's received
// offset forward, in chunks of n bytes, exercising partial-frame
// buffering when n is small.
func shipAll(t *testing.T, p *DB, f *Follower, n int) {
	t.Helper()
	for {
		_, size, err := p.WALStatus()
		if err != nil {
			t.Fatal(err)
		}
		_, received := f.Offsets()
		if received >= size {
			return
		}
		data, _, err := p.ReadWAL(received, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return
		}
		if err := f.Apply(received, data); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFollowerAppliesShippedLog(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT, b TEXT)")
	for i := 0; i < 5; i++ {
		p.MustExec(fmt.Sprintf("INSERT INTO t (a, b) VALUES (%d, 'v%d')", i, i))
	}
	shipAll(t, p, f, 1<<20)

	if got, want := f.Frontier(), p.Frontier(); got != want {
		t.Fatalf("frontier %d, want %d", got, want)
	}
	res, err := f.DB().QueryRaw("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("rows: %d", res.Len())
	}
	applied, received := f.Offsets()
	_, size, _ := p.WALStatus()
	if applied != size || received != size {
		t.Fatalf("offsets applied=%d received=%d, primary size=%d", applied, received, size)
	}
}

// TestFollowerPartialFrames ships the log one byte at a time: every
// record arrives split across many Apply calls, and record and group
// boundaries never align with chunk boundaries.
func TestFollowerPartialFrames(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	tx := p.Begin()
	tx.MustExec("INSERT INTO t (a) VALUES (1)")
	tx.MustExec("INSERT INTO t (a) VALUES (2)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, f, 1)

	if got, want := f.Frontier(), p.Frontier(); got != want {
		t.Fatalf("frontier %d, want %d", got, want)
	}
	res, err := f.DB().QueryRaw("SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows: %d", res.Len())
	}
}

// TestFollowerUncommittedTailInvisible: a transaction group shipped
// without its commit marker is mirrored to the local log but not
// applied — the follower's frontier and visible rows exclude it.
func TestFollowerUncommittedTailInvisible(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	p.MustExec("INSERT INTO t (a) VALUES (1)")
	shipAll(t, p, f, 1<<20)
	want := f.Frontier()

	tx := p.Begin()
	tx.MustExec("INSERT INTO t (a) VALUES (2)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Ship all but the last byte: the commit group cannot complete.
	_, size, err := p.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	_, received := f.Offsets()
	data, _, err := p.ReadWAL(received, int(size-received)-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(received, data); err != nil {
		t.Fatal(err)
	}
	applied, rec := f.Offsets()
	if rec <= applied {
		t.Fatalf("expected mirrored-but-unapplied tail, applied=%d received=%d", applied, rec)
	}
	if f.Frontier() != want {
		t.Fatalf("frontier moved on uncommitted tail: %d != %d", f.Frontier(), want)
	}
	res, _ := f.DB().QueryRaw("SELECT a FROM t")
	if res.Len() != 1 {
		t.Fatalf("uncommitted row visible: %d rows", res.Len())
	}

	// The final byte completes the group.
	shipAll(t, p, f, 1<<20)
	if f.Frontier() != p.Frontier() {
		t.Fatalf("frontier %d, want %d", f.Frontier(), p.Frontier())
	}
}

// TestFollowerGapIsBehind: applying past the received offset is the
// resumable typed error, and does not disturb follower state.
func TestFollowerGapIsBehind(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	_, received := f.Offsets()
	if err := f.Apply(received+100, []byte{0x01}); !errors.Is(err, ErrShipBehind) {
		t.Fatalf("gap apply: %v", err)
	}
	shipAll(t, p, f, 1<<20)
	if f.Frontier() != p.Frontier() {
		t.Fatal("follower unusable after rejected gap")
	}
}

// TestFollowerOverlapDeduped: re-shipping bytes the follower already
// has (a reconnect race) is harmless — the overlap is discarded.
func TestFollowerOverlapDeduped(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	p.MustExec("INSERT INTO t (a) VALUES (1)")
	shipAll(t, p, f, 1<<20)

	p.MustExec("INSERT INTO t (a) VALUES (2)")
	_, size, _ := p.WALStatus()
	// Re-ship from offset 0: everything before `received` is overlap.
	data, _, err := p.ReadWAL(0, int(size))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(0, data); err != nil {
		t.Fatal(err)
	}
	if f.Frontier() != p.Frontier() {
		t.Fatalf("frontier %d, want %d", f.Frontier(), p.Frontier())
	}
	res, _ := f.DB().QueryRaw("SELECT a FROM t ORDER BY a")
	if res.Len() != 2 {
		t.Fatalf("rows after overlap: %d", res.Len())
	}
}

// TestFollowerCrashResume: close the follower DB mid-stream (with a
// mirrored-but-uncommitted tail on disk), reopen it, and resume
// shipping from the recovered offset. Recovery truncates the torn tail,
// so the resume point is exactly the applied prefix.
func TestFollowerCrashResume(t *testing.T) {
	rt := core.NewRuntime()
	p, err := OpenDB(rt, filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	fpath := filepath.Join(t.TempDir(), "f.wal")
	fdb, err := OpenDB(rt, fpath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(fdb)
	if err != nil {
		t.Fatal(err)
	}

	p.MustExec("CREATE TABLE t (a INT)")
	for i := 0; i < 10; i++ {
		p.MustExec(fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}
	// Ship everything except the last 3 bytes, leaving a torn record.
	_, size, _ := p.WALStatus()
	data, _, err := p.ReadWAL(0, int(size)-3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(0, data); err != nil {
		t.Fatal(err)
	}
	appliedBefore, receivedBefore := f.Offsets()
	if receivedBefore <= appliedBefore {
		t.Fatal("test wants a torn tail on disk")
	}
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the same log. Recovery truncates the torn tail.
	fdb2, err := OpenDB(rt, fpath)
	if err != nil {
		t.Fatal(err)
	}
	defer fdb2.Close() //nolint:errcheck
	f2, err := NewFollower(fdb2)
	if err != nil {
		t.Fatal(err)
	}
	applied2, received2 := f2.Offsets()
	if applied2 != appliedBefore || received2 != appliedBefore {
		t.Fatalf("resume offsets applied=%d received=%d, want both %d", applied2, received2, appliedBefore)
	}

	// Resume from the recovered offset and catch up fully.
	shipAll(t, p, f2, 1<<20)
	if f2.Frontier() != p.Frontier() {
		t.Fatalf("frontier %d, want %d", f2.Frontier(), p.Frontier())
	}
	res, err := fdb2.QueryRaw("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("rows after resume: %d", res.Len())
	}
}

// TestReadWALBehindTyped: reading past the end of the log is the typed
// resumable error.
func TestReadWALBehindTyped(t *testing.T) {
	p, _, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	_, size, _ := p.WALStatus()
	if _, _, err := p.ReadWAL(size+1, 10); !errors.Is(err, ErrShipBehind) {
		t.Fatalf("read past end: %v", err)
	}
	// Reading exactly at the end is an empty (heartbeat) read, not an error.
	data, _, err := p.ReadWAL(size, 10)
	if err != nil || len(data) != 0 {
		t.Fatalf("read at end: %v, %d bytes", err, len(data))
	}
}

// TestWALEpochBumpsOnCompaction: compaction rewrites the log, so every
// shipped offset is invalidated; the epoch counter is how ship streams
// notice.
func TestWALEpochBumpsOnCompaction(t *testing.T) {
	p, _, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (a INT)")
	p.MustExec("INSERT INTO t (a) VALUES (1)")
	p.MustExec("DELETE FROM t")
	epoch0, _, err := p.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	epoch1, _, err := p.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	if epoch1 <= epoch0 {
		t.Fatalf("epoch %d -> %d; compaction must bump it", epoch0, epoch1)
	}
}

// TestReplayGroupFrontierEquality: a database recovered from a log has
// the same frontier as the live database that wrote it — group replay
// bumps the version once per transaction, exactly like live commit.
func TestReplayGroupFrontierEquality(t *testing.T) {
	rt := core.NewRuntime()
	path := filepath.Join(t.TempDir(), "w.wal")
	db, err := OpenDB(rt, path)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t (a) VALUES (1)") // single-statement group
	tx := db.Begin()
	tx.MustExec("INSERT INTO t (a) VALUES (2)")
	tx.MustExec("INSERT INTO t (a) VALUES (3)") // multi-statement group: ONE bump
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	live := db.Frontier()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(rt, path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close() //nolint:errcheck
	if got := db2.Frontier(); got != live {
		t.Fatalf("recovered frontier %d != live %d", got, live)
	}
}

// TestNamedPlaceholders covers :name binding end to end: distinct names
// get distinct ordinals, repeats share one, args bind by name in any
// order, and misuse (mixing styles, unknown/duplicate/missing names) is
// rejected.
func TestNamedPlaceholders(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE u (name TEXT, age INT)")
	ins := db.MustPrepare("INSERT INTO u (name, age) VALUES (:name, :age)")
	if _, err := ins.Query(Named("age", 30), Named("name", "ada")); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Query(Named("name", "bob"), Named("age", 40)); err != nil {
		t.Fatal(err)
	}

	// A repeated name is one ordinal bound once.
	sel := db.MustPrepare("SELECT name FROM u WHERE age = :a OR age = :a")
	if sel.NumArgs() != 1 {
		t.Fatalf("repeated name ordinals: %d, want 1", sel.NumArgs())
	}
	res, err := sel.Query(Named("a", 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("repeated-name rows: %d", res.Len())
	}

	if _, err := db.Prepare(core.NewString("SELECT name FROM u WHERE age = :a AND name = ?")); err == nil {
		t.Fatal("mixed ? and :name accepted")
	}
	if _, err := ins.Query(Named("name", "x"), Named("bogus", 1)); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := ins.Query(Named("name", "x"), Named("name", "y")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := ins.Query(Named("name", "x")); err == nil {
		t.Fatal("missing name accepted")
	}
	if _, err := ins.Query(Named("name", "x"), 30); err == nil {
		t.Fatal("mixed named and positional args accepted")
	}
	if _, err := db.QueryRaw("SELECT name FROM u WHERE age = ?", Named("a", 30)); err == nil {
		t.Fatal("named arg outside prepared execution accepted")
	}
}

// chainLen counts the versions of the first row of table name, newest
// first, down to the oldest one vacuum has kept.
func chainLen(e *Engine, name string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for v := e.tables[name].entries[0].head.Load(); v != nil; v = v.prev {
		n++
	}
	return n
}

// TestFollowerReclaimsVersions: replay vacuums on the primary's cadence.
// 3000 UPDATEs of one row leave the follower a version chain no longer
// than the primary's, and recovery of the same log a chain bounded by
// the cadence; a transaction held on the follower across a stretch of
// them, vacuums included, still reads the version it began at.
func TestFollowerReclaimsVersions(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE t (id INT, v INT)")
	p.MustExec("INSERT INTO t (id, v) VALUES (1, 0)")
	update := func(from, to int) {
		t.Helper()
		up := p.MustPrepare("UPDATE t SET v = ? WHERE id = 1")
		for i := from; i <= to; i++ {
			if _, err := up.Exec(i); err != nil {
				t.Fatal(err)
			}
		}
		shipAll(t, p, f, 16<<10)
	}
	update(1, 1000)
	tx := f.DB().Begin()
	update(1001, 2000) // three vacuum passes on the follower while tx reads
	res, err := tx.QueryRaw("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Int.Value() != 1000 {
		t.Fatalf("transaction held across replayed updates reads %v, want its snapshot's 1000", res.Rows)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	update(2001, 3000)

	primary, follower := chainLen(p.Engine(), "t"), chainLen(f.DB().Engine(), "t")
	if follower > primary || primary > vacuumEvery {
		t.Errorf("after 3000 updates: follower chain %d, primary chain %d; want follower ≤ primary ≤ %d", follower, primary, vacuumEvery)
	}
	path := filepath.Join(t.TempDir(), "reopen.wal")
	data, err := os.ReadFile(f.DB().Engine().wal.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(core.NewRuntime(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	if n := chainLen(db.Engine(), "t"); n > vacuumEvery {
		t.Errorf("recovery of 3000 updates left a chain of %d versions, want ≤ %d", n, vacuumEvery)
	}
}

// TestFollowerApplyAllocLinear: applying one shipped chunk costs
// allocation linear in the chunk, not a copy of the unapplied tail per
// committed record — one chunk of 4000 single-row commits allocates
// less than twice its own size.
func TestFollowerApplyAllocLinear(t *testing.T) {
	_, f, _ := shipPair(t)
	ddl, err := frameRecords(nil, stmtPayload("CREATE TABLE t (id INT, body TEXT)"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(int64(walHeaderSize), ddl); err != nil {
		t.Fatal(err)
	}
	body := textValue(strings.Repeat("b", 256))
	var chunk []byte
	for id := uint64(1); id <= 4000; id++ {
		chunk = appendRecord(chunk, opsPayload([]rowOp{{kind: opInsert, table: "t", id: id, vals: []value{intValue(int64(id)), body}}}, nil, nil))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f.Apply(int64(walHeaderSize+len(ddl)), chunk); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-byte chunk of 4000 commits allocated %d bytes", len(chunk), got)
	if got >= 2*uint64(len(chunk)) {
		t.Errorf("applying a %d-byte chunk of 4000 commits allocated %d bytes, want < %d", len(chunk), got, 2*len(chunk))
	}
	if applied, received := f.Offsets(); applied != received || applied != int64(walHeaderSize+len(ddl)+len(chunk)) {
		t.Errorf("offsets applied=%d received=%d after the chunk", applied, received)
	}
}

// TestFollowerCatchUpAlloc pins what a replica's catch-up allocates: a
// fresh follower replaying a primary's log of 1000-row B..C groups of
// tainted rows (each text cell with its shadow annotation) allocates at
// most 450 bytes per applied row, in 1 MiB chunks and in 4 KiB chunks
// alike. The bound is per row, not per log byte: the log states each
// annotation once and references it after, so a row's log form is far
// smaller than the row the replica builds from it. Buffering the
// unapplied bytes, copying each chunk, or building a throwaway string
// per annotation cell each add a multiple of that.
func TestFollowerCatchUpAlloc(t *testing.T) {
	rt := core.NewRuntime()
	p, err := OpenDB(rt, filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	p.MustExec("CREATE TABLE papers (id INT, title TEXT, abstract TEXT, authors TEXT)")
	const groups, groupRows, maxPerRow = 6, 1000, 450
	policies := make([]core.Policy, 16)
	for i := range policies {
		policies[i] = &sanitize.UntrustedData{Source: fmt.Sprintf("author-%d", i)}
	}
	for g := 0; g < groups; g++ {
		tx := p.Begin()
		ins, err := tx.PrepareRaw("INSERT INTO papers (id, title, abstract, authors) VALUES (?, ?, ?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < groupRows; i++ {
			id := g*groupRows + i
			pol := policies[id%len(policies)]
			if _, err := ins.Exec(id,
				core.NewStringPolicy(fmt.Sprintf("Paper %d on data flow assertions", id), pol),
				core.NewStringPolicy(fmt.Sprintf("abstract %d: policies travel with the data they protect", id), pol),
				core.NewStringPolicy(fmt.Sprintf("author%d@example.org", id%97), pol)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	_, size, err := p.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1 << 20, 4 << 10} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			fdb, err := OpenDB(rt, filepath.Join(t.TempDir(), "f.wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer fdb.Close() //nolint:errcheck
			f, err := NewFollower(fdb)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			var alloc uint64
			_, off := f.Offsets()
			start := off
			for off < size {
				data, _, err := p.ReadWAL(off, chunk)
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&before)
				err = f.Apply(off, data)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				alloc += after.TotalAlloc - before.TotalAlloc
				off += int64(len(data))
			}
			if f.Frontier() != p.Frontier() {
				t.Fatalf("frontier %d, want %d", f.Frontier(), p.Frontier())
			}
			perRow := alloc / (groups * groupRows)
			t.Logf("applying %d bytes (%d rows) in %d-byte chunks allocated %d bytes, %d per row", size-start, groups*groupRows, chunk, alloc, perRow)
			if perRow > maxPerRow {
				t.Errorf("catch-up in %d-byte chunks allocated %d bytes per row, want ≤ %d", chunk, perRow, maxPerRow)
			}
		})
	}
}

// TestFrontierAndSchemaGenMove pins what a memo keyed on (SchemaGen,
// Frontier) relies on, on a primary and on the follower replaying it:
// every statement that changes a row moves the frontier — a direct DML
// statement, a transaction's Commit, a follower's replay of either — and
// one that changes no row moves neither value; CREATE/DROP TABLE and
// CREATE/DROP INDEX move the schema generation and never the frontier;
// and no two engines ever share a generation.
func TestFrontierAndSchemaGenMove(t *testing.T) {
	p, f, _ := shipPair(t)
	type state struct{ gen, frontier uint64 }
	at := func(db *DB) state { return state{db.Engine().SchemaGen(), db.Frontier()} }
	step := func(what string, do func(), wantGen, wantFrontier bool) {
		t.Helper()
		before := [2]state{at(p), at(f.DB())}
		do()
		shipAll(t, p, f, 1<<20)
		for i, db := range []*DB{p, f.DB()} {
			after := at(db)
			if (after.gen != before[i].gen) != wantGen {
				t.Errorf("%s (db %d): schema generation %d → %d, want moved = %v", what, i, before[i].gen, after.gen, wantGen)
			}
			if moved := after.frontier != before[i].frontier; moved != wantFrontier || after.frontier < before[i].frontier {
				t.Errorf("%s (db %d): frontier %d → %d, want moved forward = %v", what, i, before[i].frontier, after.frontier, wantFrontier)
			}
		}
		if p.Engine().SchemaGen() == f.DB().Engine().SchemaGen() {
			t.Errorf("%s: primary and follower share schema generation %d", what, p.Engine().SchemaGen())
		}
	}
	exec := func(q string) func() { return func() { p.MustExec(q) } }

	step("CREATE TABLE", exec("CREATE TABLE t (a INT, b TEXT)"), true, false)
	step("CREATE INDEX", exec("CREATE INDEX ON t (a)"), true, false)
	step("INSERT", exec("INSERT INTO t (a, b) VALUES (1, 'x')"), false, true)
	step("UPDATE", exec("UPDATE t SET b = 'y' WHERE a = 1"), false, true)
	step("UPDATE matching no row", exec("UPDATE t SET b = 'z' WHERE a = 99"), false, false)
	step("DELETE matching no row", exec("DELETE FROM t WHERE a = 99"), false, false)
	step("Tx.Commit", func() {
		tx := p.Begin()
		tx.MustExec("INSERT INTO t (a, b) VALUES (2, 'x')")
		tx.MustExec("UPDATE t SET b = 'w' WHERE a = 1")
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}, false, true)
	step("DROP INDEX", exec("DROP INDEX ON t (a)"), true, false)
	step("DROP TABLE", exec("DROP TABLE t"), true, false)
	step("CREATE TABLE again", exec("CREATE TABLE t (a INT, b TEXT)"), true, false)

	if a, b := NewEngine().SchemaGen(), NewEngine().SchemaGen(); a == b {
		t.Errorf("two new engines share schema generation %d", a)
	}
}
