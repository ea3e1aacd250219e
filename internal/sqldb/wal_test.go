package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"resin/internal/core"
	"resin/internal/sanitize"
)

func openWALDB(t *testing.T, rt *core.Runtime, path string) *DB {
	t.Helper()
	db, err := OpenDB(rt, path)
	if err != nil {
		t.Fatalf("OpenDB(%s): %v", path, err)
	}
	return db
}

// TestWALRestartPreservesPolicies is the acceptance round-trip: a value
// tainted with UntrustedData before a restart carries the same policy
// set after recovery, compared by interned-set identity (the annotation
// bytes round-trip through the log, and core.CompileAnnotation hands
// both incarnations one interned set).
func TestWALRestartPreservesPolicies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE users (name TEXT, password TEXT)")
	tainted := core.NewStringPolicy("s3cretpw", &sanitize.UntrustedData{Source: "restart-test"})
	if _, err := db.QueryRaw("INSERT INTO users (name, password) VALUES (?, ?)", "alice", tainted); err != nil {
		t.Fatal(err)
	}
	before, err := db.QueryRaw("SELECT password FROM users WHERE name = ?", "alice")
	if err != nil {
		t.Fatal(err)
	}
	beforeStr := before.Get(0, "password").Str
	if !beforeStr.IsTainted() {
		t.Fatal("pre-restart read lost the policy")
	}
	beforeSet := beforeStr.PoliciesAt(0).Intern()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRaw("INSERT INTO users (name, password) VALUES ('x', 'y')"); !errors.Is(err, ErrDBClosed) {
		t.Fatalf("mutation after Close = %v, want ErrDBClosed", err)
	}

	db2 := openWALDB(t, rt, path)
	after, err := db2.QueryRaw("SELECT password FROM users WHERE name = ?", "alice")
	if err != nil {
		t.Fatal(err)
	}
	got := after.Get(0, "password").Str
	if got.Raw() != "s3cretpw" {
		t.Fatalf("recovered password = %q", got.Raw())
	}
	var ud *sanitize.UntrustedData
	for _, p := range got.PoliciesAt(0).Policies() {
		if u, ok := p.(*sanitize.UntrustedData); ok {
			ud = u
		}
	}
	if ud == nil || ud.Source != "restart-test" {
		t.Fatalf("recovered policies = %s, want UntrustedData{restart-test}", got.Describe())
	}
	if got.PoliciesAt(0).Intern() != beforeSet {
		t.Error("recovered policy set is not the same interned set as before the restart")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALTxDurability: committed transactions replay as one group;
// rolled-back (and empty) transactions leave the log byte-identical.
func TestWALTxDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE acct (id INT, bal INT)")
	db.MustExec("INSERT INTO acct (id, bal) VALUES (1, 100), (2, 50)")

	tx := db.Begin()
	tx.MustExec("UPDATE acct SET bal = 70 WHERE id = 1")
	tx.MustExec("UPDATE acct SET bal = 80 WHERE id = 2")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	beforeRollback, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rb := db.Begin()
	rb.MustExec("UPDATE acct SET bal = 0 WHERE id = 1")
	if err := rb.Rollback(); err != nil {
		t.Fatal(err)
	}
	empty := db.Begin()
	if err := empty.Commit(); err != nil {
		t.Fatal(err)
	}
	afterRollback, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(beforeRollback) != string(afterRollback) {
		t.Error("rolled-back / empty transactions changed the log")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	res, err := db2.QueryRaw("SELECT bal FROM acct WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Get(0, "bal").Int.Value(); got != 70 {
		t.Errorf("recovered bal(1) = %d, want 70", got)
	}
	// Writes continue against the log the commit moved to the new engine.
	if _, err := db2.QueryRaw("UPDATE acct SET bal = 71 WHERE id = 1"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestWALTornTail: a partial trailing record (torn write) truncates at
// the last applied boundary; a mid-log checksum flip truncates there —
// never a panic, never a half-applied suffix.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (a INT)")
	for i := 0; i < 5; i++ {
		if _, err := db.QueryRaw("INSERT INTO t (a) VALUES (?)", i); err != nil {
			t.Fatal(err)
		}
	}
	sizeAll := db.WALSize()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != sizeAll {
		t.Fatalf("file size %d != WALSize %d", len(data), sizeAll)
	}
	ends := walRecordEnds(data)
	if len(ends) != 1+6 { // header + CREATE + 5 INSERTs
		t.Fatalf("record ends = %v", ends)
	}

	// Tear the last record: lose exactly the last insert.
	torn := filepath.Join(t.TempDir(), "torn.wal")
	if err := os.WriteFile(torn, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := openWALDB(t, rt, torn)
	res, err := db2.QueryRaw("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Errorf("rows after torn tail = %d, want 4", res.Len())
	}
	if db2.WALSize() != ends[len(ends)-2] {
		t.Errorf("truncated size = %d, want %d", db2.WALSize(), ends[len(ends)-2])
	}
	db2.Close()

	// Flip a payload byte in the record starting at ends[3] (the third
	// INSERT): recovery keeps the intact prefix — CREATE plus two
	// inserts — and truncates the rest.
	flipped := append([]byte(nil), data...)
	flipped[ends[3]+walRecHeaderSize+1] ^= 0xff
	corrupt := filepath.Join(t.TempDir(), "flip.wal")
	if err := os.WriteFile(corrupt, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	db3 := openWALDB(t, rt, corrupt)
	res, err = db3.QueryRaw("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows after mid-log flip = %d, want 2", res.Len())
	}
	db3.Close()
}

// TestWALCorruptionTyped: damage a crash cannot produce — bad magic, an
// unknown record type, marker misuse or row ops replay cannot place
// under a valid checksum — is a typed *WALCorruptionError, not a silent
// truncation.
func TestWALCorruptionTyped(t *testing.T) {
	rt := core.NewRuntime()
	dir := t.TempDir()

	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	header := append([]byte(walMagic), walVersion)

	cases := map[string][]byte{
		"bad-magic":            []byte("NOTAWALFILEATALL"),
		"bad-version":          append([]byte(walMagic), 0x7f),
		"unknown-record-type":  appendRecord(append([]byte(nil), header...), []byte{'Z', 1, 2}),
		"commit-without-begin": appendRecord(append([]byte(nil), header...), []byte{walRecCommit}),
		"select-in-log":        appendRecord(append([]byte(nil), header...), stmtPayload("SELECT * FROM t")),
		"unparseable-stmt":     appendRecord(append([]byte(nil), header...), stmtPayload("GIBBERISH @@@")),
		"replay-exec-fails":    appendRecord(append([]byte(nil), header...), stmtPayload("DROP TABLE missing")),
	}
	for name, data := range cases {
		_, err := OpenDB(rt, write(name+".wal", data))
		if !errors.Is(err, ErrWALCorrupt) {
			t.Errorf("%s: err = %v, want ErrWALCorrupt", name, err)
		}
		var ce *WALCorruptionError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err %T is not *WALCorruptionError", name, err)
		}
	}

	// Row ops the checksum vouches for but replay cannot place, each with
	// the cause it must name: an update logged as a delta on a row with no
	// live version, a table key naming a dictionary entry the log never
	// defined, a presence bitmap with a bit past the column count, and a
	// column count that is not the table's.
	withCreate := appendRecord(append([]byte(nil), header...), stmtPayload("CREATE TABLE t (id INT, val TEXT)"))
	opCases := map[string]struct {
		payload []byte
		cause   string
	}{
		"delta-on-missing-row": {opsPayload([]rowOp{{kind: opUpdate, table: "t", id: 5,
			vals: []value{intValue(1), textValue("x")}, old: []value{intValue(1), textValue("y")}}}, nil, nil),
			"no live version"},
		"undefined-table-ref": {[]byte{walRecOps, 1, opDelete, walValRef, 3, 1},
			"undefined dictionary entry 3"},
		"bitmap-past-columns": {[]byte{walRecOps, 1, opInsert, walValText, 1, 't', 1, 2, 0x07,
			walValInt, 2, walValText, 1, 'x', walValInt, 3}, "presence bitmap wider than 2 columns"},
		"column-count-overflow": {binary.AppendUvarint([]byte{walRecOps, 1, opInsert, walValText, 1, 't', 1}, math.MaxUint64),
			"column count 18446744073709551615 != 2 columns of t"},
	}
	for name, c := range opCases {
		_, err := OpenDB(rt, write(name+".wal", appendRecord(append([]byte(nil), withCreate...), c.payload)))
		var ce *WALCorruptionError
		if !errors.As(err, &ce) || ce.Err == nil || !strings.Contains(ce.Err.Error(), c.cause) {
			t.Errorf("%s: err = %v, want corruption naming %q", name, err, c.cause)
		}
	}

	// A file torn inside the header (crash while creating the log) is
	// not corruption: the log starts over.
	db, err := OpenDB(rt, write("torn-header.wal", []byte(walMagic[:3])))
	if err != nil {
		t.Fatalf("torn header: %v", err)
	}
	db.Close()
}

// TestRejectedStatementLeavesWALUntouched pins the satellite fix: a
// mutation that fails validation — engine-level (bad column, unbound
// placeholder, bad value in any row of a multi-row INSERT) or
// assertion-level (injection verdict) — must leave the log
// byte-identical and the in-memory state unchanged.
func TestRejectedStatementLeavesWALUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	db.MustExec("INSERT INTO t (a, b) VALUES (1, 'one')")
	db.Filter().RejectTaintedStructure(true)

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rejected := []struct {
		name string
		run  func() error
	}{
		{"update-missing-column", func() error {
			_, err := db.QueryRaw("UPDATE t SET nosuch = 1 WHERE a = 1")
			return err
		}},
		{"delete-missing-table", func() error {
			_, err := db.QueryRaw("DELETE FROM missing WHERE a = 1")
			return err
		}},
		{"update-arity", func() error {
			_, err := db.QueryRaw("UPDATE t SET b = ? WHERE a = 1")
			return err
		}},
		{"engine-unbound-placeholder", func() error {
			_, _, err := db.Engine().ExecuteRaw(&Update{
				Table: "t",
				Set:   []Assignment{{Column: "b", Value: &Param{Idx: 0}}},
			})
			return err
		}},
		{"engine-unbound-delete-where", func() error {
			_, _, err := db.Engine().ExecuteRaw(&Delete{Table: "t", Where: &Param{Idx: 0}})
			return err
		}},
		{"multi-row-insert-bad-second-row", func() error {
			_, err := db.QueryRaw("INSERT INTO t (a, b) VALUES (2, 'two'), ('notanint', 'three')")
			return err
		}},
		{"injection-verdict", func() error {
			evil := core.NewStringPolicy("1 OR 1=1", &sanitize.UntrustedData{Source: "attacker"})
			_, err := db.Query(core.Concat(core.NewString("DELETE FROM t WHERE a = "), evil))
			return err
		}},
	}
	for _, tc := range rejected {
		if err := tc.run(); err == nil {
			t.Fatalf("%s: statement unexpectedly succeeded", tc.name)
		}
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("rejected statements changed the log (%d -> %d bytes)", len(before), len(after))
	}
	res, err := db.QueryRaw("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("rows = %d, want 1 (no partial multi-row insert)", res.Len())
	}
	db.Close()
}

// TestWALCompaction: compaction bounds replay cost (the rewritten log is
// state-shaped, not history-shaped) and preserves tables, rows, indexes,
// and policy columns exactly.
func TestWALCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (id INT, val TEXT)")
	db.MustExec("CREATE INDEX ON t (id)")
	tainted := core.NewStringPolicy("keepme", &sanitize.UntrustedData{Source: "compact"})
	for i := 0; i < 50; i++ {
		if _, err := db.QueryRaw("INSERT INTO t (id, val) VALUES (?, ?)", i, tainted); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := db.QueryRaw("DELETE FROM t WHERE id = ?", i); err != nil {
			t.Fatal(err)
		}
	}
	grew := db.WALSize()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.WALSize() >= grew {
		t.Errorf("compaction did not shrink the log: %d -> %d", grew, db.WALSize())
	}
	// The log stays appendable after the handle swap.
	if _, err := db.QueryRaw("INSERT INTO t (id, val) VALUES (1000, 'post-compact')"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	res, err := db2.QueryRaw("SELECT id, val FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 11 {
		t.Fatalf("recovered rows = %d, want 11", res.Len())
	}
	if got := res.Get(0, "val").Str; !got.IsTainted() {
		t.Error("compaction dropped the policy annotation")
	}
	ix, err := db2.Engine().Indexes("t")
	if err != nil || len(ix) != 1 || ix[0] != "id" {
		t.Errorf("recovered indexes = %v (%v), want [id]", ix, err)
	}

	if err := Open(rt).Compact(); !errors.Is(err, ErrNoWAL) {
		t.Errorf("in-memory Compact = %v, want ErrNoWAL", err)
	}
}

// TestOpenDBInMemory: the empty path is the in-memory database — no
// file, no WAL, Close is a no-op.
func TestOpenDBInMemory(t *testing.T) {
	db, err := OpenDB(core.NewRuntime(), "")
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT)")
	if db.WALSize() != 0 {
		t.Errorf("in-memory WALSize = %d", db.WALSize())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRaw("INSERT INTO t (a) VALUES (1)"); err != nil {
		t.Errorf("in-memory DB must keep working after Close: %v", err)
	}
}

// TestWALSingleWriterLock: a second OpenDB on a live log fails with
// ErrWALBusy instead of interleaving appends; Close releases the lock,
// and the lock survives a compaction's file-handle swap.
func TestWALSingleWriterLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "locked.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (a INT)")
	if _, err := OpenDB(rt, path); !errors.Is(err, ErrWALBusy) {
		t.Fatalf("second open = %v, want ErrWALBusy", err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(rt, path); !errors.Is(err, ErrWALBusy) {
		t.Fatalf("second open after compaction = %v, want ErrWALBusy", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	if _, err := db2.QueryRaw("INSERT INTO t (a) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
}

// TestWALRecordSizeLimit: a statement whose record would exceed
// walMaxRecord is rejected as a unit — typed error, nothing applied,
// log byte-identical — instead of being acked and then silently
// truncated on the next open.
func TestWALRecordSizeLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (a TEXT)")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("x", walMaxRecord+1)
	if _, err := db.QueryRaw("INSERT INTO t (a) VALUES (?)", huge); !errors.Is(err, ErrWALRecordTooLarge) {
		t.Fatalf("oversized insert = %v, want ErrWALRecordTooLarge", err)
	}
	res, err := db.QueryRaw("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("oversized insert left %d rows in memory", res.Len())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("oversized insert changed the log")
	}

	// A refused record's annotations never reach the log, so they must
	// not enter its dictionary either — whether the record was a lone
	// statement's or the last of a transaction's group. The rows after
	// each refusal carry the same annotation; reopening must read back
	// exactly what the live engine holds.
	db.MustExec("CREATE TABLE u (a TEXT, b TEXT)")
	tainted := func(s, src string) core.String {
		return core.NewStringPolicy(s, &sanitize.UntrustedData{Source: src})
	}
	insert := "INSERT INTO u (a, b) VALUES (?, ?)"
	if _, err := db.QueryRaw(insert, huge, tainted("x", "lone")); !errors.Is(err, ErrWALRecordTooLarge) {
		t.Fatalf("oversized insert = %v, want ErrWALRecordTooLarge", err)
	}
	if _, err := db.QueryRaw(insert, "small", tainted("y", "lone")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.QueryRaw(insert, "small", tainted("z", "group")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.QueryRaw(insert, huge, "plain"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrWALRecordTooLarge) {
		t.Fatalf("oversized commit = %v, want ErrWALRecordTooLarge", err)
	}
	if _, err := db.QueryRaw(insert, "again", tainted("w", "group")); err != nil {
		t.Fatal(err)
	}
	want := dumpEngine(db.Engine())
	db.Close()
	db = openWALDB(t, rt, path)
	defer db.Close()
	if got := dumpEngine(db.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened after refused records:\n%+v\nwant\n%+v", got, want)
	}
}

// TestWALInterleavedCommitMatchesRestart: a direct write logged while a
// transaction is open touches different rows, so under per-row
// first-committer-wins BOTH survive the commit — the transaction merges
// into the base engine instead of swapping it out (the pre-MVCC engine
// discarded the interleaved write here). Disk must agree with memory:
// a restart reproduces the merged state exactly. The second half pins
// the conflict side: a transaction racing the same row id loses with
// ErrTxConflict, nothing of it reaches the log, and restart still
// matches memory.
func TestWALInterleavedCommitMatchesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "interleave.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (id INT, val TEXT)")
	db.MustExec("CREATE INDEX ON t (id)")
	db.MustExec("INSERT INTO t (id, val) VALUES (1, 'base')")

	tx := db.Begin()
	tx.MustExec("UPDATE t SET val = 'tx' WHERE id = 1")
	// Direct write after Begin: a different row id, so the commit below
	// merges alongside it rather than conflicting with (or clobbering)
	// it.
	db.MustExec("INSERT INTO t (id, val) VALUES (2, 'interleaved')")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryRaw("SELECT val FROM t WHERE id = 2")
	if err != nil || res.Len() != 1 {
		t.Fatalf("interleaved write lost by the commit merge: %v rows=%d", err, res.Len())
	}

	// Conflict regression: two transactions write row id 1; the first
	// commit wins, the second fails atomically.
	tx1 := db.Begin()
	tx1.MustExec("UPDATE t SET val = 'winner' WHERE id = 1")
	tx2 := db.Begin()
	tx2.MustExec("UPDATE t SET val = 'loser' WHERE id = 1")
	tx2.MustExec("INSERT INTO t (id, val) VALUES (3, 'loser-extra')")
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := db.WALSize()
	if err := tx2.Commit(); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("conflicting commit = %v, want ErrTxConflict", err)
	}
	if db.WALSize() != sizeBefore {
		t.Error("losing commit appended to the log")
	}
	if res, _ := db.QueryRaw("SELECT * FROM t WHERE id = 3"); res.Len() != 0 {
		t.Error("losing transaction's insert leaked into the database")
	}

	live := dumpEngine(db.Engine())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, live) {
		t.Fatalf("restart diverges from live state after interleaved commit\nlive:      %+v\nrecovered: %+v", live, got)
	}
	res, err = db2.QueryRaw("SELECT val FROM t WHERE id = 1")
	if err != nil || res.Len() != 1 || res.Get(0, "val").Str.Raw() != "winner" {
		t.Fatalf("committed update lost: %v rows=%d", err, res.Len())
	}
	if res, _ := db2.QueryRaw("SELECT val FROM t WHERE id = 2"); res.Len() != 1 {
		t.Error("interleaved write lost after restart")
	}
}

// TestTxCommitConflictsWithConcurrentDrop pins the one catalog rule a
// commit checks: a table the transaction wrote must still be the table
// it began on. A direct DROP TABLE, or a drop and re-create under the
// same name, landing after Begin makes Commit fail with ErrTxConflict,
// with the log and the database untouched.
func TestTxCommitConflictsWithConcurrentDrop(t *testing.T) {
	for _, c := range []struct {
		name   string
		direct []string
	}{
		{"drop", []string{"DROP TABLE t"}},
		{"drop and re-create", []string{"DROP TABLE t", "CREATE TABLE t (id INT, val TEXT)"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "drop.wal")
			rt := core.NewRuntime()
			db := openWALDB(t, rt, path)
			db.MustExec("CREATE TABLE t (id INT, val TEXT)")
			db.MustExec("INSERT INTO t (id, val) VALUES (1, 'base')")
			tx := db.Begin()
			tx.MustExec("INSERT INTO t (id, val) VALUES (2, 'tx')")
			for _, q := range c.direct {
				db.MustExec(q)
			}
			sizeBefore := db.WALSize()
			if err := tx.Commit(); !errors.Is(err, ErrTxConflict) {
				t.Fatalf("commit over a concurrent %s = %v, want ErrTxConflict", c.name, err)
			}
			if db.WALSize() != sizeBefore {
				t.Error("conflicted commit appended to the log")
			}
			if res, err := db.QueryRaw("SELECT * FROM t WHERE id = 2"); (err != nil && !errors.Is(err, ErrNoTable)) || (err == nil && res.Len() != 0) {
				t.Errorf("conflicted transaction's row leaked: %v", err)
			}
			live := dumpEngine(db.Engine())
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2 := openWALDB(t, rt, path)
			defer db2.Close()
			if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, live) {
				t.Fatalf("restart diverges from live state\nlive:      %+v\nrecovered: %+v", live, got)
			}
		})
	}
}

// TestWALReplaysInGroupDDL: logs written before DDL was refused inside
// transactions can hold 'S' records inside a begin..commit group. Such a
// log still opens with its schema, index and policies intact, takes new
// writes, reopens to the live state, and ships to a follower.
func TestWALReplaysInGroupDDL(t *testing.T) {
	ann, err := core.EncodeSpans(oracleTaint("secret"))
	if err != nil || ann == nil {
		t.Fatalf("annotation: %v", err)
	}
	docs := &CreateTable{Table: "docs", Cols: []ColumnDef{{Name: "id", Type: ColInt}, {Name: "body", Type: ColText}}}
	gone := &CreateTable{Table: "gone", Cols: []ColumnDef{{Name: "id", Type: ColInt}}}
	data := appendRecord([]byte(walHeader), stmtPayload(rewriteCreate(gone).SQL()))
	for _, p := range [][]byte{
		{walRecBegin},
		stmtPayload(rewriteCreate(docs).SQL()),
		stmtPayload("CREATE INDEX ON docs (id)"),
		opsPayload([]rowOp{{kind: opInsert, table: "docs", id: 1,
			vals: []value{intValue(1), textValue("secret"), nullValue(), textValue(string(ann))}}}, nil, nil),
		stmtPayload("DROP TABLE gone"),
		{walRecCommit},
	} {
		data = appendRecord(data, p)
	}
	path := filepath.Join(t.TempDir(), "ingroup.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	if tabs := db.Engine().Tables(); !reflect.DeepEqual(tabs, []string{"docs"}) {
		t.Fatalf("recovered tables %v, want [docs]", tabs)
	}
	if idx, err := db.Engine().Indexes("docs"); err != nil || !reflect.DeepEqual(idx, []string{"id"}) {
		t.Fatalf("recovered indexes %v (%v), want [id]", idx, err)
	}
	res, err := db.QueryRaw("SELECT body FROM docs WHERE id = 1")
	if err != nil || res.Len() != 1 || !res.Get(0, "body").Str.IsTainted() {
		t.Fatalf("recovered row lost its policy: %v", err)
	}
	checkFollowerParity(t, rt, data, rand.New(rand.NewSource(37)), db, nil)

	if _, err := db.Query(core.NewString("INSERT INTO docs (id, body) VALUES (2, ?)"), oracleTaint("more")); err != nil {
		t.Fatal(err)
	}
	live := dumpEngine(db.Engine())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, live) {
		t.Fatalf("reopen after extending diverges\nlive:      %+v\nrecovered: %+v", live, got)
	}
}

// TestWALCommitAfterCloseRefused: a transaction committing after
// DB.Close must not touch (or rewrite) the closed log — including the
// conflicted-commit path, which rewrites the file wholesale and would
// otherwise leak a fresh flocked fd.
func TestWALCommitAfterCloseRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lateclose.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (a INT)")

	tx1 := db.Begin()
	tx1.MustExec("INSERT INTO t (a) VALUES (1)")
	tx2 := db.Begin() // will be conflicted by tx1's commit
	tx2.MustExec("INSERT INTO t (a) VALUES (2)")
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrDBClosed) {
		t.Fatalf("commit after close = %v, want ErrDBClosed", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("commit after close rewrote the closed log")
	}
	// No leaked lock: the path reopens.
	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	res, err := db2.QueryRaw("SELECT * FROM t")
	if err != nil || res.Len() != 1 {
		t.Fatalf("recovered rows = %d (%v), want 1", res.Len(), err)
	}
}

// TestWALCompactDirSyncFailStop: when the directory sync after
// compaction's rename fails, Compact returns the cause and the log goes
// fail-stop — every later statement, commit and compaction fails with
// the sticky error — because the rename may not be durable and a record
// acked into the new file could vanish with it. Reads still answer,
// Close works, and a reopen recovers every acknowledged row.
func TestWALCompactDirSyncFailStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dirsync.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	for i := 0; i < 5; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t (a, b) VALUES (%d, 'row %d')", i, i))
	}
	db.MustExec("UPDATE t SET b = 'changed' WHERE a = 3")
	acked := dumpEngine(db.Engine())

	injected := errors.New("injected directory sync failure")
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(string) error { return injected }
	if err := db.Compact(); !errors.Is(err, injected) {
		t.Fatalf("Compact with a failing directory sync = %v, want the cause", err)
	}
	tx := db.Begin()
	tx.MustExec("INSERT INTO t (a, b) VALUES (9, 'in tx')")
	for what, err := range map[string]error{
		"statement": func() error { _, err := db.QueryRaw("INSERT INTO t (a, b) VALUES (7, 'late')"); return err }(),
		"commit":    tx.Commit(),
		"compact":   db.Compact(),
	} {
		if !errors.Is(err, injected) {
			t.Errorf("%s after the failed directory sync = %v, want the sticky error", what, err)
		}
	}
	res, err := db.QueryRaw("SELECT b FROM t WHERE a = 3")
	if err != nil || res.Len() != 1 || res.Get(0, "b").Str.Raw() != "changed" {
		t.Fatalf("read after the failed directory sync: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close after the failed directory sync: %v", err)
	}
	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, acked) {
		t.Fatalf("reopen after the failed directory sync\ngot:  %+v\nwant: %+v", got, acked)
	}
}

// TestWALAutoCompactPolicy exercises DB.SetWALAutoCompact: once the log
// grows past the armed threshold, churn triggers a background Compact
// that shrinks the file — while a transaction holding an open snapshot
// keeps reading its frontier unperturbed. Compaction rewrites only the
// log and vacuum respects registered snapshots, so "compaction never
// races an open snapshot" is a tested property, not a comment.
func TestWALAutoCompactPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "autocompact.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	db.MustExec("CREATE TABLE t (id INT, val TEXT)")
	db.MustExec("CREATE INDEX ON t (id)")
	for i := 0; i < 8; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t (id, val) VALUES (%d, 'seed-%d')", i, i))
	}

	tx := db.Begin() // open snapshot across the whole compaction storm
	snapBefore, err := tx.QueryRaw("SELECT id, val FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}

	const threshold = 4 << 10
	db.SetWALAutoCompact(threshold)
	// Churn the same 8 rows: the log grows with dead records while the
	// live state stays tiny, so a compaction must eventually win big.
	deadline := time.Now().Add(10 * time.Second)
	var maxSeen int64
	compacted := false
	for i := 0; !compacted; i++ {
		db.MustExec(fmt.Sprintf("UPDATE t SET val = 'gen-%d' WHERE id = %d", i, i%8))
		if sz := db.WALSize(); sz > maxSeen {
			maxSeen = sz
		} else if maxSeen > threshold && sz < maxSeen/2 {
			compacted = true // the file shrank: background Compact ran
		}
		if time.Now().After(deadline) {
			t.Fatalf("no auto-compaction after %d updates (WAL %d bytes, max %d)", i, db.WALSize(), maxSeen)
		}
	}

	// The open snapshot never moved.
	snapAfter, err := tx.QueryRaw("SELECT id, val FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if snapBefore.Len() != snapAfter.Len() {
		t.Fatalf("snapshot moved during compaction: %d rows then %d", snapBefore.Len(), snapAfter.Len())
	}
	for i := 0; i < snapBefore.Len(); i++ {
		if snapBefore.Get(i, "val").Str.Raw() != snapAfter.Get(i, "val").Str.Raw() {
			t.Fatalf("snapshot row %d changed during compaction", i)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Disarm, quiesce (a background Compact may still be in flight —
	// Compact serializes with it), and prove restart equality.
	db.SetWALAutoCompact(0)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	live := dumpEngine(db.Engine())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openWALDB(t, rt, path)
	defer db2.Close()
	if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, live) {
		t.Error("state diverges after restart following auto-compaction")
	}
}
