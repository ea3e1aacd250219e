package sqldb

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"resin/internal/core"
)

// FuzzWALReplay feeds arbitrary bytes to recovery. The contract: never
// panic; either recovery succeeds — yielding a database rebuilt from a
// clean record prefix, with the file truncated to exactly that prefix so
// a second open reproduces the same state — or it fails with the typed
// corruption error. Nothing else. The same bytes, cut into chunks chosen
// by the second fuzz argument, also go to a fresh Follower, which must
// reach recovery's verdict (checkFollowerParity).
func FuzzWALReplay(f *testing.F) {
	header := append([]byte(walMagic), walVersion)
	add := func(data []byte) { f.Add(data, int64(len(data))) }

	// Seed corpus: a real log (schema + annotated insert + tx group),
	// its torn variants, and targeted corruptions.
	seedPath := filepath.Join(f.TempDir(), "seed.wal")
	rt := core.NewRuntime()
	db, err := OpenDB(rt, seedPath)
	if err != nil {
		f.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (id INT, val TEXT)")
	db.MustExec("CREATE INDEX ON t (id)")
	if _, err := db.QueryRaw("INSERT INTO t (id, val) VALUES (?, ?)", 1,
		core.NewStringPolicy("vv", &passwordPolicy{Email: "f@z"})); err != nil {
		f.Fatal(err)
	}
	tx := db.Begin()
	tx.MustExec("UPDATE t SET val = 'w' WHERE id = 1")
	if err := tx.Commit(); err != nil {
		f.Fatal(err)
	}
	db.Close()
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}

	add([]byte{})
	add(header)
	add(valid)
	add(valid[:len(valid)-5])
	add(valid[:len(valid)/2])
	add(append([]byte("NOTAWAL!"), valid...))
	add(appendRecord(append([]byte(nil), header...), []byte{'Z', 0xff}))
	add(appendRecord(append([]byte(nil), header...), stmtPayload("DROP TABLE missing")))
	add(appendRecord(append([]byte(nil), header...), []byte{walRecBegin}))
	mut := append([]byte(nil), valid...)
	mut[len(header)+walRecHeaderSize+3] ^= 0x20
	add(mut)

	// v2 row-ops seeds. A well-formed 'R' record after its CREATE must
	// replay; 'R' payloads that frame correctly (CRC valid) but decode to
	// nonsense — truncated op list, unknown table, tombstoned ghost —
	// must surface as typed corruption, not a panic.
	withCreate := appendRecord(append([]byte(nil), header...), stmtPayload("CREATE TABLE t (id INT, val TEXT)"))
	goodOps := opsPayload([]rowOp{
		{kind: opInsert, table: "t", id: 1, vals: []value{intValue(7), textValue("x")}},
		{kind: opUpdate, table: "t", id: 1, vals: []value{intValue(8), nullValue()}},
		{kind: opDelete, table: "t", id: 1},
	})
	add(appendRecord(append([]byte(nil), withCreate...), goodOps))
	add(appendRecord(append([]byte(nil), withCreate...), []byte{walRecOps, 0x09})) // claims 9 ops, has none
	add(appendRecord(append([]byte(nil), withCreate...),
		opsPayload([]rowOp{{kind: opUpdate, table: "ghost", id: 3, vals: []value{nullValue(), nullValue()}}})))
	add(appendRecord(append([]byte(nil), withCreate...),
		opsPayload([]rowOp{{kind: opDelete, table: "t", id: 99}}))) // delete of a row never inserted
	add(appendRecord(append([]byte(nil), header...), goodOps)) // row ops before any schema

	f.Fuzz(func(t *testing.T, data []byte, chunking int64) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenDB(rt, path)
		if err != nil && !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("recovery error is not the typed corruption error: %v", err)
		}
		checkFollowerParity(t, rt, data, rand.New(rand.NewSource(chunking)), db, err)
		if err != nil {
			return
		}
		state := dumpEngine(db.Engine())
		if err := db.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		// Idempotence: recovery truncated the log to a clean prefix, so a
		// second open must succeed and yield the identical state.
		db2, err := OpenDB(rt, path)
		if err != nil {
			t.Fatalf("second open after successful recovery: %v", err)
		}
		defer db2.Close()
		if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, state) {
			t.Fatalf("second recovery diverges: %+v vs %+v", got, state)
		}
	})
}
