package sqldb

import (
	"encoding/binary"
	"errors"
	"math"
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
// reach recovery's verdict (checkFollowerParity) — for a v4 log: a v2
// or v3 log recovers by compaction to v4, and a replica is only ever
// shipped its primary's v4 log.
func FuzzWALReplay(f *testing.F) {
	header := append([]byte(walMagic), walVersion)
	add := func(data []byte) { f.Add(data, int64(len(data))) }

	// Seed corpus: a real log (schema + annotated inserts, the second
	// referencing the first's annotation + tx group), its torn variants,
	// and targeted corruptions.
	seedPath := filepath.Join(f.TempDir(), "seed.wal")
	rt := core.NewRuntime()
	db, err := OpenDB(rt, seedPath)
	if err != nil {
		f.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (id INT, val TEXT)")
	db.MustExec("CREATE INDEX ON t (id)")
	for id := 1; id <= 2; id++ {
		if _, err := db.QueryRaw("INSERT INTO t (id, val) VALUES (?, ?)", id,
			core.NewStringPolicy("vv", &passwordPolicy{Email: "f@z"})); err != nil {
			f.Fatal(err)
		}
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

	// A log of what v4 logs as changes: a table key defined and then
	// referenced, a one-column delta, an update to NULL, and a
	// transaction that updates one row twice and then deletes it.
	deltaPath := filepath.Join(f.TempDir(), "delta.wal")
	db, err = OpenDB(rt, deltaPath)
	if err != nil {
		f.Fatal(err)
	}
	db.MustExec("CREATE TABLE u (id INT, a TEXT, b TEXT)")
	db.MustExec("INSERT INTO u (id, a, b) VALUES (1, 'x', 'y')")
	db.MustExec("INSERT INTO u (id, a, b) VALUES (2, 'x', 'y')")
	db.MustExec("UPDATE u SET a = 'z' WHERE id = 1")
	db.MustExec("UPDATE u SET b = NULL WHERE id = 2")
	tx = db.Begin()
	tx.MustExec("UPDATE u SET a = 'p' WHERE id = 1")
	tx.MustExec("UPDATE u SET b = 'q' WHERE id = 1")
	tx.MustExec("DELETE FROM u WHERE id = 1")
	if err := tx.Commit(); err != nil {
		f.Fatal(err)
	}
	db.Close()
	delta, err := os.ReadFile(deltaPath)
	if err != nil {
		f.Fatal(err)
	}

	add([]byte{})
	add(header)
	add(valid)
	add(delta)
	add(delta[:len(delta)-walRecHeaderSize-2])
	add(valid[:len(valid)-5])
	add(valid[:len(valid)/2])
	add(append([]byte("NOTAWAL!"), valid...))
	add(appendRecord(append([]byte(nil), header...), []byte{'Z', 0xff}))
	add(appendRecord(append([]byte(nil), header...), stmtPayload("DROP TABLE missing")))
	add(appendRecord(append([]byte(nil), header...), []byte{walRecBegin}))
	mut := append([]byte(nil), valid...)
	mut[len(header)+walRecHeaderSize+3] ^= 0x20
	add(mut)

	// Row-ops seeds. A well-formed 'W' record after its CREATE must
	// replay, its deltas resolved against the rows its own earlier ops
	// wrote; 'W' payloads that frame correctly (CRC valid) but decode to
	// nonsense — truncated op list, unknown table, tombstoned ghost —
	// must surface as typed corruption, not a panic.
	withCreate := appendRecord(append([]byte(nil), header...), stmtPayload("CREATE TABLE t (id INT, val TEXT)"))
	goodOps := opsPayload([]rowOp{
		{kind: opInsert, table: "t", id: 1, vals: []value{intValue(7), textValue("x")}},
		{kind: opUpdate, table: "t", id: 1, vals: []value{intValue(8), nullValue()}},
		{kind: opDelete, table: "t", id: 1},
	}, nil, nil)
	add(appendRecord(append([]byte(nil), withCreate...), goodOps))
	row := []value{intValue(7), textValue("x")}
	add(appendRecord(append([]byte(nil), withCreate...), opsPayload([]rowOp{
		{kind: opInsert, table: "t", id: 1, vals: row},
		{kind: opUpdate, table: "t", id: 1, vals: []value{intValue(8), row[1]}, old: row},
		{kind: opUpdate, table: "t", id: 1, vals: []value{intValue(8), nullValue()}, old: []value{intValue(8), row[1]}},
		{kind: opDelete, table: "t", id: 1},
	}, nil, nil)))
	add(appendRecord(append([]byte(nil), withCreate...), []byte{walRecOps, 0x09})) // claims 9 ops, has none
	add(appendRecord(append([]byte(nil), withCreate...),
		opsPayload([]rowOp{{kind: opUpdate, table: "ghost", id: 3, vals: []value{nullValue(), nullValue()}}}, nil, nil)))
	add(appendRecord(append([]byte(nil), withCreate...),
		opsPayload([]rowOp{{kind: opDelete, table: "t", id: 99}}, nil, nil))) // delete of a row never inserted
	add(appendRecord(append([]byte(nil), header...), goodOps)) // row ops before any schema

	// A column count at the top of the uvarint range, which must not
	// wrap the bitmap's length.
	add(appendRecord(append([]byte(nil), withCreate...),
		binary.AppendUvarint([]byte{walRecOps, 1, opInsert, walValText, 1, 't', 1}, math.MaxUint64)))

	// Dictionary seeds: a reference to an entry never defined; one
	// definition past walDictCap (each of walDictCap+1 inserts defines
	// one); a definition inside a group whose commit marker is torn,
	// which recovery must drop with the group.
	refOp := func(vals ...byte) []byte {
		return append([]byte{walRecOps, 1, opInsert, walValText, 1, 't', 1, 2, 0x03, walValInt, 2}, vals...)
	}
	add(appendRecord(append([]byte(nil), withCreate...), refOp(walValRef, 5)))
	past := binary.AppendUvarint([]byte{walRecOps}, walDictCap+1)
	for id := 1; id <= walDictCap+1; id++ {
		past = binary.AppendUvarint(append(past, opInsert, walValText, 1, 't'), uint64(id))
		past = append(past, 2, 0x03, walValInt, 2, walValDef, 1, 'x')
	}
	add(appendRecord(append([]byte(nil), withCreate...), past))
	torn := appendRecord(append([]byte(nil), withCreate...), []byte{walRecBegin})
	torn = appendRecord(torn, refOp(walValDef, 1, 'x'))
	add(appendRecord(torn, []byte{walRecCommit})[:len(torn)+walRecHeaderSize])

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
		if len(data) <= len(walMagic) || data[len(walMagic)] != walVersionV2 && data[len(walMagic)] != walVersionV3 {
			checkFollowerParity(t, rt, data, rand.New(rand.NewSource(chunking)), db, err)
		}
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
