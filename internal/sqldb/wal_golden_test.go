package sqldb

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"resin/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestWALGoldenEncoding pins the WAL v4 byte format — magic and version
// byte, record framing (length + CRC), the statement/row-ops/begin/
// commit type bytes, table keys, row ids, presence bitmaps and value
// encodings inside 'W' records, an update logged as the cells it
// changes, the shadow-policy annotation serialization, and the
// dictionary's definitions ('D') and references ('A') — against
// testdata/wal_v4.golden. An accidental format change fails here loudly
// instead of silently orphaning old logs. Regenerate deliberately with:
//
//	go test ./internal/sqldb -run TestWALGoldenEncoding -update
//
// and bump walVersion if old logs can no longer replay.
// (TestWALV2Upgrade and TestWALV3Upgrade pin that the v2 and v3 goldens
// still open; TestWALLegacyV1Replay that v1 statement-format logs are
// refused untouched.)
func TestWALGoldenEncoding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)

	// The docs/SQL.md §3 worked example, persisted: a CREATE rewritten
	// with policy columns, an INSERT carrying a serialized annotation
	// (which defines dictionary entry 0), a second INSERT whose password
	// carries the same annotation (a reference to entry 0), a
	// rejected-free UPDATE inside a committed transaction (begin/commit
	// markers), and a standalone DELETE.
	db.MustExec("CREATE TABLE users (email TEXT, password TEXT)")
	for _, row := range [][2]string{{"u@example.org", "s3cretpw"}, {"v@example.org", "0therpw!"}} {
		pw := core.NewStringPolicy(row[1], &passwordPolicy{Email: "u@example.org"})
		if _, err := db.QueryRaw("INSERT INTO users (email, password) VALUES (?, ?)", row[0], pw); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	if _, err := tx.QueryRaw("UPDATE users SET password = ? WHERE email = ?",
		core.NewStringPolicy("n3wpw", &passwordPolicy{Email: "u@example.org"}), "u@example.org"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRaw("DELETE FROM users WHERE email = ?", "nobody@example.org"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte{walValDef}) || !bytes.Contains(got, []byte{walValRef, 0}) {
		t.Error("the golden scenario no longer defines and references a dictionary entry")
	}
	goldenPath := filepath.Join("testdata", "wal_v4.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("WAL encoding changed (%d bytes, want %d).\ngot:  %s\nwant: %s\n"+
			"If this is deliberate, bump walVersion, handle the old format in replayWAL, and regenerate with -update.",
			len(got), len(want), hexPreview(got), hexPreview(want))
	}

	// The golden bytes must also replay: byte-stability without replay
	// compatibility would pin the wrong contract.
	replayPath := filepath.Join(t.TempDir(), "replay.wal")
	if err := os.WriteFile(replayPath, want, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := openWALDB(t, rt, replayPath)
	defer db2.Close()
	res, err := db2.QueryRaw("SELECT password FROM users WHERE email = ?", "u@example.org")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "password").Str.Raw() != "n3wpw" {
		t.Fatalf("golden replay: %d rows, password %q", res.Len(), res.Get(0, "password").Str.Raw())
	}
	if !res.Get(0, "password").Str.IsTainted() {
		t.Error("golden replay lost the annotation")
	}
}

// TestWALLegacyV1Replay pins what happens to the retired v1 statement
// format: the checked-in testdata/wal_v1.golden bytes (left exactly as
// the v1 engine wrote them — they can never be regenerated) are refused
// as typed corruption naming the version, and the file on disk is left
// byte-for-byte as found — not truncated, not rewritten.
func TestWALLegacyV1Replay(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "wal_v1.golden"))
	if err != nil {
		t.Fatalf("%v (the v1 golden must stay checked in; it cannot be regenerated)", err)
	}
	if want[len(walMagic)] != 0x01 {
		t.Fatalf("v1 golden has version byte %d", want[len(walMagic)])
	}
	path := filepath.Join(t.TempDir(), "legacy.wal")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(core.NewRuntime(), path)
	if err == nil {
		db.Close()
		t.Fatal("v1 log opened; want typed corruption")
	}
	var ce *WALCorruptionError
	if !errors.Is(err, ErrWALCorrupt) || !errors.As(err, &ce) {
		t.Fatalf("v1 open error is not the typed corruption error: %v", err)
	}
	if !strings.Contains(ce.Reason, "version 1") || ce.Offset != int64(len(walMagic)) {
		t.Errorf("v1 corruption = %q at %d, want the version byte named at offset %d", ce.Reason, ce.Offset, len(walMagic))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("refused v1 log was modified on disk: %d bytes, want the original %d", len(got), len(want))
	}
}

// TestWALV2Upgrade opens the checked-in testdata/wal_v2.golden — a v2
// log, with every annotation inline — and requires the state its
// records replay to (as a replica fed the same records rebuilds it),
// the log rewritten as v3 on disk, and a log that takes writes and
// reopens to the same state.
func TestWALV2Upgrade(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "wal_v2.golden"))
	if err != nil {
		t.Fatalf("%v (the v2 golden must stay checked in as a read fixture)", err)
	}
	if v2[len(walMagic)] != walVersionV2 {
		t.Fatalf("v2 golden has version byte %d", v2[len(walMagic)])
	}
	rt := core.NewRuntime()
	fdb := openWALDB(t, rt, filepath.Join(t.TempDir(), "replica.wal"))
	defer fdb.Close()
	f, err := NewFollower(fdb)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(int64(walHeaderSize), v2[walHeaderSize:]); err != nil {
		t.Fatal(err)
	}
	want := dumpEngine(fdb.Engine())

	path := filepath.Join(t.TempDir(), "v2.wal")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	db := openWALDB(t, rt, path)
	if got := dumpEngine(db.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatalf("v2 log opened to\n%+v\nwant\n%+v", got, want)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(head[:walHeaderSize]) != walHeader {
		t.Fatalf("opened v2 log has header %q, want %q", head[:walHeaderSize], walHeader)
	}
	pw := core.NewStringPolicy("n3wpw", &passwordPolicy{Email: "u@example.org"})
	if _, err := db.QueryRaw("INSERT INTO users (email, password) VALUES (?, ?)", "w@example.org", pw); err != nil {
		t.Fatal(err)
	}
	want = dumpEngine(db.Engine())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openWALDB(t, rt, path)
	defer db.Close()
	if got := dumpEngine(db.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatalf("upgraded log reopened to\n%+v\nwant\n%+v", got, want)
	}
	res, err := db.QueryRaw("SELECT password FROM users WHERE email = ?", "u@example.org")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "password").Str.Raw() != "n3wpw" || !res.Get(0, "password").Str.IsTainted() {
		t.Fatalf("upgraded log lost the v2 row or its annotation")
	}
}

// TestWALV3Upgrade opens the checked-in testdata/wal_v3.golden — a v3
// log, whose row ops are 'R' records of whole rows with table names
// inline and annotations through the dictionary — and requires the
// state its records replay to (as a replica fed the same records
// rebuilds it), the log rewritten as v4 on disk, and a log that takes
// writes, an update of one column included, and reopens to the same
// state.
func TestWALV3Upgrade(t *testing.T) {
	v3, err := os.ReadFile(filepath.Join("testdata", "wal_v3.golden"))
	if err != nil {
		t.Fatalf("%v (the v3 golden must stay checked in as a read fixture)", err)
	}
	if v3[len(walMagic)] != walVersionV3 {
		t.Fatalf("v3 golden has version byte %d", v3[len(walMagic)])
	}
	if !bytes.Contains(v3, []byte{walValRef, 0}) {
		t.Fatal("the v3 golden no longer references a dictionary entry")
	}
	rt := core.NewRuntime()
	fdb := openWALDB(t, rt, filepath.Join(t.TempDir(), "replica.wal"))
	defer fdb.Close()
	f, err := NewFollower(fdb)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(int64(walHeaderSize), v3[walHeaderSize:]); err != nil {
		t.Fatal(err)
	}
	want := dumpEngine(fdb.Engine())

	path := filepath.Join(t.TempDir(), "v3.wal")
	if err := os.WriteFile(path, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	db := openWALDB(t, rt, path)
	if got := dumpEngine(db.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatalf("v3 log opened to\n%+v\nwant\n%+v", got, want)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(head[:walHeaderSize]) != walHeader {
		t.Fatalf("opened v3 log has header %q, want %q", head[:walHeaderSize], walHeader)
	}
	for off := walHeaderSize; off < len(head); {
		payload, end, ok := walNextRecord(head, off)
		if !ok || payload[0] == walRecRows {
			t.Fatalf("opened v3 log at %d: intact %v, record type %q", off, ok, payload[:min(len(payload), 1)])
		}
		off = end
	}
	pw := core.NewStringPolicy("n3wpw", &passwordPolicy{Email: "u@example.org"})
	if _, err := db.QueryRaw("INSERT INTO users (email, password) VALUES (?, ?)", "w@example.org", pw); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRaw("UPDATE users SET email = ? WHERE email = ?", "x@example.org", "v@example.org"); err != nil {
		t.Fatal(err)
	}
	want = dumpEngine(db.Engine())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openWALDB(t, rt, path)
	defer db.Close()
	if got := dumpEngine(db.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatalf("upgraded log reopened to\n%+v\nwant\n%+v", got, want)
	}
	res, err := db.QueryRaw("SELECT password FROM users WHERE email = ?", "x@example.org")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "password").Str.Raw() != "0therpw!" || !res.Get(0, "password").Str.IsTainted() {
		t.Fatalf("upgraded log lost the v3 row or its annotation after a one-column update")
	}
}

func hexPreview(b []byte) string {
	const n = 64
	if len(b) > n {
		return fmt.Sprintf("%q...", b[:n])
	}
	return fmt.Sprintf("%q", b)
}
