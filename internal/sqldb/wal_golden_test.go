package sqldb

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resin/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestWALGoldenEncoding pins the WAL v2 byte format — magic and version
// byte, record framing (length + CRC), the statement/row-ops/begin/
// commit type bytes, row ids and value encodings inside 'R' records,
// and the shadow-policy annotation serialization — against
// testdata/wal_v2.golden. An accidental format change fails here loudly
// instead of silently orphaning old logs. Regenerate deliberately with:
//
//	go test ./internal/sqldb -run TestWALGoldenEncoding -update
//
// and bump walVersion if old logs can no longer replay.
// (TestWALLegacyV1Replay separately pins that v1 statement-format logs
// are refused untouched.)
func TestWALGoldenEncoding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)

	// The docs/SQL.md §3 worked example, persisted: a CREATE rewritten
	// with policy columns, an INSERT carrying a serialized annotation, a
	// rejected-free UPDATE inside a committed transaction (begin/commit
	// markers), and a standalone DELETE.
	db.MustExec("CREATE TABLE users (email TEXT, password TEXT)")
	pw := core.NewStringPolicy("s3cretpw", &passwordPolicy{Email: "u@example.org"})
	if _, err := db.QueryRaw("INSERT INTO users (email, password) VALUES (?, ?)",
		"u@example.org", pw); err != nil {
		t.Fatal(err)
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
	goldenPath := filepath.Join("testdata", "wal_v2.golden")
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

func hexPreview(b []byte) string {
	const n = 64
	if len(b) > n {
		return fmt.Sprintf("%q...", b[:n])
	}
	return fmt.Sprintf("%q", b)
}
