package resinsql_test

import (
	"context"
	"database/sql"
	"errors"
	"path/filepath"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
	"resin/resinsql"
)

// open binds a fresh tracked RESIN database under name and opens it
// through database/sql.
func open(t *testing.T, name string) (*sql.DB, *sqldb.DB) {
	t.Helper()
	rdb := sqldb.Open(core.NewRuntime())
	resinsql.Bind(name, rdb)
	t.Cleanup(func() { resinsql.Unbind(name) })
	db, err := sql.Open(resinsql.DriverName, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, rdb
}

// TestDriverRoundTripPreservesPolicies is the acceptance-criterion
// round trip: Register → sql.Open → Prepare → Query through the
// standard database/sql API, with a tracked bound argument whose
// policy annotation must survive into the shadow policy column and
// back onto the scanned result.
func TestDriverRoundTripPreservesPolicies(t *testing.T) {
	db, _ := open(t, "roundtrip")

	if _, err := db.Exec("CREATE TABLE users (name TEXT, bio TEXT)"); err != nil {
		t.Fatal(err)
	}

	tainted := sanitize.Taint(core.NewString("alice"), "form:name")
	ins, err := db.Prepare("INSERT INTO users (name, bio) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	res, err := ins.Exec(tainted, "likes systems")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res.RowsAffected(); err != nil || n != 1 {
		t.Fatalf("RowsAffected = %d, %v", n, err)
	}

	sel, err := db.Prepare("SELECT name, bio FROM users WHERE name = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	rows, err := sel.Query(tainted)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no row came back")
	}
	var name resinsql.String
	var bio string
	if err := rows.Scan(&name, &bio); err != nil {
		t.Fatal(err)
	}
	if name.V.Raw() != "alice" || bio != "likes systems" {
		t.Fatalf("got (%q, %q)", name.V.Raw(), bio)
	}
	if !name.V.IsTainted() || !name.V.Policies().Any(sanitize.IsUntrusted) {
		t.Error("tracked cell lost its UntrustedData policy across the driver boundary")
	}
	if rows.Next() {
		t.Error("more than one row")
	}
}

// TestDriverPlainValuesStayPlain checks the policy-oblivious path:
// untracked arguments and untainted cells cross the boundary as plain
// driver values, scannable by vanilla destinations.
func TestDriverPlainValuesStayPlain(t *testing.T) {
	db, _ := open(t, "plain")
	if _, err := db.Exec("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", "answer", 42); err != nil {
		t.Fatal(err)
	}
	var k string
	var v int64
	if err := db.QueryRow("SELECT k, v FROM kv WHERE k = ?", "answer").Scan(&k, &v); err != nil {
		t.Fatal(err)
	}
	if k != "answer" || v != 42 {
		t.Fatalf("got (%q, %d)", k, v)
	}
}

// TestDriverNullDistinguished: the scanner wrappers report SQL NULL
// via Valid instead of conflating it with the zero value.
func TestDriverNullDistinguished(t *testing.T) {
	db, _ := open(t, "nulls")
	if _, err := db.Exec("CREATE TABLE t (a TEXT, b TEXT, n INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (a, b, n) VALUES (?, ?, ?)", nil, "", nil); err != nil {
		t.Fatal(err)
	}
	var a, b resinsql.String
	var n resinsql.Int
	if err := db.QueryRow("SELECT a, b, n FROM t").Scan(&a, &b, &n); err != nil {
		t.Fatal(err)
	}
	if a.Valid || a.V.Raw() != "" {
		t.Errorf("NULL text: Valid=%v V=%q", a.Valid, a.V.Raw())
	}
	if !b.Valid || b.V.Raw() != "" {
		t.Errorf("empty text: Valid=%v V=%q", b.Valid, b.V.Raw())
	}
	if n.Valid || n.V.Value() != 0 {
		t.Errorf("NULL int: Valid=%v V=%d", n.Valid, n.V.Value())
	}
}

// TestDriverArityEnforced: NumInput lets database/sql reject wrong
// argument counts before the driver executes anything.
func TestDriverArityEnforced(t *testing.T) {
	db, _ := open(t, "arity")
	if _, err := db.Exec("CREATE TABLE t (a TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (a) VALUES (?)"); err == nil {
		t.Error("missing bound argument was accepted")
	}
	if _, err := db.Exec("INSERT INTO t (a) VALUES (?)", "x", "y"); err == nil {
		t.Error("extra bound argument was accepted")
	}
}

// TestDriverTransactions drives sqldb's speculative transactions
// through the database/sql Tx API.
func TestDriverTransactions(t *testing.T) {
	db, _ := open(t, "tx")
	if _, err := db.Exec("CREATE TABLE acct (owner TEXT, balance INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO acct (owner, balance) VALUES (?, ?)", "alice", 100); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE acct SET balance = ? WHERE owner = ?", 70, "alice"); err != nil {
		t.Fatal(err)
	}
	var mid int64
	if err := db.QueryRow("SELECT balance FROM acct WHERE owner = ?", "alice").Scan(&mid); err != nil {
		t.Fatal(err)
	}
	if mid != 100 {
		t.Errorf("uncommitted write visible outside the tx: %d", mid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var after int64
	if err := db.QueryRow("SELECT balance FROM acct WHERE owner = ?", "alice").Scan(&after); err != nil {
		t.Fatal(err)
	}
	if after != 70 {
		t.Errorf("committed balance = %d, want 70", after)
	}

	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("UPDATE acct SET balance = ? WHERE owner = ?", 0, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	var rolled int64
	if err := db.QueryRow("SELECT balance FROM acct WHERE owner = ?", "alice").Scan(&rolled); err != nil {
		t.Fatal(err)
	}
	if rolled != 70 {
		t.Errorf("rolled-back write persisted: %d", rolled)
	}
}

// TestDriverUnknownDSN: opening an unbound name fails with a pointer
// at Bind.
func TestDriverUnknownDSN(t *testing.T) {
	db, err := sql.Open(resinsql.DriverName, "never-bound")
	if err != nil {
		t.Fatal(err) // sql.Open defers dialing; the Ping must fail
	}
	defer db.Close()
	if err := db.Ping(); err == nil {
		t.Error("Ping on an unbound DSN succeeded")
	}
}

// TestDriverTaintedIntRoundTrip: integer cells keep their policies too,
// via the Int scanner.
func TestDriverTaintedIntRoundTrip(t *testing.T) {
	db, _ := open(t, "taintint")
	if _, err := db.Exec("CREATE TABLE scores (id INT, score INT)"); err != nil {
		t.Fatal(err)
	}
	score := core.NewInt(91).WithPolicy(&sanitize.UntrustedData{Source: "form:score"})
	if _, err := db.Exec("INSERT INTO scores (id, score) VALUES (?, ?)", 1, score); err != nil {
		t.Fatal(err)
	}
	var got resinsql.Int
	if err := db.QueryRow("SELECT score FROM scores WHERE id = ?", 1).Scan(&got); err != nil {
		t.Fatal(err)
	}
	if got.V.Value() != 91 {
		t.Fatalf("score = %d", got.V.Value())
	}
	if !got.V.IsTainted() || !got.V.Policies().Any(sanitize.IsUntrusted) {
		t.Error("integer cell lost its policy across the driver boundary")
	}
}

// TestFileDSNRestartPreservesPolicies is the durability acceptance
// round trip through the driver facade: a file: DSN opens a WAL-backed
// database, a tracked value inserted before a restart (close + reopen of
// the same path) still carries its UntrustedData policy after recovery.
func TestFileDSNRestartPreservesPolicies(t *testing.T) {
	rt := core.NewRuntime()
	dsn := resinsql.FilePrefix + filepath.Join(t.TempDir(), "facade.wal")

	native, err := resinsql.OpenFile(dsn, rt)
	if err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open(resinsql.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE notes (id INT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	tainted := sanitize.Taint(core.NewString("remember me"), "form:body")
	if _, err := db.Exec("INSERT INTO notes (id, body) VALUES (?, ?)", 7, tainted); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_ = native // the native handle is owned by the registry; CloseFile closes it
	if err := resinsql.CloseFile(dsn); err != nil {
		t.Fatal(err)
	}

	// Restart: an unbound file: DSN recovers lazily inside the driver —
	// plain database/sql code, nothing but the path.
	db2, err := sql.Open(resinsql.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	defer resinsql.CloseFile(dsn) //nolint:errcheck
	var body resinsql.String
	if err := db2.QueryRow("SELECT body FROM notes WHERE id = ?", 7).Scan(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Valid || body.V.Raw() != "remember me" {
		t.Fatalf("recovered body = %q (valid=%v)", body.V.Raw(), body.Valid)
	}
	found := false
	for _, p := range body.V.Policies().Policies() {
		if u, ok := p.(*sanitize.UntrustedData); ok && u.Source == "form:body" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered policies = %s, want UntrustedData{form:body}", body.V.Describe())
	}
}

// TestOpenFileRejectsBadDSN pins the error paths of the file: scheme.
func TestOpenFileRejectsBadDSN(t *testing.T) {
	rt := core.NewRuntime()
	if _, err := resinsql.OpenFile("not-a-file-dsn", rt); err == nil {
		t.Error("OpenFile accepted a DSN without the file: prefix")
	}
	if _, err := resinsql.OpenFile(resinsql.FilePrefix, rt); err == nil {
		t.Error("OpenFile accepted an empty path")
	}
	if _, err := sql.Open(resinsql.DriverName, "unbound-name"); err == nil {
		// driver.Open runs lazily; force a connection.
		db, _ := sql.Open(resinsql.DriverName, "unbound-name")
		if db != nil {
			if err := db.Ping(); err == nil {
				t.Error("unbound non-file DSN connected")
			}
			db.Close()
		}
	}
}

// TestDriverTxRefusesDDL: through database/sql on the in-process
// driver, a schema statement inside a sql.Tx fails with sqldb.ErrTxDDL,
// and the same sql.Tx then commits a row.
func TestDriverTxRefusesDDL(t *testing.T) {
	for i, ddl := range []string{
		"CREATE TABLE other (a INT)",
		"DROP TABLE kv",
		"CREATE INDEX ON kv (v)",
		"DROP INDEX ON kv (k)",
	} {
		t.Run(ddl, func(t *testing.T) {
			db, _ := open(t, "txddl")
			ctx := context.Background()
			for _, q := range []string{"CREATE TABLE kv (k TEXT, v INT)", "CREATE INDEX ON kv (k)"} {
				if _, err := db.ExecContext(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
			tx, err := db.BeginTx(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.ExecContext(ctx, ddl); !errors.Is(err, sqldb.ErrTxDDL) {
				t.Fatalf("%s in a sql.Tx: %v, want sqldb.ErrTxDDL", ddl, err)
			}
			if _, err := tx.ExecContext(ctx, "INSERT INTO kv (k, v) VALUES (?, ?)", "after", i); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			var v int
			if err := db.QueryRowContext(ctx, "SELECT v FROM kv WHERE k = ?", "after").Scan(&v); err != nil || v != i {
				t.Fatalf("row written after the refusal: v=%d err=%v", v, err)
			}
		})
	}
}
