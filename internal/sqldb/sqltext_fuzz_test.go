package sqldb

import (
	"os"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// docSQLStatements returns the example statements of docs/SQL.md's sql
// blocks: statement lines, commented "-- SELECT …" examples, and
// multi-line statements joined into one.
func docSQLStatements(f *testing.F) []string {
	data, err := os.ReadFile("../../docs/SQL.md")
	if err != nil {
		f.Fatalf("docs/SQL.md must exist: %v", err)
	}
	isStmt := func(s string) bool {
		for _, kw := range []string{"CREATE ", "DROP ", "INSERT ", "SELECT ", "UPDATE ", "DELETE "} {
			if strings.HasPrefix(s, kw) {
				return true
			}
		}
		return false
	}
	var out []string
	inBlock := false
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "```"):
			inBlock = line == "```sql"
		case !inBlock || line == "":
		case isStmt(strings.TrimPrefix(line, "-- ")):
			out = append(out, strings.TrimPrefix(line, "-- "))
		case !strings.HasPrefix(line, "--") && len(out) > 0:
			out[len(out)-1] += " " + line // continuation of a multi-line statement
		}
	}
	if len(out) < 20 {
		f.Fatalf("found %d example statements in docs/SQL.md, want at least 20", len(out))
	}
	return out
}

// fuzzTextDB builds the fixed schema FuzzSQLText runs against: two join
// partners, an index on each join key, a NULL key on each side and
// tainted text.
func fuzzTextDB(t testing.TB) *DB {
	db := Open(core.NewRuntime())
	db.MustExec("CREATE TABLE papers (id INT, title TEXT)")
	db.MustExec("CREATE TABLE reviews (paper INT, reviewer TEXT, score INT)")
	db.MustExec("CREATE INDEX ON papers (id)")
	db.MustExec("CREATE INDEX ON reviews (paper)")
	for _, q := range []core.String{
		core.Concat(core.NewString("INSERT INTO papers (id, title) VALUES (1, '"),
			sanitize.Taint(core.NewString("resin"), "fuzz"), core.NewString("'), (2, 'mace'), (NULL, 'nil')")),
		core.Concat(core.NewString("INSERT INTO reviews (paper, reviewer, score) VALUES (1, '"),
			sanitize.Taint(core.NewString("ann"), "fuzz"), core.NewString("', 7), (2, 'bob', 4), (NULL, 'cat', 1), (9, 'dan', 2)")),
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// FuzzSQLText runs arbitrary statement text through the three ways in:
// DB.Query, Prepare + Stmt.Query, and Tx.Query + Rollback. Each must
// return rather than panic or exhaust the stack, and a SELECT that
// succeeds through DB.Query must give the same columns, rows and
// per-cell annotations (EncodeSpans) through Prepare + Stmt.Query. Each
// input gets a fresh database, so a mutating input cannot change what
// the next one sees.
func FuzzSQLText(f *testing.F) {
	for _, q := range docSQLStatements(f) {
		f.Add(q)
	}
	f.Add("SELECT title FROM papers WHERE " + strings.Repeat("(", 300) + "id = 1" + strings.Repeat(")", 300))
	f.Add("SELECT title FROM papers WHERE " + strings.Repeat("NOT ", 300) + "id = 1")

	f.Fuzz(func(t *testing.T, q string) {
		db := fuzzTextDB(t)
		tx := db.Begin()
		tx.QueryRaw(q) //nolint:errcheck // any outcome but a panic is fine
		tx.Rollback()  //nolint:errcheck
		direct, err := db.QueryRaw(q)
		_, isSelect := parsedAs(q).(*Select)
		st, perr := db.PrepareRaw(q)
		if perr != nil {
			if err == nil && isSelect {
				t.Fatalf("%q: DB.Query succeeded, Prepare failed: %v", q, perr)
			}
			return
		}
		prepared, serr := st.Query()
		if err != nil || !isSelect {
			return
		}
		if serr != nil {
			t.Fatalf("%q: DB.Query succeeded, Stmt.Query failed: %v", q, serr)
		}
		requireSameResults(t, q, direct, prepared)
	})
}

// parsedAs parses q, returning nil when it does not parse.
func parsedAs(q string) Statement {
	stmt, err := Parse(core.NewString(q))
	if err != nil {
		return nil
	}
	return stmt
}
