package sqldb

import (
	"fmt"
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
// per-cell annotations (EncodeSpans) through Prepare + Stmt.Query. Text
// with placeholders is prepared as written and executed with binding
// ordinal i bound to i+1 (by position, or by name), and DB.Query runs
// the same text with those values spliced in as literals, so the two
// agree only if the statement's placeholders map to the right
// arguments. Each input gets a fresh database, so a mutating input
// cannot change what the next one sees.
func FuzzSQLText(f *testing.F) {
	for _, q := range docSQLStatements(f) {
		f.Add(q)
	}
	f.Add("SELECT title FROM papers WHERE " + strings.Repeat("(", 300) + "id = 1" + strings.Repeat(")", 300))
	f.Add("SELECT title FROM papers WHERE " + strings.Repeat("NOT ", 300) + "id = 1")
	f.Add("SELECT title FROM papers WHERE id = 2 OR title = 'resin'")
	f.Add("SELECT reviewer FROM reviews WHERE paper = :p OR score > :s OR paper = :p ORDER BY reviewer")
	f.Add("SELECT reviewer FROM reviews WHERE score > ? ORDER BY score DESC LIMIT ?")

	f.Fuzz(func(t *testing.T, q string) {
		db := fuzzTextDB(t)
		args, spliced := bindSpliced(q)
		tx := db.Begin()
		tx.QueryRaw(q, args...) //nolint:errcheck // any outcome but a panic is fine
		tx.Rollback()           //nolint:errcheck
		direct, err := db.QueryRaw(spliced)
		_, isSelect := parsedAs(spliced).(*Select)
		st, perr := db.PrepareRaw(q)
		if perr != nil {
			if err == nil && isSelect {
				t.Fatalf("%q: DB.Query of %q succeeded, Prepare failed: %v", q, spliced, perr)
			}
			return
		}
		prepared, serr := st.Query(args...)
		if err != nil || !isSelect {
			return
		}
		if serr != nil {
			t.Fatalf("%q: DB.Query of %q succeeded, Stmt.Query failed: %v", q, spliced, serr)
		}
		requireSameResults(t, q, direct, prepared)
	})
}

// bindSpliced returns the arguments that bind each placeholder ordinal
// i of q to i+1 — positionally, or by name for `:name` text — and q
// with every placeholder replaced by its value as a literal. Text
// without placeholders, or that does not lex, comes back as it is.
func bindSpliced(q string) (args []any, spliced string) {
	toks, err := Lex(core.NewString(q))
	if err != nil {
		return nil, q
	}
	var b strings.Builder
	last := 0
	for _, tok := range toks {
		if tok.Type != TokPlaceholder {
			continue
		}
		if tok.ParamIdx == len(args) {
			if tok.Name == "" {
				args = append(args, tok.ParamIdx+1)
			} else {
				args = append(args, Named(tok.Name, tok.ParamIdx+1))
			}
		}
		fmt.Fprintf(&b, "%s %d ", q[last:tok.Start], tok.ParamIdx+1)
		last = tok.End
	}
	return args, b.String() + q[last:]
}

// parsedAs parses q, returning nil when it does not parse.
func parsedAs(q string) Statement {
	stmt, err := Parse(core.NewString(q))
	if err != nil {
		return nil
	}
	return stmt
}
