package sqldb

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"resin/internal/core"
)

func lexTypes(t *testing.T, q string) []TokenType {
	t.Helper()
	toks, err := Lex(core.NewString(q))
	if err != nil {
		t.Fatalf("Lex(%q): %v", q, err)
	}
	var out []TokenType
	for _, tok := range toks {
		out = append(out, tok.Type)
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(core.NewString("SELECT a, b FROM t WHERE x = 'it''s' AND y >= -3 -- trailing"))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Type.String())
	}
	want := []string{"keyword", "identifier", "comma", "identifier", "keyword", "identifier",
		"keyword", "identifier", "operator", "string", "keyword", "identifier", "operator", "number", "EOF"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Errorf("kinds = %v", kinds)
	}
	// The string literal decodes the doubled quote.
	for _, tok := range toks {
		if tok.Type == TokString {
			if tok.Value.Raw() != "it's" {
				t.Errorf("string value = %q", tok.Value.Raw())
			}
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	cases := []struct{ in, want string }{
		{`'plain'`, "plain"},
		{`''`, ""},
		{`'it''s'`, "it's"},
		{`'back\\slash'`, `back\slash`},
		{`'\''`, "'"},
	}
	for _, c := range cases {
		toks, err := Lex(core.NewString(c.in))
		if err != nil {
			t.Fatalf("Lex(%q): %v", c.in, err)
		}
		if toks[0].Type != TokString || toks[0].Value.Raw() != c.want {
			t.Errorf("Lex(%q) value = %q, want %q", c.in, toks[0].Value.Raw(), c.want)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, q := range []string{"'unterminated", `'dangling\`, "a $ b", "!x"} {
		if _, err := Lex(core.NewString(q)); err == nil {
			t.Errorf("Lex(%q) should fail", q)
		}
	}
}

func TestLexPolicyPropagationIntoLiterals(t *testing.T) {
	p := &allowPolicy{}
	q := core.Concat(
		core.NewString("SELECT x FROM t WHERE n='"),
		core.NewStringPolicy("se''cret", p),
		core.NewString("'"),
	)
	toks, err := Lex(q)
	if err != nil {
		t.Fatal(err)
	}
	var lit core.String
	for _, tok := range toks {
		if tok.Type == TokString {
			lit = tok.Value
		}
	}
	if lit.Raw() != "se'cret" {
		t.Fatalf("decoded = %q", lit.Raw())
	}
	if !lit.HasPolicyEverywhere(func(q core.Policy) bool { return q == p }) {
		t.Error("decoded literal must carry source policies on every byte")
	}
}

type allowPolicy struct{}

func (p *allowPolicy) ExportCheck(ctx *core.Context) error { return nil }

func TestStructuralClassification(t *testing.T) {
	structural := []TokenType{TokKeyword, TokIdent, TokOp, TokComma, TokLParen, TokRParen, TokStar, TokSemi}
	for _, tt := range structural {
		if !tt.Structural() {
			t.Errorf("%s should be structural", tt)
		}
	}
	for _, tt := range []TokenType{TokString, TokNumber, TokEOF} {
		if tt.Structural() {
			t.Errorf("%s should not be structural", tt)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"CREATE TABLE users (name TEXT, age INT)",
		"DROP TABLE users",
		"INSERT INTO users (name, age) VALUES ('alice', 30)",
		"INSERT INTO users (name, age) VALUES ('a', 1), ('b', 2)",
		"SELECT * FROM users",
		"SELECT name, age FROM users WHERE (age >= 18 AND name != 'bob') ORDER BY age DESC LIMIT 5",
		"UPDATE users SET age = 31, name = 'al' WHERE name = 'alice'",
		"DELETE FROM users WHERE age < 0",
		"SELECT name FROM users WHERE name LIKE 'a%'",
		"SELECT name FROM users WHERE NOT (age = 1 OR age = 2)",
		"SELECT name FROM users WHERE bio = NULL",
	}
	for _, q := range cases {
		stmt, err := Parse(core.NewString(q))
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		// Reparse the rendering; must parse cleanly and render identically.
		again, err := Parse(core.NewString(stmt.SQL()))
		if err != nil {
			t.Fatalf("reparse %q: %v", stmt.SQL(), err)
		}
		if again.SQL() != stmt.SQL() {
			t.Errorf("render not stable: %q vs %q", again.SQL(), stmt.SQL())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"BOGUS things",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT INTO t VALUES (1)",         // missing column list
		"INSERT INTO t (a, b) VALUES (1)",  // arity mismatch
		"UPDATE t SET a 1",                 // missing =
		"CREATE TABLE t (a BLOB)",          // bad type
		"CREATE TABLE t (a TEXT",           // missing paren
		"DELETE t",                         // missing FROM
		"SELECT * FROM t; SELECT * FROM u", // stacked queries
		"SELECT * FROM t LIMIT 'x'",        // bad limit
		"SELECT * FROM t WHERE SELECT",     // keyword in expr
		"DROP users",                       // missing TABLE
	}
	for _, q := range cases {
		if _, err := Parse(core.NewString(q)); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

// deepWhere returns a SELECT whose WHERE nests n levels deep: n
// parentheses around one comparison, or n chained NOTs before it.
func deepWhere(n int, not bool) string {
	if not {
		return "SELECT a FROM t WHERE " + strings.Repeat("NOT ", n) + "a = 1"
	}
	return "SELECT a FROM t WHERE " + strings.Repeat("(", n) + "a = 1" + strings.Repeat(")", n)
}

// TestParseNestingBound: an expression nested deeper than maxExprDepth
// — by parentheses or by NOTs — is a *ParseError from Parse, DB.Query
// and Prepare, not a stack overflow; nesting at the bound still parses.
func TestParseNestingBound(t *testing.T) {
	db := Open(core.NewRuntime())
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t (a) VALUES (1)")
	for _, not := range []bool{false, true} {
		q := deepWhere(100000, not)
		calls := map[string]func() error{
			"Parse":    func() error { _, err := Parse(core.NewString(q)); return err },
			"DB.Query": func() error { _, err := db.QueryRaw(q); return err },
			"Prepare":  func() error { _, err := db.PrepareRaw(q); return err },
		}
		for name, call := range calls {
			var pe *ParseError
			if err := call(); !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nested deeper than 256") {
				t.Errorf("%s of 100000-deep (not=%v): %v, want a *ParseError naming the bound", name, not, err)
			}
		}
		res, err := db.QueryRaw(deepWhere(maxExprDepth, not))
		if err != nil {
			t.Fatalf("%d-deep (not=%v): %v", maxExprDepth, not, err)
		}
		if res.Len() != 1 { // an even number of NOTs cancels out
			t.Errorf("%d-deep (not=%v): %d rows, want 1", maxExprDepth, not, res.Len())
		}
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse(core.NewString("SELECT * FROM t;")); err != nil {
		t.Errorf("trailing semicolon should parse: %v", err)
	}
}

func mustExecRaw(t *testing.T, e *Engine, q string) (*rawResult, int) {
	t.Helper()
	stmt, err := Parse(core.NewString(q))
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	raw, n, err := e.ExecuteRaw(stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return raw, n
}

func TestEngineCRUD(t *testing.T) {
	e := NewEngine()
	mustExecRaw(t, e, "CREATE TABLE users (name TEXT, age INT, bio TEXT)")
	_, n := mustExecRaw(t, e, "INSERT INTO users (name, age) VALUES ('alice', 30), ('bob', 25), ('carol', 35)")
	if n != 3 {
		t.Fatalf("inserted %d", n)
	}
	raw, _ := mustExecRaw(t, e, "SELECT name FROM users WHERE age > 26 ORDER BY age DESC")
	if len(raw.rows) != 2 || raw.rows[0][0].text() != "carol" || raw.rows[1][0].text() != "alice" {
		t.Fatalf("rows = %+v", raw.rows)
	}
	// bio was not inserted: NULL.
	raw, _ = mustExecRaw(t, e, "SELECT bio FROM users WHERE name = 'alice'")
	if !raw.rows[0][0].isNull() {
		t.Error("missing column should be NULL")
	}
	_, n = mustExecRaw(t, e, "UPDATE users SET age = 31 WHERE name = 'alice'")
	if n != 1 {
		t.Fatalf("updated %d", n)
	}
	raw, _ = mustExecRaw(t, e, "SELECT age FROM users WHERE name = 'alice'")
	if raw.rows[0][0].num() != 31 {
		t.Errorf("age = %v", raw.rows[0][0])
	}
	_, n = mustExecRaw(t, e, "DELETE FROM users WHERE age < 30")
	if n != 1 {
		t.Fatalf("deleted %d", n)
	}
	raw, _ = mustExecRaw(t, e, "SELECT * FROM users ORDER BY name")
	if len(raw.rows) != 2 {
		t.Fatalf("remaining = %d", len(raw.rows))
	}
	mustExecRaw(t, e, "DROP TABLE users")
	if _, _, err := e.ExecuteRaw(&Select{Table: "users", Star: true, Limit: -1}); !errors.Is(err, ErrNoTable) {
		t.Errorf("select after drop: %v", err)
	}
}

func TestEngineErrors(t *testing.T) {
	e := NewEngine()
	mustExecRaw(t, e, "CREATE TABLE t (a TEXT)")
	for _, q := range []string{
		"CREATE TABLE t (a TEXT)",            // exists
		"SELECT b FROM t",                    // no column
		"SELECT * FROM missing",              // no table
		"INSERT INTO t (b) VALUES (1)",       // no column
		"INSERT INTO missing (a) VALUES (1)", // no table
		"UPDATE t SET b = 1",                 // no column
		"UPDATE missing SET a = 1",           // no table
		"DELETE FROM missing",                // no table
		"DROP TABLE missing",                 // no table
		"SELECT * FROM t ORDER BY b",         // no order column
		"SELECT * FROM t WHERE b = 1",        // no where column
		"CREATE TABLE u (a TEXT, a INT)",     // dup column
		"INSERT INTO t (a) VALUES (1, 2)",    // arity (parse)
	} {
		stmt, err := Parse(core.NewString(q))
		if err != nil {
			continue // parse-time rejection is fine too
		}
		if _, _, err := e.ExecuteRaw(stmt); err == nil {
			t.Errorf("exec %q should fail", q)
		}
	}
}

func TestEngineTypeCoercion(t *testing.T) {
	e := NewEngine()
	mustExecRaw(t, e, "CREATE TABLE t (n INT, s TEXT)")
	// String into INT column parses; number into TEXT renders.
	mustExecRaw(t, e, "INSERT INTO t (n, s) VALUES ('42', 7)")
	raw, _ := mustExecRaw(t, e, "SELECT n, s FROM t")
	if raw.rows[0][0].num() != 42 || raw.rows[0][1].text() != "7" {
		t.Errorf("coercion = %+v", raw.rows[0])
	}
	stmt, _ := Parse(core.NewString("INSERT INTO t (n) VALUES ('not-a-number')"))
	if _, _, err := e.ExecuteRaw(stmt); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("bad int insert: %v", err)
	}
}

func TestEngineNullComparisons(t *testing.T) {
	e := NewEngine()
	mustExecRaw(t, e, "CREATE TABLE t (a TEXT, b TEXT)")
	mustExecRaw(t, e, "INSERT INTO t (a) VALUES ('x')")
	raw, _ := mustExecRaw(t, e, "SELECT a FROM t WHERE b = 'anything'")
	if len(raw.rows) != 0 {
		t.Error("NULL comparison must not match")
	}
	raw, _ = mustExecRaw(t, e, "SELECT a FROM t WHERE b != 'anything'")
	if len(raw.rows) != 0 {
		t.Error("NULL != must not match either")
	}
}

func TestEngineLike(t *testing.T) {
	e := NewEngine()
	mustExecRaw(t, e, "CREATE TABLE t (s TEXT)")
	mustExecRaw(t, e, "INSERT INTO t (s) VALUES ('hello'), ('help'), ('world'), ('h')")
	cases := []struct {
		pat  string
		want int
	}{
		{"hel%", 2},
		{"%o%", 2},
		{"h_lp", 1},
		{"h", 1},
		{"%", 4},
		{"_", 1},
		{"z%", 0},
	}
	for _, c := range cases {
		raw, _ := mustExecRaw(t, e, "SELECT s FROM t WHERE s LIKE '"+c.pat+"'")
		if len(raw.rows) != c.want {
			t.Errorf("LIKE %q matched %d, want %d", c.pat, len(raw.rows), c.want)
		}
	}
}

func TestLikeMatchUnit(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"a", "", false},
		{"abc", "abc", true},
		{"abc", "a%c", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"aXbXc", "a%b%c", true},
		{"abc", "%%%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestEngineOrderByNullsFirst(t *testing.T) {
	e := NewEngine()
	mustExecRaw(t, e, "CREATE TABLE t (a TEXT, k INT)")
	mustExecRaw(t, e, "INSERT INTO t (a, k) VALUES ('b', 1), (NULL, 2), ('a', 3)")
	raw, _ := mustExecRaw(t, e, "SELECT k FROM t ORDER BY a")
	if raw.rows[0][0].num() != 2 {
		t.Errorf("NULL should sort first: %+v", raw.rows)
	}
}

func TestEngineLimitAndTables(t *testing.T) {
	e := NewEngine()
	mustExecRaw(t, e, "CREATE TABLE t (n INT)")
	mustExecRaw(t, e, "INSERT INTO t (n) VALUES (1), (2), (3)")
	raw, _ := mustExecRaw(t, e, "SELECT n FROM t LIMIT 2")
	if len(raw.rows) != 2 {
		t.Errorf("limit rows = %d", len(raw.rows))
	}
	raw, _ = mustExecRaw(t, e, "SELECT n FROM t LIMIT 0")
	if len(raw.rows) != 0 {
		t.Errorf("limit 0 rows = %d", len(raw.rows))
	}
	if got := e.Tables(); len(got) != 1 || got[0] != "t" {
		t.Errorf("tables = %v", got)
	}
}

// Property: quoting via the AST renderer always reparses to the same
// string value — the engine-level analogue of the sanitizer property.
func TestQuickStringLitRenderRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsRune(s, 0) {
			return true // NULs are not representable in the dialect
		}
		lit := &StringLit{Val: core.NewString(s)}
		q := "SELECT a FROM t WHERE a = " + lit.SQL()
		stmt, err := Parse(core.NewString(q))
		if err != nil {
			return false
		}
		sel := stmt.(*Select)
		bin := sel.Where.(*Binary)
		got, ok := bin.R.(*StringLit)
		return ok && got.Val.Raw() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the lexer never panics and token ranges tile the input.
func TestQuickLexRanges(t *testing.T) {
	f := func(q string) bool {
		toks, err := Lex(core.NewString(q))
		if err != nil {
			return true // rejection is fine; no panic is the property
		}
		prev := 0
		for _, tok := range toks {
			if tok.Start < prev || tok.End < tok.Start || tok.End > len(q) {
				return false
			}
			prev = tok.End
		}
		return toks[len(toks)-1].Type == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
