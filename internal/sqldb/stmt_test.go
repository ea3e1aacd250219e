package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// TestPreparedStatementBasics: a statement mixing inline literals and
// `?` placeholders prepares once and executes with bound values.
func TestPreparedStatementBasics(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE users (name TEXT, role TEXT, age INT)")

	ins := db.MustPrepare("INSERT INTO users (name, role, age) VALUES (?, 'user', ?)")
	if ins.NumArgs() != 2 {
		t.Fatalf("NumArgs = %d, want 2", ins.NumArgs())
	}
	if n, err := ins.Exec("alice", 30); err != nil || n != 1 {
		t.Fatalf("Exec = %d, %v", n, err)
	}
	if n, err := ins.Exec("bob", 40); err != nil || n != 1 {
		t.Fatalf("Exec = %d, %v", n, err)
	}

	sel := db.MustPrepare("SELECT name, age FROM users WHERE role = 'user' AND age > ?")
	res, err := sel.Query(35)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "name").Str.Raw() != "bob" {
		t.Fatalf("got %d rows, first name %q", res.Len(), res.Get(0, "name").Str.Raw())
	}

	upd := db.MustPrepare("UPDATE users SET age = ? WHERE name = ?")
	if n, err := upd.Exec(31, "alice"); err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	del := db.MustPrepare("DELETE FROM users WHERE name = ?")
	if n, err := del.Exec("bob"); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
}

// TestPreparedZeroTokenizeZeroParse pins the prepared-statement
// contract: after Prepare, repeated executions invoke neither the
// tokenizer nor the parser.
func TestPreparedZeroTokenizeZeroParse(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, v TEXT)")
	ins := db.MustPrepare("INSERT INTO t (id, v) VALUES (?, ?)")
	sel := db.MustPrepare("SELECT v FROM t WHERE id = ?")
	if _, err := sel.Query(0); err != nil { // warm the schema-derived plan state
		t.Fatal(err)
	}

	lex0, parse0 := TokenizeCount(), ParseCount()
	for i := 0; i < 200; i++ {
		if _, err := ins.Exec(i, "v"); err != nil {
			t.Fatal(err)
		}
		res, err := sel.Query(i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("row %d missing", i)
		}
	}
	if lexed := TokenizeCount() - lex0; lexed != 0 {
		t.Errorf("prepared executions tokenized %d times, want 0", lexed)
	}
	if parsed := ParseCount() - parse0; parsed != 0 {
		t.Errorf("prepared executions parsed %d times, want 0", parsed)
	}
}

// TestBindArity: placeholder count and argument count must match, on
// every query surface.
func TestBindArity(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT, b TEXT)")

	st := db.MustPrepare("INSERT INTO t (a, b) VALUES (?, ?)")
	if _, err := st.Exec("one"); err == nil || !strings.Contains(err.Error(), "2 placeholder(s) but 1") {
		t.Errorf("missing arg: %v", err)
	}
	if _, err := st.Exec("one", "two", "three"); err == nil || !strings.Contains(err.Error(), "2 placeholder(s) but 3") {
		t.Errorf("extra arg: %v", err)
	}

	if _, err := db.QueryRaw("SELECT a FROM t WHERE a = ?"); err == nil {
		t.Error("variadic DB.Query accepted a placeholder with no argument")
	}
	if _, err := db.QueryRaw("SELECT a FROM t", "stray"); err == nil {
		t.Error("variadic DB.Query accepted an argument with no placeholder")
	}

	tx := db.Begin()
	if _, err := tx.QueryRaw("SELECT a FROM t WHERE a = ?"); err == nil {
		t.Error("Tx.Query accepted a placeholder with no argument")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	view := &View{engine: db.Engine()}
	if _, err := view.QueryRaw("SELECT a FROM t WHERE a = ?"); err == nil {
		t.Error("View.Query accepted a placeholder with no argument")
	}
}

// TestVariadicQueryBindsValues: the variadic DB.Query form binds
// tracked and plain values through the filter channel.
func TestVariadicQueryBindsValues(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE kv (k TEXT, v INT)")
	tainted := sanitize.Taint(core.NewString("key-1"), "form:k")
	if _, err := db.Query(core.NewString("INSERT INTO kv (k, v) VALUES (?, ?)"), tainted, 7); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(core.NewString("SELECT k, v FROM kv WHERE k = ?"), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "v").Int.Value() != 7 {
		t.Fatalf("got %d rows", res.Len())
	}
	if !res.Get(0, "k").Str.Policies().Any(sanitize.IsUntrusted) {
		t.Error("bound tracked value lost its policy through the variadic path")
	}
}

// TestBoundPolicyRoundTrip is the satellite acceptance test: an
// UntrustedData-tainted value bound via `?` must come back from SELECT
// carrying the same policies, decoded through the batched
// CompileAnnotation path, with the re-attached set interned — two
// reads of the same annotation share one policy-set pointer.
func TestBoundPolicyRoundTrip(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE notes (id INT, body TEXT)")

	tainted := sanitize.Taint(core.NewString("hello <script>"), "form:body")
	ins := db.MustPrepare("INSERT INTO notes (id, body) VALUES (?, ?)")
	if _, err := ins.Exec(1, tainted); err != nil {
		t.Fatal(err)
	}

	sel := db.MustPrepare("SELECT body FROM notes WHERE id = ?")
	res1, err := sel.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	got := res1.Get(0, "body").Str
	if got.Raw() != "hello <script>" {
		t.Fatalf("body = %q", got.Raw())
	}
	if !got.IsTainted() || !got.Policies().Any(sanitize.IsUntrusted) {
		t.Fatal("bound value came back without its UntrustedData policy")
	}
	// Every byte carries the policy (Taint annotates the whole value).
	if !got.HasPolicyEverywhere(sanitize.IsUntrusted) {
		t.Error("policy does not cover the whole round-tripped value")
	}

	// The batched decode path interns the re-attached set; a second
	// read of the same stored annotation must share the same pointer
	// (core.CompileAnnotation memoizes per annotation bytes).
	res2, err := sel.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	ps1 := res1.Get(0, "body").Str.PoliciesAt(0)
	ps2 := res2.Get(0, "body").Str.PoliciesAt(0)
	if ps1 != ps2 {
		t.Error("two reads of one annotation decoded to different policy-set pointers")
	}
	if ps1.Intern() != ps1 {
		t.Error("round-tripped policy set is not the interned instance")
	}

	// Tainted integers round-trip too: the annotation stored against
	// the digit string merges back onto the integer cell.
	db.MustExec("CREATE TABLE scores (id INT, score INT)")
	score := core.NewInt(42).WithPolicy(&sanitize.UntrustedData{Source: "form:score"})
	if _, err := db.Query(core.NewString("INSERT INTO scores (id, score) VALUES (?, ?)"), 1, score); err != nil {
		t.Fatal(err)
	}
	sres, err := db.Query(core.NewString("SELECT score FROM scores WHERE id = ?"), 1)
	if err != nil {
		t.Fatal(err)
	}
	back := sres.Get(0, "score").Int
	if back.Value() != 42 || !back.Policies().Any(sanitize.IsUntrusted) {
		t.Errorf("tainted int round trip: value %d tainted %v", back.Value(), back.IsTainted())
	}
}

// TestBoundArgsSkipInjectionAssertions: both §5.3 strategies inspect
// query text, so a bound tainted value passes by construction — while
// the same payload spliced into text is still rejected.
func TestBoundArgsSkipInjectionAssertions(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE users (name TEXT)")
	db.Filter().RequireSanitizedMarkers(true)
	db.Filter().RejectTaintedStructure(true)

	payload := sanitize.Taint(core.NewString("x' OR 'a' = 'a"), "form:name")

	spliced := core.Concat(core.NewString("SELECT name FROM users WHERE name = '"), payload, core.NewString("'"))
	if _, err := db.Query(spliced); err == nil {
		t.Fatal("spliced payload was not rejected")
	}

	st := db.MustPrepare("SELECT name FROM users WHERE name = ?")
	res, err := st.Query(payload)
	if err != nil {
		t.Fatalf("bound payload rejected: %v", err)
	}
	if res.Len() != 0 {
		t.Fatalf("payload matched %d rows; it must be an inert value", res.Len())
	}
	// Same through the variadic text path.
	if _, err := db.Query(core.NewString("SELECT name FROM users WHERE name = ?"), payload); err != nil {
		t.Fatalf("variadic bound payload rejected: %v", err)
	}
}

// TestPreparedTaintedTextStillChecked: binding exempts values, not the
// statement text — prepared text that itself carries untrusted
// structure still fails the assertions at execution time.
func TestPreparedTaintedTextStillChecked(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	evil := core.Concat(
		core.NewString("SELECT a FROM t WHERE a = '' OR "),
		sanitize.Taint(core.NewString("'x' = 'x'"), "form:q"),
	)
	st, err := db.Prepare(evil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(); err != nil {
		t.Fatalf("assertions off: %v", err)
	}
	db.Filter().RejectTaintedStructure(true)
	if _, err := st.Query(); err == nil {
		t.Error("tainted prepared text passed the strategy-2 assertion")
	}
	db.Filter().RejectTaintedStructure(false)
	db.Filter().RequireSanitizedMarkers(true)
	if _, err := st.Query(); err == nil {
		t.Error("tainted prepared text passed the strategy-1 assertion")
	}
}

// TestUntrustedQuestionMarkIsStructure: an attacker-supplied `?` must
// not mint a binding slot. Strategy 2 rejects it as tainted structure;
// the auto-sanitizing tokenizer swallows it into a value.
func TestUntrustedQuestionMarkIsStructure(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('x')")

	q := core.Concat(
		core.NewString("SELECT a FROM t WHERE a = "),
		sanitize.Taint(core.NewString("?"), "form:a"),
	)

	db.Filter().RejectTaintedStructure(true)
	if _, err := db.Query(q, "x"); err == nil {
		t.Error("untrusted ? passed the tainted-structure assertion")
	}
	db.Filter().RejectTaintedStructure(false)

	db.Filter().AutoSanitizeUntrusted(true)
	// Under auto-sanitize the untrusted ? lexes as a value, so there is
	// no placeholder to bind: the zero-argument call succeeds and the
	// literal "?" matches nothing.
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("untrusted ? matched %d rows under auto-sanitize", res.Len())
	}
}

// TestPreparedAutoSanitizeFallback: a prepared statement whose text
// carries untrusted bytes re-lexes under the auto-sanitizing tokenizer
// when that mode is on, neutralizing the untrusted bytes exactly as the
// text path would.
func TestPreparedAutoSanitizeFallback(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('z')")

	// The attacker controls the whole comparison tail: spliced as text
	// it is an always-true disjunction; as one auto-sanitized value it
	// is an inert string that matches nothing.
	evil := core.Concat(
		core.NewString("SELECT a FROM t WHERE a = "),
		sanitize.Taint(core.NewString("'x' OR 'y' = 'y'"), "form:q"),
	)
	st, err := db.Prepare(evil)
	if err != nil {
		t.Fatal(err)
	}
	// Without auto-sanitize the tainted text executes as written and
	// the always-true OR matches the row.
	res, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("baseline: %d rows", res.Len())
	}
	db.Filter().AutoSanitizeUntrusted(true)
	res, err = st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("auto-sanitize left the untrusted structure live: %d rows", res.Len())
	}
}

// TestPrepareSingleTokenize: Prepare tokenizes the text exactly once
// (the strategy-2 verdict reuses the same token stream).
func TestPrepareSingleTokenize(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	lex0 := TokenizeCount()
	if _, err := db.PrepareRaw("SELECT a FROM t WHERE a = ?"); err != nil {
		t.Fatal(err)
	}
	if n := TokenizeCount() - lex0; n != 1 {
		t.Errorf("Prepare tokenized %d times, want 1", n)
	}
	// The text carries no policy span, so the plan cache remembers what
	// its bytes compiled to: preparing it again does not tokenize at all.
	lex0, parse0 := TokenizeCount(), ParseCount()
	st, err := db.PrepareRaw("SELECT a FROM t WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	if n, p := TokenizeCount()-lex0, ParseCount()-parse0; n != 0 || p != 0 {
		t.Errorf("second Prepare of the same trusted text: %d tokenizes, %d parses, want 0 and 0", n, p)
	}
	if st.NumArgs() != 1 || !st.ReadOnly() {
		t.Errorf("remembered statement: %d args, read-only=%v", st.NumArgs(), st.ReadOnly())
	}
}

// TestPrepareTaintedLexErrorDeferred: untrusted bytes that break the
// standard lexer (an unbalanced quote) must not make Prepare fail
// outright — under auto-sanitize the text path accepts them as inert
// values, so the prepared form must behave identically per execution.
func TestPrepareTaintedLexErrorDeferred(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('x')")

	evil := core.Concat(
		core.NewString("SELECT a FROM t WHERE a = "),
		sanitize.Taint(core.NewString("'x"), "form:a"), // unterminated quote
	)
	// Text-path baselines: standard mode errors, auto mode neutralizes.
	if _, err := db.Query(evil); err == nil {
		t.Fatal("text path accepted an unterminated literal without auto-sanitize")
	}

	st, err := db.Prepare(evil)
	if err != nil {
		t.Fatalf("Prepare must defer the lex verdict to execution, got %v", err)
	}
	if _, err := st.Query(); err == nil {
		t.Error("prepared execution without auto-sanitize accepted the unterminated literal")
	}
	db.Filter().AutoSanitizeUntrusted(true)
	res, err := st.Query()
	if err != nil {
		t.Fatalf("prepared execution under auto-sanitize: %v", err)
	}
	if res.Len() != 0 {
		t.Errorf("neutralized payload matched %d rows", res.Len())
	}
	// Fully-trusted broken text still fails at Prepare, eagerly.
	if _, err := db.PrepareRaw("SELECT a FROM t WHERE a = 'x"); err == nil {
		t.Error("trusted unterminated literal prepared successfully")
	}
}

// TestPreparedOnTx: statements prepared inside a transaction execute
// against the speculative state and die with it.
func TestPreparedOnTx(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE acct (owner TEXT, balance INT)")
	db.MustExec("INSERT INTO acct (owner, balance) VALUES ('alice', 100)")

	tx := db.Begin()
	upd, err := tx.PrepareRaw("UPDATE acct SET balance = ? WHERE owner = ?")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := upd.Exec(70, "alice"); err != nil || n != 1 {
		t.Fatalf("tx update = %d, %v", n, err)
	}
	// Outside the tx the write is invisible.
	res, err := db.Query(core.NewString("SELECT balance FROM acct WHERE owner = ?"), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "balance").Int.Value() != 100 {
		t.Error("speculative write leaked")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(core.NewString("SELECT balance FROM acct WHERE owner = ?"), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "balance").Int.Value() != 70 {
		t.Error("committed write missing")
	}
	if _, err := upd.Exec(0, "alice"); err != ErrTxDone {
		t.Errorf("post-commit exec = %v, want ErrTxDone", err)
	}
}

// TestTxViewMustExecParity: the satellite parity methods exist and
// panic on bad statements like DB.MustExec does.
func TestTxViewMustExecParity(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	tx := db.Begin()
	tx.MustExec("INSERT INTO t (a) VALUES ('in-tx')")
	if n, err := tx.Exec(core.NewString("UPDATE t SET a = ? WHERE a = ?"), "renamed", "in-tx"); err != nil || n != 1 {
		t.Fatalf("Tx.Exec = %d, %v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Exec(core.NewString("DELETE FROM t WHERE a = ?"), "renamed"); err != nil || n != 1 {
		t.Fatalf("DB.Exec = %d, %v", n, err)
	}

	view := &View{engine: db.Engine()}
	view.MustExec("SELECT a FROM t")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("View.MustExec did not panic on a bad statement")
			}
		}()
		view.MustExec("SELECT nope FROM t")
	}()
}

// TestPreparedSchemaChanges: prepared statements survive DDL around
// them — a dropped table fails cleanly, a recreated one works again
// (the plan's schema-derived state recompiles via the generation).
func TestPreparedSchemaChanges(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	st := db.MustPrepare("SELECT a FROM t WHERE a = ?")
	if _, err := st.Query("x"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("DROP TABLE t")
	if _, err := st.Query("x"); err == nil {
		t.Error("query against a dropped table succeeded")
	}
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('x')")
	res, err := st.Query("x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("recreated table: %d rows", res.Len())
	}
}

// TestLimitPlaceholder: a LIMIT count is bindable like any other slot;
// inline counts still fold into the plan (plan_test pins that part).
func TestLimitPlaceholder(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	for _, v := range []string{"a", "b", "c", "d"} {
		db.MustExec("INSERT INTO t (a) VALUES ('" + v + "')")
	}
	st := db.MustPrepare("SELECT a FROM t ORDER BY a LIMIT ?")
	for _, want := range []int{0, 2, 4, 10} {
		res, err := st.Query(want)
		if err != nil {
			t.Fatalf("LIMIT %d: %v", want, err)
		}
		if n := min(want, 4); res.Len() != n {
			t.Errorf("LIMIT %d: got %d rows, want %d", want, res.Len(), n)
		}
	}
	if _, err := st.Query(-1); err == nil {
		t.Error("negative LIMIT bound successfully")
	}
	if _, err := st.Query("x"); err == nil {
		t.Error("string LIMIT bound successfully")
	}
	// Direct text execution binds the same way.
	res, err := db.QueryRaw("SELECT a FROM t ORDER BY a LIMIT ?", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("text-path LIMIT ?: got %d rows, want 3", res.Len())
	}
}

// TestBindUnsupportedType: binding a value the dialect cannot represent
// fails with a descriptive error naming the argument.
func TestBindUnsupportedType(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	st := db.MustPrepare("INSERT INTO t (a) VALUES (?)")
	if _, err := st.Exec(3.14); err == nil || !strings.Contains(err.Error(), "cannot bind float64") {
		t.Errorf("float bind: %v", err)
	}
	if _, err := st.Exec(nil); err != nil { // nil binds as NULL
		t.Errorf("nil bind: %v", err)
	}
}

// TestInjectionErrorClampsBounds is the satellite regression test: a
// hostile Start/End pair must render a diagnostic, never panic.
func TestInjectionErrorClampsBounds(t *testing.T) {
	cases := []InjectionError{
		{Strategy: "s", Query: "SELECT 1", Start: -3, End: 4},
		{Strategy: "s", Query: "SELECT 1", Start: -10, End: -5},
		{Strategy: "s", Query: "SELECT 1", Start: 6, End: 3},
		{Strategy: "s", Query: "SELECT 1", Start: 2, End: 9999},
		{Strategy: "s", Query: "", Start: -1, End: 1},
	}
	for i := range cases {
		msg := cases[i].Error()
		if !strings.Contains(msg, "SQL injection assertion") {
			t.Errorf("case %d: malformed message %q", i, msg)
		}
	}
}

// parityOutcome renders everything a caller can observe of one
// execution — error text, whether it is a data flow assertion failure,
// Affected, every cell with its EncodeSpans annotation — followed by the
// table's contents as the same session sees them afterwards.
func parityOutcome(t *testing.T, res *Result, err error, dump func(string, ...any) (*Result, error)) string {
	t.Helper()
	var b strings.Builder
	render := func(r *Result) { b.WriteString(renderResult(t, r, nil)) }
	if err != nil {
		var ae *core.AssertionError
		fmt.Fprintf(&b, "error=%q assertion=%v\n", err, errors.As(err, &ae))
	} else {
		render(res)
	}
	after, derr := dump("SELECT name, role, uid FROM users ORDER BY uid")
	if derr != nil {
		t.Fatalf("dump: %v", derr)
	}
	render(after)
	return b.String()
}

// parityFlags is one setting of the three filter modes.
type parityFlags struct{ s1, s2, auto bool }

// parityCase is one statement of the query-route corpus.
type parityCase struct {
	name string
	q    core.String
	args []any
	// check, when set, pins the agreed outcome for one setting.
	check func(t *testing.T, f parityFlags, res *Result, err error)
}

func parityTaint(s string) core.String { return sanitize.Taint(core.NewString(s), "form") }

// parityText concatenates plain and tracked pieces into one query text.
func parityText(parts ...any) core.String {
	var out []core.String
	for _, p := range parts {
		if s, ok := p.(string); ok {
			out = append(out, core.NewString(s))
		} else {
			out = append(out, p.(core.String))
		}
	}
	return core.Concat(out...)
}

// parityCorpus is the statement corpus TestQueryRouteParity holds equal
// across call forms and TestPlannedEqualsUncached across the cached and
// the uncached rewrite: well-formed and malformed text, trusted and
// untrusted, bound and spliced.
func parityCorpus() []parityCase {
	type flags = parityFlags
	taint, text := parityTaint, parityText
	return []parityCase{
		{name: "point-select", q: text("SELECT name, role FROM users WHERE uid = 1")},
		{name: "range-select", q: text("SELECT name FROM users WHERE uid >= ? AND uid < ? ORDER BY uid DESC"), args: []any{1, 3}},
		{name: "insert-tainted-literal", q: text("INSERT INTO users (name, role, uid) VALUES ('", taint("carol"), "', 'user', 3)")},
		{name: "insert-sanitized-literal", q: text("INSERT INTO users (name, role, uid) VALUES (", sanitize.SQLQuote(taint("o'hara")), ", 'user', 3)")},
		{name: "update-bound-tainted", q: text("UPDATE users SET role = ? WHERE name = ?"), args: []any{taint("mod"), "bob"}},
		{name: "delete", q: text("DELETE FROM users WHERE uid = 2")},
		{name: "limit-placeholder", q: text("SELECT name FROM users ORDER BY uid LIMIT ?"), args: []any{1}},
		{name: "repeated-name", q: text("SELECT name FROM users WHERE name = :n OR role = :n ORDER BY uid"),
			args: []any{Named("n", "admin")},
			check: func(t *testing.T, _ flags, res *Result, err error) {
				if err != nil || res.Len() != 1 || res.Get(0, "name").Str.Raw() != "alice" {
					t.Errorf("named argument on the variadic form: %+v, %v", res, err)
				}
			}},
		{name: "named-nested", q: text("SELECT name FROM users WHERE name = :n"), args: []any{Named("n", Named("m", 1))}},
		{name: "lex-error-trusted", q: text("SELECT name FROM users WHERE name = 'x"),
			check: func(t *testing.T, _ flags, _ *Result, err error) {
				// Nothing untrusted is involved, so no setting makes this an
				// assertion failure: it is the lexer's own error.
				var ae *core.AssertionError
				var le *LexError
				if !errors.As(err, &le) || errors.As(err, &ae) {
					t.Errorf("trusted lexer error: %v", err)
				}
			}},
		{name: "lex-error-untrusted", q: text("SELECT name FROM users WHERE name = ", taint("'x"))},
		{name: "parse-error-trusted", q: text("SELECT FROM users WHERE name = 'x'")},
		{name: "parse-error-untrusted-breakout", q: text("INSERT INTO users (name, role, uid) VALUES ('", taint("x' OR role = 'admin"), "', 'weird', 9)"),
			check: func(t *testing.T, f flags, res *Result, err error) {
				var ae *core.AssertionError
				switch {
				case f.s1 || f.s2:
					if !errors.As(err, &ae) {
						t.Errorf("breakout with an assertion on: %v", err)
					}
				case f.auto:
					if err != nil || res.Affected != 1 {
						t.Errorf("breakout under auto-sanitize: %+v, %v", res, err)
					}
				}
			}},
		{name: "arity-missing", q: text("SELECT name FROM users WHERE uid = ?")},
		{name: "arity-extra", q: text("SELECT name FROM users"), args: []any{"stray"}},
		{name: "number-overflow", q: text("SELECT name FROM users WHERE uid = 99999999999999999999")},
		{name: "number-overflow-untrusted", q: text("SELECT name FROM users WHERE uid = ", taint("99999999999999999999"))},
		{name: "taint-in-literal", q: text("SELECT name, role FROM users WHERE name = '", taint("bob"), "'")},
		{name: "taint-in-identifier", q: text("SELECT ", taint("name"), " FROM users ORDER BY uid")},
	}
}

// paritySeed opens the corpus's database — alice the admin, tainted bob
// the user — with the filter set to f.
func paritySeed(t *testing.T, f parityFlags) *DB {
	db := openDB(t)
	db.MustExec("CREATE TABLE users (name TEXT, role TEXT, uid INT)")
	db.MustExec("INSERT INTO users (name, role, uid) VALUES ('alice', 'admin', 1)")
	if _, err := db.Query(core.NewString("INSERT INTO users (name, role, uid) VALUES (?, 'user', 2)"), parityTaint("bob")); err != nil {
		t.Fatal(err)
	}
	db.Filter().RequireSanitizedMarkers(f.s1)
	db.Filter().RejectTaintedStructure(f.s2)
	db.Filter().AutoSanitizeUntrusted(f.auto)
	return db
}

// TestQueryRouteParity: text execution is an implicit prepare, so
// db.Query(text, args…), db.Prepare(text) + Query(args…) and the same
// two inside a transaction must agree on rows, per-cell policies,
// Affected, error text and whether the error is an assertion failure —
// for every statement of the corpus under all eight settings of the
// three filter modes.
func TestQueryRouteParity(t *testing.T) {
	type flags = parityFlags
	cases, seed := parityCorpus(), paritySeed
	type preparer interface {
		Prepare(core.String) (*Stmt, error)
	}
	viaPrepare := func(p preparer, q core.String, args []any) (*Result, error) {
		st, err := p.Prepare(q)
		if err != nil {
			return nil, err
		}
		return st.Query(args...)
	}
	routes := []struct {
		name string
		run  func(t *testing.T, db *DB, q core.String, args []any) string
	}{
		{"db.Query", func(t *testing.T, db *DB, q core.String, args []any) string {
			res, err := db.Query(q, args...)
			return parityOutcome(t, res, err, db.QueryRaw)
		}},
		{"db.Prepare", func(t *testing.T, db *DB, q core.String, args []any) string {
			res, err := viaPrepare(db, q, args)
			return parityOutcome(t, res, err, db.QueryRaw)
		}},
		{"tx.Query", func(t *testing.T, db *DB, q core.String, args []any) string {
			tx := db.Begin()
			defer tx.Rollback() //nolint:errcheck
			res, err := tx.Query(q, args...)
			return parityOutcome(t, res, err, tx.QueryRaw)
		}},
		{"tx.Prepare", func(t *testing.T, db *DB, q core.String, args []any) string {
			tx := db.Begin()
			defer tx.Rollback() //nolint:errcheck
			res, err := viaPrepare(tx, q, args)
			return parityOutcome(t, res, err, tx.QueryRaw)
		}},
	}

	for _, tc := range cases {
		_, parseErr := Parse(tc.q)
		for bits := 0; bits < 8; bits++ {
			f := flags{s1: bits&1 != 0, s2: bits&2 != 0, auto: bits&4 != 0}
			t.Run(fmt.Sprintf("%s/s1=%v,s2=%v,auto=%v", tc.name, f.s1, f.s2, f.auto), func(t *testing.T) {
				want := routes[0].run(t, seed(t, f), tc.q, tc.args)
				for _, r := range routes[1:] {
					if got := r.run(t, seed(t, f), tc.q, tc.args); got != want {
						t.Errorf("%s disagrees with %s:\n--- %s\n%s--- %s\n%s", r.name, routes[0].name, routes[0].name, want, r.name, got)
					}
				}
				res, err := seed(t, f).Query(tc.q, tc.args...)
				if tc.check != nil {
					tc.check(t, f, res, err)
				}
				// A malformed statement reports exactly what Parse reports,
				// unless an assertion refused it first or the auto-sanitizing
				// tokenizer made sense of it.
				var ae *core.AssertionError
				if parseErr != nil && !errors.As(err, &ae) && !(f.auto && tc.q.IsTainted()) {
					if err == nil || err.Error() != parseErr.Error() {
						t.Errorf("error %v, want Parse's %v", err, parseErr)
					}
				}
			})
		}
	}
}

// textMemoLen reports how many texts db's plan cache remembers.
func textMemoLen(db *DB) int { return db.filter.planner().texts.Len() }

// TestTextMemoNeverSharesVerdicts: the same raw bytes, first as trusted
// text (which the memo remembers), then carrying UntrustedData on their
// structure, must get — under each of the eight filter settings —
// exactly the verdict a database that never saw the trusted form gives:
// the strategy-1 and strategy-2 assertion errors included. Remembering
// is by bytes, admission is by spans, so a span always recompiles and
// is always judged.
func TestTextMemoNeverSharesVerdicts(t *testing.T) {
	const raw = "SELECT name FROM users WHERE uid = 1"
	trusted := core.NewString(raw)
	hostile := parityText("SELECT name FROM users ", parityTaint("WHERE uid = 1"))
	if hostile.Raw() != raw {
		t.Fatal("both texts must have the same bytes")
	}
	for bits := 0; bits < 8; bits++ {
		f := parityFlags{s1: bits&1 != 0, s2: bits&2 != 0, auto: bits&4 != 0}
		t.Run(fmt.Sprintf("s1=%v,s2=%v,auto=%v", f.s1, f.s2, f.auto), func(t *testing.T) {
			cold := paritySeed(t, f)
			res, err := cold.Query(hostile)
			want := parityOutcome(t, res, err, cold.QueryRaw)

			warm := paritySeed(t, f)
			for i := 0; i < 2; i++ { // the second run is a memo hit
				if res, err := warm.Query(trusted); err != nil || res.Len() != 1 {
					t.Fatalf("trusted text: %+v, %v", res, err)
				}
			}
			if textMemoLen(warm) == 0 {
				t.Fatal("trusted text was not remembered")
			}
			lex0 := TokenizeCount()
			res, err = warm.Query(hostile)
			if got := parityOutcome(t, res, err, warm.QueryRaw); got != want {
				t.Errorf("tainted text after the memo was warmed:\n--- got\n%s--- want\n%s", got, want)
			}
			if TokenizeCount() == lex0 {
				t.Error("tainted text was answered without tokenizing")
			}
			var ae *core.AssertionError
			var ie *InjectionError
			switch {
			case f.s1:
				if !errors.As(err, &ae) || !errors.As(err, &ie) || ie.Strategy != "sanitized-markers" {
					t.Errorf("strategy 1 on: %v", err)
				}
			case f.s2:
				if !errors.As(err, &ae) || !errors.As(err, &ie) || ie.Strategy != "tainted-structure" {
					t.Errorf("strategy 2 on: %v", err)
				}
			case !f.auto:
				if err != nil || res.Len() != 1 {
					t.Errorf("no assertion enabled: %+v, %v", res, err)
				}
			}
			// And the trusted form is still served after the tainted one.
			if res, err := warm.Query(trusted); err != nil || res.Len() != 1 {
				t.Errorf("trusted text after the tainted one: %+v, %v", res, err)
			}
		})
	}
}

// TestTextMemoAdmission: only text without any policy span that
// compiled is remembered. Text carrying a policy that is not
// UntrustedData bypasses the memo both ways; lex, parse and overflow
// failures are not remembered and keep Parse's exact message; the memo
// is dropped by PlanCacheReset and bounded by its cap; text past the
// length bound compiles every time.
func TestTextMemoAdmission(t *testing.T) {
	db := paritySeed(t, parityFlags{})
	db.Filter().PlanCacheReset()
	tokenizes := func(q core.String) uint64 {
		t.Helper()
		lex0 := TokenizeCount()
		if _, err := db.Prepare(q); err != nil {
			t.Fatalf("%s: %v", q.Raw(), err)
		}
		return TokenizeCount() - lex0
	}
	const raw = "SELECT name FROM users WHERE uid = ?"
	trusted := core.NewString(raw)
	if a, b := tokenizes(trusted), tokenizes(trusted); a != 1 || b != 0 {
		t.Errorf("trusted text tokenized %d then %d times, want 1 then 0", a, b)
	}

	marked := core.NewStringPolicy(raw, &passwordPolicy{Email: "q@x"})
	n := textMemoLen(db)
	if a, b := tokenizes(marked), tokenizes(marked); a != 1 || b != 1 {
		t.Errorf("text carrying a policy tokenized %d then %d times, want 1 and 1: it must bypass the memo", a, b)
	}
	if textMemoLen(db) != n {
		t.Error("text carrying a policy was remembered")
	}

	for _, bad := range []string{
		"SELECT name FROM users WHERE name = 'x",                  // lex
		"SELECT FROM users WHERE name = 'x'",                      // parse
		"SELECT name FROM users WHERE uid = 99999999999999999999", // overflow
	} {
		_, perr := Parse(core.NewString(bad))
		for i := 0; i < 2; i++ {
			lex0 := TokenizeCount()
			_, err := db.PrepareRaw(bad)
			if perr == nil || err == nil || err.Error() != perr.Error() {
				t.Errorf("%s, attempt %d: error %v, want Parse's %v", bad, i, err, perr)
			}
			if TokenizeCount() == lex0 {
				t.Errorf("%s, attempt %d: failure answered without tokenizing", bad, i)
			}
		}
	}
	if textMemoLen(db) != n {
		t.Error("a failed compile was remembered")
	}

	long := core.NewString(raw + strings.Repeat(" ", textMemoMaxLen))
	if a, b := tokenizes(long), tokenizes(long); a != 1 || b != 1 {
		t.Errorf("text past the length bound tokenized %d then %d times, want 1 and 1", a, b)
	}

	db.Filter().PlanCacheReset()
	if a, b := tokenizes(trusted), tokenizes(trusted); a != 1 || b != 0 {
		t.Errorf("after PlanCacheReset: tokenized %d then %d times, want 1 then 0", a, b)
	}

	// Pass twice the cap of distinct trusted texts through the memo: the
	// eviction that keeps it bounded takes the unused text.
	c := db.filter.planner()
	for i := 0; i < 2*textMemoCap; i++ {
		if _, err := db.PrepareRaw(fmt.Sprintf("SELECT name FROM users WHERE uid = %d", i)); err != nil {
			t.Fatal(err)
		}
		if n := c.texts.Len(); n > textMemoCap {
			t.Fatalf("remembered texts = %d after %d, past the cap %d", n, i+1, textMemoCap)
		}
	}
	if a, b := tokenizes(trusted), tokenizes(trusted); a != 1 || b != 0 {
		t.Errorf("after a cap flush: tokenized %d then %d times, want 1 then 0", a, b)
	}
}

// TestDBQueryMemoizedTextAllocs: preparing remembered text returns the
// remembered Stmt itself without allocating, so DB.Query on that text
// allocates exactly what executing the prepared statement does.
func TestDBQueryMemoizedTextAllocs(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE users (id INT, name TEXT)")
	db.MustExec("CREATE INDEX ON users (id)")
	if _, err := db.QueryRaw("INSERT INTO users (id, name) VALUES (?, ?)", 1, core.NewStringPolicy("alice", &passwordPolicy{Email: "a@x"})); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT name FROM users WHERE id = ?"
	st, err := db.PrepareRaw(q)
	if err != nil {
		t.Fatal(err)
	}
	prepare := func() {
		if again, err := db.PrepareRaw(q); err != nil || again != st {
			t.Fatalf("remembered text prepared to %p, %v; want the remembered %p", again, err, st)
		}
	}
	if allocs := testing.AllocsPerRun(100, prepare); allocs != 0 {
		t.Errorf("DB.Prepare of remembered text: %.0f allocs, want 0", allocs)
	}
	one := func(res *Result, err error) {
		if err != nil || res.Len() != 1 || !res.Get(0, "name").Str.IsTainted() {
			t.Fatalf("%+v, %v", res, err)
		}
	}
	viaStmt := testing.AllocsPerRun(100, func() { one(st.Query(1)) })
	viaText := testing.AllocsPerRun(100, func() { one(db.QueryRaw(q, 1)) })
	if viaText != viaStmt {
		t.Errorf("DB.Query on remembered text: %.0f allocs, Stmt.Query: %.0f; want equal", viaText, viaStmt)
	}
}

// TestTxPrepareNeverLeaksIntoSharedStmt: Tx.Prepare of remembered text
// returns a copy bound to the transaction, while DB.Query on the same
// text keeps executing the shared, transaction-free Stmt concurrently.
func TestTxPrepareNeverLeaksIntoSharedStmt(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE acct (owner TEXT, balance INT)")
	db.MustExec("INSERT INTO acct (owner, balance) VALUES ('alice', 100)")
	const q = "SELECT balance FROM acct WHERE owner = ?"
	shared, err := db.PrepareRaw(q)
	if err != nil {
		t.Fatal(err)
	}
	balance := func(res *Result, err error) int64 {
		if err != nil || res.Len() != 1 {
			t.Errorf("%+v, %v", res, err)
			return -1
		}
		return res.Get(0, "balance").Int.Value()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if b := balance(db.QueryRaw(q, "alice")); b != 100 {
					t.Errorf("DB.Query read balance %d, want the committed 100", b)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx := db.Begin()
				st, err := tx.PrepareRaw(q)
				if err != nil {
					t.Error(err)
					return
				}
				if st == shared || st.tx != tx {
					t.Error("Tx.Prepare must return its own copy bound to the transaction")
				}
				tx.MustExec("UPDATE acct SET balance = 1 WHERE owner = 'alice'")
				if b := balance(st.Query("alice")); b != 1 {
					t.Errorf("transaction read balance %d, want its own 1", b)
				}
				if err := tx.Rollback(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if again, _ := db.PrepareRaw(q); again != shared || shared.tx != nil {
		t.Error("the shared Stmt changed or picked up a transaction")
	}
}
