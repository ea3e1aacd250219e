package sqldb

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"resin/internal/core"
	"resin/internal/sanitize"
)

func autoDB(t *testing.T) *DB {
	t.Helper()
	db := Open(core.NewRuntime())
	db.Filter().AutoSanitizeUntrusted(true)
	db.MustExec("CREATE TABLE users (name TEXT, role TEXT, uid INT)")
	db.MustExec("INSERT INTO users (name, role, uid) VALUES ('alice', 'admin', 1), ('bob', 'user', 2)")
	return db
}

func TestAutoSanitizeNeutralizesUnquotedInjection(t *testing.T) {
	db := autoDB(t)
	evil := sanitize.Taint(core.NewString("2 OR 1=1"), "form")
	q := core.Concat(core.NewString("SELECT name FROM users WHERE uid = "), evil)
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("auto-sanitize should execute, not reject: %v", err)
	}
	// The whole payload became one value; it matches no uid.
	if res.Len() != 0 {
		t.Errorf("injection payload matched %d rows; structure leaked", res.Len())
	}
}

func TestAutoSanitizeNeutralizesQuoteBreakout(t *testing.T) {
	db := autoDB(t)
	evil := sanitize.Taint(core.NewString("x' OR role = 'admin"), "form")
	q := core.Concat(core.NewString("SELECT name FROM users WHERE name = '"), evil, core.NewString("'"))
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("auto-sanitize should execute: %v", err)
	}
	if res.Len() != 0 {
		t.Errorf("breakout matched %d rows", res.Len())
	}
	// The literal really is the whole payload: searching for a name equal
	// to the payload string finds a row if we insert one.
	ins := core.Concat(
		core.NewString("INSERT INTO users (name, role, uid) VALUES ('"),
		evil, core.NewString("', 'weird', 9)"))
	if _, err := db.Query(ins); err != nil {
		t.Fatalf("insert with breakout payload: %v", err)
	}
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "name").Str.Raw() != "x' OR role = 'admin" {
		t.Errorf("payload should round-trip as a plain value: %+v", res)
	}
}

// TestAutoSanitizePreparedQuoteBreakout runs the payloads of
// TestAutoSanitizeNeutralizesQuoteBreakout through db.Prepare: untrusted
// bytes that leave the standard-lexed stream unparseable must not fail
// Prepare — the mode active at each execution decides, exactly as for a
// standard-lexer failure (TestPrepareTaintedLexErrorDeferred).
func TestAutoSanitizePreparedQuoteBreakout(t *testing.T) {
	db := autoDB(t)
	evil := sanitize.Taint(core.NewString("x' OR role = 'admin"), "form")
	q := core.Concat(core.NewString("SELECT name FROM users WHERE name = '"), evil, core.NewString("'"))
	ins := core.Concat(
		core.NewString("INSERT INTO users (name, role, uid) VALUES ('"),
		evil, core.NewString("', 'weird', 9)"))
	_, parseErr := Parse(ins)
	if parseErr == nil {
		t.Fatal("the breakout INSERT is supposed to be unparseable under the standard lexer")
	}

	insSt, err := db.Prepare(ins)
	if err != nil {
		t.Fatalf("Prepare must defer the parse verdict on untrusted text, got %v", err)
	}
	if insSt.ReadOnly() || insSt.NumArgs() != 0 {
		t.Errorf("deferred statement: ReadOnly %v NumArgs %d, want false 0", insSt.ReadOnly(), insSt.NumArgs())
	}
	if n, err := insSt.Exec(); err != nil || n != 1 {
		t.Fatalf("insert with breakout payload under auto-sanitize: %d, %v", n, err)
	}
	sel, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sel.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "name").Str.Raw() != "x' OR role = 'admin" {
		t.Errorf("payload should round-trip as a plain value: %+v", res)
	}

	// Auto-sanitize off: the same Stmt reports what Parse reports.
	db.Filter().AutoSanitizeUntrusted(false)
	if _, err := insSt.Exec(); err == nil || err.Error() != parseErr.Error() {
		t.Errorf("without auto-sanitize: %v, want %v", err, parseErr)
	}
	// Strategy 2 on: the untrusted OR is tainted structure.
	db.Filter().RejectTaintedStructure(true)
	var ae *core.AssertionError
	var ie *InjectionError
	if _, err := insSt.Exec(); !errors.As(err, &ae) || !errors.As(err, &ie) || ie.Strategy != "tainted-structure" {
		t.Errorf("with RejectTaintedStructure: %v, want a tainted-structure assertion error", err)
	}

	// Fully trusted text that does not parse is still refused at Prepare.
	if _, err := db.PrepareRaw("INSERT INTO users (name) VALUES ('x' OR role = 'admin')"); err == nil {
		t.Error("trusted unparseable text prepared successfully")
	}
}

func TestAutoSanitizeBenignQueriesUnchanged(t *testing.T) {
	db := autoDB(t)
	name := sanitize.Taint(core.NewString("bob"), "form")
	q := core.Concat(core.NewString("SELECT role FROM users WHERE name = '"), name, core.NewString("'"))
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "role").Str.Raw() != "user" {
		t.Errorf("benign lookup broken: %+v", res)
	}
	// Tainted digits for an INT comparison still work (string coerces).
	uid := sanitize.Taint(core.NewString("1"), "form")
	q2 := core.Concat(core.NewString("SELECT name FROM users WHERE uid = "), uid)
	res, err = db.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "name").Str.Raw() != "alice" {
		t.Errorf("tainted int lookup broken: %+v", res)
	}
}

func TestAutoSanitizeCommentInjectionNeutralized(t *testing.T) {
	db := autoDB(t)
	evil := sanitize.Taint(core.NewString("1 -- drop everything"), "form")
	q := core.Concat(core.NewString("SELECT name FROM users WHERE uid = "), evil)
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("comment payload should be a value: %v", err)
	}
	if res.Len() != 0 {
		t.Errorf("comment payload matched rows: %+v", res)
	}
}

func TestAutoSanitizeLexTokens(t *testing.T) {
	evil := sanitize.Taint(core.NewString("x' OR '1'='1"), "f")
	q := core.Concat(core.NewString("SELECT a FROM t WHERE a = '"), evil, core.NewString("'"))
	toks, err := LexAutoSanitize(q)
	if err != nil {
		t.Fatal(err)
	}
	var strVals []string
	for _, tok := range toks {
		if tok.Type == TokString {
			strVals = append(strVals, tok.Value.Raw())
		}
		if tok.Type.Structural() {
			// No structural token may overlap tainted bytes.
			for i := tok.Start; i < tok.End; i++ {
				if q.PoliciesAt(i).Any(sanitize.IsUntrusted) {
					t.Errorf("structural token %q covers tainted byte %d", tok.Text, i)
				}
			}
		}
	}
	if len(strVals) != 1 || strVals[0] != "x' OR '1'='1" {
		t.Errorf("string literals = %q, want the whole payload as one value", strVals)
	}
}

func TestAutoSanitizeTopLevelRunBecomesOneToken(t *testing.T) {
	evil := sanitize.Taint(core.NewString("1; DROP TABLE users --"), "f")
	q := core.Concat(core.NewString("SELECT a FROM t WHERE n = "), evil)
	toks, err := LexAutoSanitize(q)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, tok := range toks {
		if tok.Type == TokString {
			count++
			if tok.Value.Raw() != "1; DROP TABLE users --" {
				t.Errorf("value = %q", tok.Value.Raw())
			}
		}
	}
	if count != 1 {
		t.Errorf("tainted run produced %d string tokens, want 1", count)
	}
}

func TestAutoSanitizePreservesPolicies(t *testing.T) {
	db := autoDB(t)
	evil := sanitize.Taint(core.NewString("payload"), "f")
	ins := core.Concat(core.NewString("INSERT INTO users (name, role, uid) VALUES ('"),
		evil, core.NewString("', 'r', 7)"))
	if _, err := db.Query(ins); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryRaw("SELECT name FROM users WHERE uid = 7")
	if err != nil {
		t.Fatal(err)
	}
	got := res.Get(0, "name").Str
	if !got.HasPolicyEverywhere(sanitize.IsUntrusted) {
		t.Error("UntrustedData policy should persist through auto-sanitized insert")
	}
}

func TestAutoSanitizeErrors(t *testing.T) {
	// Trusted lex errors still surface with correct offsets.
	q := core.Concat(core.NewString("SELECT $ FROM t WHERE a = "), sanitize.Taint(core.NewString("x"), "f"))
	if _, err := LexAutoSanitize(q); err == nil {
		t.Error("trusted lex error should surface")
	}
	// Unterminated trusted literal.
	if _, err := LexAutoSanitize(core.NewString("SELECT a FROM t WHERE a = 'oops")); err == nil {
		t.Error("unterminated literal should fail")
	}
	// Bad structure after sanitizing still fails to parse.
	q2 := core.Concat(core.NewString("SELECT FROM WHERE "), sanitize.Taint(core.NewString("x"), "f"))
	if _, err := ParseAutoSanitized(q2); err == nil {
		t.Error("malformed query should fail to parse")
	}
}

// Property: for ANY payload string, the auto-sanitizing tokenizer never
// lets tainted bytes form structural tokens, in either splice position.
func TestQuickAutoSanitizeNoTaintedStructure(t *testing.T) {
	f := func(payload string) bool {
		if strings.ContainsRune(payload, 0) {
			return true
		}
		evil := sanitize.Taint(core.NewString(payload), "f")
		for _, q := range []core.String{
			core.Concat(core.NewString("SELECT a FROM t WHERE a = '"), evil, core.NewString("'")),
			core.Concat(core.NewString("SELECT a FROM t WHERE n = "), evil),
		} {
			toks, err := LexAutoSanitize(q)
			if err != nil {
				continue // rejection is safe
			}
			for _, tok := range toks {
				if !tok.Type.Structural() {
					continue
				}
				for i := tok.Start; i < tok.End; i++ {
					if q.PoliciesAt(i).Any(sanitize.IsUntrusted) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
