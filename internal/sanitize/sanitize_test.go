package sanitize

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"resin/internal/core"
)

func TestTaintMarksEveryByte(t *testing.T) {
	s := Taint(core.NewString("user input"), "http:q")
	if !s.HasPolicyEverywhere(IsUntrusted) {
		t.Error("every byte should be untrusted")
	}
	ps := s.Policies().Policies()
	if len(ps) != 1 {
		t.Fatalf("policies = %d", len(ps))
	}
	if ps[0].(*UntrustedData).Source != "http:q" {
		t.Errorf("source = %q", ps[0].(*UntrustedData).Source)
	}
}

func TestSQLQuoteEscapes(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc", "'abc'"},
		{"o'brien", "'o''brien'"},
		{`back\slash`, `'back\\slash'`},
		{"nul\x00byte", "'nulbyte'"},
		{"", "''"},
		{"'; DROP TABLE users --", "'''; DROP TABLE users --'"},
	}
	for _, c := range cases {
		got := SQLQuote(core.NewString(c.in))
		if got.Raw() != c.want {
			t.Errorf("SQLQuote(%q) = %q, want %q", c.in, got.Raw(), c.want)
		}
		if !got.HasPolicyEverywhere(IsSQLSanitized) {
			t.Errorf("SQLQuote(%q): not fully marked sanitized", c.in)
		}
	}
}

func TestSQLQuoteKeepsUntrustedMark(t *testing.T) {
	in := Taint(core.NewString("o'brien"), "form")
	out := SQLQuote(in)
	// Interior bytes keep UntrustedData AND gain SQLSanitized; the added
	// quotes are sanitized but not untrusted.
	if _, _, bad := UnsanitizedSQL(out); bad {
		t.Error("quoted data must count as sanitized")
	}
	inner := out.Slice(1, out.Len()-1)
	if !inner.HasPolicyEverywhere(IsUntrusted) {
		t.Error("escaped payload bytes must keep their UntrustedData mark")
	}
}

func TestHTMLEscape(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"<script>", "&lt;script&gt;"},
		{`a&b"c'd`, "a&amp;b&quot;c&#39;d"},
		{"", ""},
	}
	for _, c := range cases {
		got := HTMLEscape(core.NewString(c.in))
		if got.Raw() != c.want {
			t.Errorf("HTMLEscape(%q) = %q, want %q", c.in, got.Raw(), c.want)
		}
		if c.in != "" && !got.HasPolicyEverywhere(IsHTMLSanitized) {
			t.Errorf("HTMLEscape(%q): not fully marked sanitized", c.in)
		}
	}
}

func TestHTMLEscapeEntityInheritsPolicies(t *testing.T) {
	in := Taint(core.NewString("<"), "form")
	out := HTMLEscape(in)
	if out.Raw() != "&lt;" {
		t.Fatalf("raw = %q", out.Raw())
	}
	if !out.HasPolicyEverywhere(IsUntrusted) {
		t.Error("entity bytes must inherit the replaced byte's policies")
	}
}

func TestUnsanitizedSQLDetection(t *testing.T) {
	q := core.Concat(
		core.NewString("SELECT * FROM t WHERE n="),
		Taint(core.NewString("1 OR 1=1"), "form"),
	)
	s, e, found := UnsanitizedSQL(q)
	if !found {
		t.Fatal("unsanitized tainted bytes must be detected")
	}
	if q.Raw()[s:e] != "1 OR 1=1" {
		t.Errorf("range [%d:%d) = %q", s, e, q.Raw()[s:e])
	}
	// After quoting: clean.
	q2 := core.Concat(
		core.NewString("SELECT * FROM t WHERE n="),
		SQLQuote(Taint(core.NewString("1 OR 1=1"), "form")),
	)
	if _, _, found := UnsanitizedSQL(q2); found {
		t.Error("sanitized data flagged")
	}
	// Untainted query: clean.
	if _, _, found := UnsanitizedSQL(core.NewString("SELECT 1")); found {
		t.Error("untainted query flagged")
	}
}

func TestUnsanitizedHTMLDetection(t *testing.T) {
	page := core.Concat(
		core.NewString("<p>"),
		Taint(core.NewString("<script>x</script>"), "whois"),
		core.NewString("</p>"),
	)
	if _, _, found := UnsanitizedHTML(page); !found {
		t.Fatal("raw tainted HTML must be detected")
	}
	page2 := core.Concat(
		core.NewString("<p>"),
		HTMLEscape(Taint(core.NewString("<script>"), "whois")),
		core.NewString("</p>"),
	)
	if _, _, found := UnsanitizedHTML(page2); found {
		t.Error("escaped data flagged")
	}
}

// Cross-sanitizer confusion: SQL quoting does NOT make data HTML-safe and
// vice versa — the reason the paper appends markers instead of removing
// UntrustedData ("this strategy ensures that the programmer uses the
// correct sanitizer").
func TestWrongSanitizerStillFlagged(t *testing.T) {
	in := Taint(core.NewString("payload"), "form")
	sqlQuoted := SQLQuote(in)
	if _, _, found := UnsanitizedHTML(sqlQuoted); !found {
		t.Error("SQL-quoted data must still be unsanitized for HTML")
	}
	htmlEscaped := HTMLEscape(in)
	if _, _, found := UnsanitizedSQL(htmlEscaped); !found {
		t.Error("HTML-escaped data must still be unsanitized for SQL")
	}
}

func TestPoliciesSerializable(t *testing.T) {
	for _, p := range []core.Policy{
		&UntrustedData{Source: "s"},
		&SQLSanitized{},
		&HTMLSanitized{},
	} {
		enc, err := core.EncodePolicy(p)
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		dec, err := core.DecodePolicy(enc)
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if u, ok := p.(*UntrustedData); ok {
			if dec.(*UntrustedData).Source != u.Source {
				t.Error("source lost in round trip")
			}
		}
	}
}

// Property: for any input, SQLQuote produces exactly one SQL string
// literal — the payload can never terminate the quote. We check by
// scanning the quoted form the way a SQL lexer would.
func TestQuickSQLQuoteNeverEscapesLiteral(t *testing.T) {
	f := func(payload string) bool {
		q := SQLQuote(core.NewString(payload)).Raw()
		if len(q) < 2 || q[0] != '\'' || q[len(q)-1] != '\'' {
			return false
		}
		body := q[1 : len(q)-1]
		i := 0
		for i < len(body) {
			switch body[i] {
			case '\'':
				// Must be a doubled quote.
				if i+1 >= len(body) || body[i+1] != '\'' {
					return false
				}
				i += 2
			case '\\':
				if i+1 >= len(body) || body[i+1] != '\\' {
					return false
				}
				i += 2
			case 0:
				return false // NULs must have been dropped
			default:
				i++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: HTMLEscape output never contains raw <, >, or unescaped &.
func TestQuickHTMLEscapeOutputIsInert(t *testing.T) {
	f := func(payload string) bool {
		out := HTMLEscape(core.NewString(payload)).Raw()
		if strings.ContainsAny(out, "<>\"'") {
			return false
		}
		// Every & must begin a known entity.
		for i := 0; i < len(out); i++ {
			if out[i] != '&' {
				continue
			}
			ok := false
			for _, ent := range []string{"&amp;", "&lt;", "&gt;", "&quot;", "&#39;"} {
				if strings.HasPrefix(out[i:], ent) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// referenceSQLQuote and referenceHTMLEscape are the byte-at-a-time
// sanitizers exactly as they were before they went run-at-a-time, kept
// as the oracle for TestSanitizersMatchReference.
func referenceSQLQuote(data core.String) core.String {
	var b core.Builder
	b.AppendRaw("'")
	for i := 0; i < data.Len(); i++ {
		c, ps := data.ByteAt(i)
		switch c {
		case '\'':
			b.AppendBytePolicies('\'', ps)
			b.AppendBytePolicies('\'', ps)
		case '\\':
			b.AppendBytePolicies('\\', ps)
			b.AppendBytePolicies('\\', ps)
		case 0:
			// Drop NUL bytes outright.
		default:
			b.AppendBytePolicies(c, ps)
		}
	}
	b.AppendRaw("'")
	return b.String().WithPolicy(&SQLSanitized{})
}

var referenceHTMLReplacements = map[byte]string{
	'&':  "&amp;",
	'<':  "&lt;",
	'>':  "&gt;",
	'"':  "&quot;",
	'\'': "&#39;",
}

func referenceHTMLEscape(data core.String) core.String {
	var b core.Builder
	for i := 0; i < data.Len(); i++ {
		c, ps := data.ByteAt(i)
		if rep, ok := referenceHTMLReplacements[c]; ok {
			for j := 0; j < len(rep); j++ {
				b.AppendBytePolicies(rep[j], ps)
			}
			continue
		}
		b.AppendBytePolicies(c, ps)
	}
	return b.String().WithPolicy(&HTMLSanitized{})
}

// Property: over random bytes × random span layouts × random policy
// sets, the run-at-a-time sanitizers produce exactly what the
// byte-at-a-time ones did — the same text, the same spans, the same
// policies in the same order (Describe), and the same serialized
// annotation (EncodeSpans).
func TestSanitizersMatchReference(t *testing.T) {
	// Heavy on the bytes either sanitizer rewrites, NUL included.
	const alphabet = "ab c<>&\"'\\\x00\xff"
	pool := []core.Policy{
		&UntrustedData{Source: "a"},
		&UntrustedData{Source: "b"},
		&SQLSanitized{},
		&HTMLSanitized{},
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		raw := make([]byte, rng.Intn(24))
		for i := range raw {
			raw[i] = alphabet[rng.Intn(len(alphabet))]
		}
		data := core.NewString(string(raw))
		for n := rng.Intn(5); n > 0 && len(raw) > 0; n-- {
			start := rng.Intn(len(raw))
			end := start + 1 + rng.Intn(len(raw)-start)
			var ps []core.Policy
			for _, p := range pool {
				if rng.Intn(3) == 0 {
					ps = append(ps, p)
				}
			}
			data = data.WithPolicyRange(start, end, ps...)
		}
		for _, fn := range []struct {
			name     string
			got, ref func(core.String) core.String
		}{
			{"SQLQuote", SQLQuote, referenceSQLQuote},
			{"HTMLEscape", HTMLEscape, referenceHTMLEscape},
		} {
			got, want := fn.got(data), fn.ref(data)
			if got.Describe() != want.Describe() {
				t.Fatalf("%s(%s):\n got %s\nwant %s", fn.name, data.Describe(), got.Describe(), want.Describe())
			}
			gotAnn, err := core.EncodeSpans(got)
			if err != nil {
				t.Fatal(err)
			}
			wantAnn, err := core.EncodeSpans(want)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotAnn) != string(wantAnn) {
				t.Fatalf("%s(%s): annotation\n got %s\nwant %s", fn.name, data.Describe(), gotAnn, wantAnn)
			}
		}
	}
}

// The marker is attached on every call, also when nothing needed
// escaping and the input comes back otherwise untouched.
func TestHTMLEscapeCleanInputStillMarked(t *testing.T) {
	in := Taint(core.NewString("plain text"), "form")
	out := HTMLEscape(in)
	if out.Raw() != in.Raw() || !out.HasPolicyEverywhere(IsUntrusted) {
		t.Fatalf("clean input changed: %s", out.Describe())
	}
	if !out.HasPolicyEverywhere(IsHTMLSanitized) {
		t.Error("clean input must still gain HTMLSanitized")
	}
	if _, _, found := UnsanitizedHTML(out); found {
		t.Error("escaped clean input flagged as unsanitized")
	}
}
