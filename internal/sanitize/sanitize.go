// Package sanitize provides the taint and sanitization policy classes of
// §5.3 of the RESIN paper, together with the sanitizing functions that
// attach them.
//
// The first strategy for preventing SQL injection and cross-site scripting
// works like this:
//
//  1. untrusted input is annotated with an UntrustedData policy the moment
//     it enters the runtime;
//  2. the application's existing sanitization functions are changed to
//     attach a SQLSanitized (resp. HTMLSanitized) policy to freshly
//     sanitized data;
//  3. the SQL (resp. HTML) filter object rejects any query that contains
//     characters carrying UntrustedData but not SQLSanitized (resp.
//     HTMLSanitized).
//
// The second strategy skips the sanitized markers and instead parses the
// final query/document, rejecting UntrustedData characters that land in
// structural positions; it is implemented by the SQL filter in
// internal/sqldb and the HTML checker in internal/httpd.
package sanitize

import (
	"strings"

	"resin/internal/core"
)

// UntrustedData marks data that arrived from outside the application:
// HTTP parameters, cookies, socket reads, whois responses. Source records
// where the data came from, for diagnostics.
type UntrustedData struct {
	Source string `json:"source"`
}

// ExportCheck always passes: UntrustedData by itself does not restrict
// exports; it exists to be *found* by SQL/HTML filters.
func (p *UntrustedData) ExportCheck(ctx *core.Context) error { return nil }

// SQLSanitized marks data that passed through the SQL quoting function.
type SQLSanitized struct{}

// ExportCheck always passes.
func (p *SQLSanitized) ExportCheck(ctx *core.Context) error { return nil }

// HTMLSanitized marks data that passed through the HTML escaping function.
type HTMLSanitized struct{}

// ExportCheck always passes.
func (p *HTMLSanitized) ExportCheck(ctx *core.Context) error { return nil }

func init() {
	core.RegisterPolicyClass("resin.UntrustedData", &UntrustedData{})
	core.RegisterPolicyClass("resin.SQLSanitized", &SQLSanitized{})
	core.RegisterPolicyClass("resin.HTMLSanitized", &HTMLSanitized{})
}

// IsUntrusted reports whether p is an UntrustedData policy.
func IsUntrusted(p core.Policy) bool {
	_, ok := p.(*UntrustedData)
	return ok
}

// IsSQLSanitized reports whether p is a SQLSanitized policy.
func IsSQLSanitized(p core.Policy) bool {
	_, ok := p.(*SQLSanitized)
	return ok
}

// IsHTMLSanitized reports whether p is an HTMLSanitized policy.
func IsHTMLSanitized(p core.Policy) bool {
	_, ok := p.(*HTMLSanitized)
	return ok
}

// Taint attaches an UntrustedData policy (with the given source tag) to
// every byte of data. Input boundaries call this.
func Taint(data core.String, source string) core.String {
	return data.WithPolicy(&UntrustedData{Source: source})
}

// The one-member marker sets, built once: every sanitized string shares
// them, so attaching the marker allocates no policy object and adjacent
// sanitized pieces coalesce into one span.
var (
	sqlSanitizedSet  = core.NewPolicySet(&SQLSanitized{}).Intern()
	htmlSanitizedSet = core.NewPolicySet(&HTMLSanitized{}).Intern()
)

// escapeTable says, per byte value, whether a sanitizer rewrites the
// byte and to what (the empty string drops it).
type escapeTable struct {
	escaped [256]bool
	rep     [256]string
}

func newEscapeTable(reps map[byte]string) *escapeTable {
	t := &escapeTable{}
	for c, rep := range reps {
		t.escaped[c], t.rep[c] = true, rep
	}
	return t
}

// next returns the index of the first byte of s at or after i that the
// table rewrites, or len(s).
func (t *escapeTable) next(s string, i int) int {
	for ; i < len(s); i++ {
		if t.escaped[s[i]] {
			break
		}
	}
	return i
}

// appendEscaped appends data to b by runs: each maximal run of bytes the
// table leaves alone goes in as one slice, spans and all, and each
// rewritten byte's replacement inherits the policies of the byte it
// replaces.
func (t *escapeTable) appendEscaped(b *core.Builder, data core.String) {
	raw := data.Raw()
	for start := 0; start < len(raw); {
		i := t.next(raw, start)
		b.Append(data.Slice(start, i))
		if i == len(raw) {
			return
		}
		rep := t.rep[raw[i]]
		if ps := data.PoliciesAt(i); ps.IsEmpty() {
			b.AppendRaw(rep)
		} else {
			for j := 0; j < len(rep); j++ {
				b.AppendBytePolicies(rep[j], ps)
			}
		}
		start = i + 1
	}
}

// sqlEscapes doubles single quotes and backslashes and drops NUL bytes
// outright.
var sqlEscapes = newEscapeTable(map[byte]string{'\'': "''", '\\': `\\`, 0: ""})

// SQLQuote is the application's SQL string-quoting function, modified per
// §5.3 to attach a SQLSanitized policy to the freshly sanitized data. It
// escapes single quotes, backslashes and NULs and wraps the result in
// single quotes. Bytes copied from the input keep their original policies
// (so UntrustedData survives — the filter checks for the *pair*), and the
// whole result additionally carries SQLSanitized.
func SQLQuote(data core.String) core.String {
	var b core.Builder
	b.Grow(data.Len()+2, data.SpanCount())
	b.AppendRaw("'")
	sqlEscapes.appendEscaped(&b, data)
	b.AppendRaw("'")
	return b.String().WithPolicySet(sqlSanitizedSet)
}

// htmlEscapes maps HTML-significant bytes to their entities.
var htmlEscapes = newEscapeTable(map[byte]string{
	'&':  "&amp;",
	'<':  "&lt;",
	'>':  "&gt;",
	'"':  "&quot;",
	'\'': "&#39;",
})

// HTMLEscape is the application's HTML escaping function, modified per
// §5.3 to attach an HTMLSanitized policy. Escaped entities inherit the
// policies of the byte they replace. Data with nothing to escape keeps
// its bytes and spans and only gains the marker — which is attached on
// every call: the HTML filter looks for the *pair*.
func HTMLEscape(data core.String) core.String {
	if htmlEscapes.next(data.Raw(), 0) == data.Len() {
		return data.WithPolicySet(htmlSanitizedSet)
	}
	var b core.Builder
	b.Grow(data.Len()+8, data.SpanCount())
	htmlEscapes.appendEscaped(&b, data)
	return b.String().WithPolicySet(htmlSanitizedSet)
}

// UnsanitizedSQL reports whether data contains a byte carrying
// UntrustedData but not SQLSanitized, returning the first such range.
// This is the strategy-1 check the SQL filter runs on outgoing queries.
func UnsanitizedSQL(data core.String) (start, end int, found bool) {
	return findUnsanitized(data, IsSQLSanitized)
}

// UnsanitizedHTML is the HTML-side strategy-1 check.
func UnsanitizedHTML(data core.String) (start, end int, found bool) {
	return findUnsanitized(data, IsHTMLSanitized)
}

func findUnsanitized(data core.String, sanitized func(core.Policy) bool) (int, int, bool) {
	found := false
	var fs, fe int
	data.EachTaintedSpan(func(s, e int, ps *core.PolicySet) error { //nolint:errcheck
		if found {
			return nil
		}
		if ps.Any(IsUntrusted) && !ps.Any(sanitized) {
			fs, fe, found = s, e, true
		}
		return nil
	})
	return fs, fe, found
}

// StripQuotes removes the surrounding single quotes added by SQLQuote;
// used by tests that need to compare sanitized payloads.
func StripQuotes(s string) string {
	return strings.TrimSuffix(strings.TrimPrefix(s, "'"), "'")
}
