// Package sqldb is the SQL substrate of the RESIN reproduction: a lexer,
// parser, and in-memory execution engine for a small SQL dialect, plus the
// RESIN SQL filter object that (a) persists policy objects in shadow
// "policy columns" (Figure 4 of the paper), and (b) implements both SQL
// injection defenses of §5.3 — the sanitized-marker strategy and the
// tainted-structure strategy.
//
// The lexer operates on tracked strings so every token knows the byte
// range it came from; that is what lets the filter ask "do any characters
// in the query's *structure* carry the UntrustedData policy?".
//
// Execution goes through a query-planning layer: each statement owns
// its plan, parsed once, and a memo of remembered query text (plan.go)
// skips re-tokenizing and re-parsing repeated text; ordered indexes
// declared with CREATE INDEX (index.go) serve `col = literal` point
// lookups, range and LIKE-prefix scans, and ORDER BY traversals without
// scanning or post-sorting.
// Prepared statements (stmt.go) compile `?`-placeholder text once and
// bind argument values — tracked or plain — into the statement's plan
// per execution, at zero tokenizes and zero parses per operation; the
// resinsql package (top of the repo) adapts that API to database/sql.
// OpenDB(rt, path) adds durability: a write-ahead log of the rewritten
// statements (wal.go, recover.go, snapshot.go), so tables and their
// shadow policy columns survive process restarts. The supported
// dialect, the shadow policy-column encoding, the plan cache and index
// semantics, the binding rules, and the WAL format are specified in
// docs/SQL.md.
package sqldb

import (
	"fmt"
	"strings"
	"sync/atomic"

	"resin/internal/core"
)

// lexCalls counts tokenizer invocations (Lex and LexAutoSanitize). The
// prepared-statement contract is that repeated executions never re-lex
// the query text; tests and benchmarks observe the counter through
// TokenizeCount to pin that down, alongside ParseCount for the parser.
var lexCalls atomic.Uint64

// TokenizeCount returns the number of tokenizer invocations so far in
// this process (both the standard and the auto-sanitizing lexer).
func TokenizeCount() uint64 { return lexCalls.Load() }

// TokenType classifies SQL tokens.
type TokenType int

// Token types.
const (
	TokEOF TokenType = iota
	TokKeyword
	TokIdent
	TokString
	TokNumber
	TokOp
	TokComma
	TokLParen
	TokRParen
	TokStar
	TokSemi
	// TokPlaceholder is a binding placeholder in query text (the
	// prepared-statement API): `?`, or the named form `:name`. It marks a
	// slot that an argument of Stmt.Query / Stmt.Exec (or the variadic
	// DB.Query form) is bound into as a value, never as text. ParamIdx
	// carries the placeholder's zero-based binding ordinal: text order
	// for `?`, distinct-name first-occurrence order for `:name` (every
	// repetition of one name shares one ordinal, so one argument feeds
	// them all). A statement uses one style; mixing is a lex error.
	TokPlaceholder
)

func (t TokenType) String() string {
	switch t {
	case TokEOF:
		return "EOF"
	case TokKeyword:
		return "keyword"
	case TokIdent:
		return "identifier"
	case TokString:
		return "string"
	case TokNumber:
		return "number"
	case TokOp:
		return "operator"
	case TokComma:
		return "comma"
	case TokLParen:
		return "("
	case TokRParen:
		return ")"
	case TokStar:
		return "*"
	case TokSemi:
		return ";"
	case TokPlaceholder:
		return "placeholder"
	default:
		return "unknown"
	}
}

// Structural reports whether tokens of this type form the query's
// structure (keywords, identifiers, operators, punctuation) as opposed to
// its values (string and number literals). The strategy-2 injection check
// rejects structural tokens containing untrusted characters. A `?`
// placeholder counts as structure: it introduces a binding slot and so
// reshapes the statement, which untrusted bytes must never do.
func (t TokenType) Structural() bool {
	switch t {
	case TokKeyword, TokIdent, TokOp, TokComma, TokLParen, TokRParen, TokStar, TokSemi, TokPlaceholder:
		return true
	}
	return false
}

// Token is one lexed SQL token.
type Token struct {
	Type TokenType
	// Text is the raw source text of the token (keywords keep their
	// original case; use Keyword for normalized comparison).
	Text string
	// Value is the decoded literal value for TokString tokens, carrying
	// the per-character policies of the source; for other token types it
	// is the source slice.
	Value core.String
	// Start and End delimit the token's byte range in the query source.
	Start, End int
	// ParamIdx is the binding ordinal of a TokPlaceholder token.
	ParamIdx int
	// Name is the placeholder name for the `:name` form ("" for `?`).
	Name string
}

// Keyword returns the upper-cased text for keyword comparison.
func (t Token) Keyword() string { return strings.ToUpper(t.Text) }

// keywords of the dialect.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "DROP": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"LIMIT": true, "AND": true, "OR": true, "NOT": true,
	"NULL": true, "LIKE": true, "TEXT": true,
	"INT": true, "INTEGER": true,
	"INDEX": true, "ON": true,
	"JOIN": true, "INNER": true, "LEFT": true, "GROUP": true,
}

// LexError is a tokenization error with its byte offset.
type LexError struct {
	Offset int
	Msg    string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("sqldb: lex error at offset %d: %s", e.Offset, e.Msg)
}

// Lex tokenizes a tracked SQL query. String literals use single quotes
// with ” and \\ escapes (matching sanitize.SQLQuote); -- starts a line
// comment. The returned tokens carry source ranges into q and decoded
// string values carry the source characters' policies.
func Lex(q core.String) ([]Token, error) {
	lexCalls.Add(1)
	src := q.Raw()
	var toks []Token
	i := 0
	for {
		tok, next, err := scanToken(q, src, i, len(src))
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Type == TokEOF {
			if err := numberPlaceholders(toks); err != nil {
				return nil, err
			}
			return toks, nil
		}
		i = next
	}
}

// numberPlaceholders stamps each TokPlaceholder with its zero-based
// binding ordinal — the index into the bound-argument list that
// placeholder binds. Positional `?` placeholders number in text order;
// named `:name` placeholders number by distinct name in first-occurrence
// order, every repetition of a name sharing its ordinal. The two styles
// cannot mix in one statement: positional binding is order-based and
// named binding is identity-based, and a statement using both has no
// unambiguous argument list.
func numberPlaceholders(toks []Token) error {
	ord := 0
	named := map[string]int{}
	positionalAt, namedAt := -1, -1
	for i := range toks {
		if toks[i].Type != TokPlaceholder {
			continue
		}
		if toks[i].Name == "" {
			positionalAt = toks[i].Start
			toks[i].ParamIdx = ord
			ord++
			continue
		}
		namedAt = toks[i].Start
		if n, ok := named[toks[i].Name]; ok {
			toks[i].ParamIdx = n
			continue
		}
		named[toks[i].Name] = ord
		toks[i].ParamIdx = ord
		ord++
	}
	if positionalAt >= 0 && namedAt >= 0 {
		off := namedAt
		if positionalAt > off {
			off = positionalAt
		}
		return &LexError{Offset: off, Msg: "cannot mix ? and :name placeholders in one statement"}
	}
	return nil
}

// scanToken skips whitespace and comments from offset i, then lexes one
// token, treating limit as the end of input (the auto-sanitizing
// tokenizer clips trusted scanning at the next untrusted byte). It
// returns a TokEOF token when only trivia remains before limit.
func scanToken(q core.String, src string, i, limit int) (Token, int, error) {
	for i < limit {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < limit && src[i+1] == '-':
			for i < limit && src[i] != '\n' {
				i++
			}
		case c == '\'':
			return lexString(q, src, i)
		case c >= '0' && c <= '9':
			j := i + 1
			for j < limit && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			return Token{Type: TokNumber, Text: src[i:j], Value: q.Slice(i, j), Start: i, End: j}, j, nil
		case isIdentStart(c):
			j := i + 1
			for j < limit && isIdentPart(src[j]) {
				j++
			}
			text := src[i:j]
			typ := TokIdent
			if keywords[strings.ToUpper(text)] {
				typ = TokKeyword
			}
			return Token{Type: typ, Text: text, Value: q.Slice(i, j), Start: i, End: j}, j, nil
		case c == ',':
			return Token{Type: TokComma, Text: ",", Value: q.Slice(i, i+1), Start: i, End: i + 1}, i + 1, nil
		case c == '(':
			return Token{Type: TokLParen, Text: "(", Value: q.Slice(i, i+1), Start: i, End: i + 1}, i + 1, nil
		case c == ')':
			return Token{Type: TokRParen, Text: ")", Value: q.Slice(i, i+1), Start: i, End: i + 1}, i + 1, nil
		case c == '*':
			return Token{Type: TokStar, Text: "*", Value: q.Slice(i, i+1), Start: i, End: i + 1}, i + 1, nil
		case c == ';':
			return Token{Type: TokSemi, Text: ";", Value: q.Slice(i, i+1), Start: i, End: i + 1}, i + 1, nil
		case c == '?':
			return Token{Type: TokPlaceholder, Text: "?", Value: q.Slice(i, i+1), Start: i, End: i + 1}, i + 1, nil
		case c == ':':
			// Named binding placeholder `:name` (letters, digits,
			// underscore; no dots — a name is not a column path).
			j := i + 1
			for j < limit && (isIdentStart(src[j]) || (src[j] >= '0' && src[j] <= '9')) {
				j++
			}
			if j == i+1 || !isIdentStart(src[i+1]) {
				return Token{}, 0, &LexError{Offset: i, Msg: "expected placeholder name after ':'"}
			}
			return Token{Type: TokPlaceholder, Text: src[i:j], Name: src[i+1 : j], Value: q.Slice(i, j), Start: i, End: j}, j, nil
		case c == '=' || c == '<' || c == '>' || c == '!':
			j := i + 1
			if j < limit && (src[j] == '=' || (c == '<' && src[j] == '>')) {
				j++
			}
			op := src[i:j]
			switch op {
			case "=", "<", ">", "<=", ">=", "<>", "!=":
				return Token{Type: TokOp, Text: op, Value: q.Slice(i, j), Start: i, End: j}, j, nil
			default:
				return Token{}, 0, &LexError{Offset: i, Msg: fmt.Sprintf("bad operator %q", op)}
			}
		case c == '-' || c == '+':
			// Signed number literal.
			j := i + 1
			if j >= limit || src[j] < '0' || src[j] > '9' {
				return Token{}, 0, &LexError{Offset: i, Msg: fmt.Sprintf("unexpected %q", string(c))}
			}
			for j < limit && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			return Token{Type: TokNumber, Text: src[i:j], Value: q.Slice(i, j), Start: i, End: j}, j, nil
		default:
			return Token{}, 0, &LexError{Offset: i, Msg: fmt.Sprintf("unexpected byte %q", string(c))}
		}
	}
	return Token{Type: TokEOF, Start: i, End: i}, i, nil
}

// lexString decodes a single-quoted literal starting at src[i] == '\”,
// propagating the source characters' policies into the decoded value.
func lexString(q core.String, src string, i int) (Token, int, error) {
	start := i
	i++ // opening quote
	var val core.Builder
	for i < len(src) {
		c := src[i]
		switch c {
		case '\'':
			if i+1 < len(src) && src[i+1] == '\'' {
				_, ps := q.ByteAt(i)
				val.AppendBytePolicies('\'', ps)
				i += 2
				continue
			}
			// Closing quote.
			return Token{Type: TokString, Text: src[start : i+1], Value: val.String(), Start: start, End: i + 1}, i + 1, nil
		case '\\':
			if i+1 >= len(src) {
				return Token{}, 0, &LexError{Offset: i, Msg: "dangling backslash in string"}
			}
			_, ps := q.ByteAt(i + 1)
			val.AppendBytePolicies(src[i+1], ps)
			i += 2
		default:
			_, ps := q.ByteAt(i)
			val.AppendBytePolicies(c, ps)
			i++
		}
	}
	return Token{}, 0, &LexError{Offset: start, Msg: "unterminated string literal"}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '.'
}
