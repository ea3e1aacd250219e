// Package script is the interpreter substrate of the RESIN reproduction:
// RSL, a small PHP-flavoured scripting language whose code is loaded
// through the interpreter's code-import channel (§3.2.2). "RESIN treats
// the interpreter's execution of script code as another data flow channel,
// with its own filter object" — replacing that filter with one that
// requires a CodeApproval policy on every character implements the
// server-side script injection assertion of §5.2 (Figure 6).
//
// RSL has exactly what the Figure 6 scenarios run (# starts a line
// comment):
//
//	stmt := "echo" expr ";" | "let" ident "=" expr ";" | "include" expr ";"
//	      | "return" expr ";" | "func" ident "(" [ident {"," ident}] ")" "{" {stmt} "}" | expr ";"
//	expr := term {"." term}
//	term := string | ident | ident "(" [expr {"," expr}] ")"
//
// Every RSL value is a tracked core.String, so policies flow through
// script execution exactly as they flow through host code, and
// everything a script echoes still crosses the host's output boundary.
package script

import (
	"fmt"
	"strings"

	"resin/internal/core"
)

// maxNesting bounds how deeply call arguments and func bodies nest, so
// hostile source fails with a SyntaxError instead of exhausting the
// parser's stack.
const maxNesting = 256

// tokKind classifies RSL tokens.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tString
	tPunct // ( ) { } , ; = .
	tKeyword
)

var rslKeywords = map[string]bool{
	"let": true, "echo": true, "include": true, "func": true, "return": true,
}

type tok struct {
	kind tokKind
	text string
	val  core.String // tracked literal value for strings
	pos  int
}

// SyntaxError is an RSL lex/parse error.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("script: syntax error at byte %d: %s", e.Pos, e.Msg)
}

// stmt is one RSL statement. kw is its keyword, or "" for an expression
// statement.
type stmt struct {
	kw     string
	name   string   // let's variable, func's name
	params []string // func
	body   []stmt   // func
	x      expr     // every statement but func
}

// expr is a "."-joined chain of terms.
type expr []term

// term is a string literal (name == ""), a variable, or a call.
type term struct {
	lit  core.String
	name string
	call bool
	args []expr
}

// rslParser lexes on demand behind one token of lookahead, so a syntax
// error stops the work where it occurs. A lex error is sticky: cur turns
// into tEOF and the next parse error reports err instead.
type rslParser struct {
	src   core.String
	i     int // next byte to lex
	cur   tok
	err   error
	depth int
}

func parseRSL(src core.String) ([]stmt, error) {
	p := &rslParser{src: src}
	p.next()
	var out []stmt
	for p.cur.kind != tEOF {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, p.err
}

// next lexes the token after cur into cur.
func (p *rslParser) next() {
	raw, i := p.src.Raw(), p.i
	for i < len(raw) && strings.IndexByte(" \t\n\r#", raw[i]) >= 0 {
		if raw[i] == '#' {
			for i < len(raw) && raw[i] != '\n' {
				i++
			}
		} else {
			i++
		}
	}
	start := i
	switch {
	case i == len(raw):
		p.cur = tok{kind: tEOF, pos: i}
	case raw[i] == '"':
		i++
		var b core.Builder
		for i < len(raw) && raw[i] != '"' {
			c := raw[i]
			if c == '\\' && i+1 < len(raw) {
				i++
				c = raw[i]
				switch c {
				case 'n':
					c = '\n'
				case 't':
					c = '\t'
				}
			}
			_, ps := p.src.ByteAt(i)
			b.AppendBytePolicies(c, ps)
			i++
		}
		if i == len(raw) {
			p.fail(start, "unterminated string")
			return
		}
		i++ // closing quote
		p.cur = tok{kind: tString, text: raw[start:i], val: b.String(), pos: start}
	case isIdentByte(raw[i]) && !(raw[i] >= '0' && raw[i] <= '9'):
		for i < len(raw) && isIdentByte(raw[i]) {
			i++
		}
		k := tIdent
		if rslKeywords[raw[start:i]] {
			k = tKeyword
		}
		p.cur = tok{kind: k, text: raw[start:i], pos: start}
	case strings.IndexByte("(){},;=.", raw[i]) >= 0:
		i++
		p.cur = tok{kind: tPunct, text: raw[start:i], pos: start}
	default:
		p.fail(i, fmt.Sprintf("unexpected byte %q", raw[i:i+1]))
		return
	}
	p.i = i
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (p *rslParser) fail(pos int, msg string) {
	p.err = &SyntaxError{Pos: pos, Msg: msg}
	p.cur = tok{kind: tEOF, pos: pos}
}

func (p *rslParser) errf(format string, args ...any) error {
	if p.err != nil {
		return p.err
	}
	return &SyntaxError{Pos: p.cur.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *rslParser) isPunct(s string) bool { return p.cur.kind == tPunct && p.cur.text == s }

func (p *rslParser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q, got %q", s, p.cur.text)
	}
	p.next()
	return nil
}

func (p *rslParser) ident(what string) (string, error) {
	if p.cur.kind != tIdent {
		return "", p.errf("expected %s", what)
	}
	name := p.cur.text
	p.next()
	return name, nil
}

// enter counts one level of nesting. An error ends the whole parse, so
// only a successful parse needs the matching p.depth--.
func (p *rslParser) enter() error {
	if p.depth == maxNesting {
		return p.errf("nesting deeper than %d", maxNesting)
	}
	p.depth++
	return nil
}

// parseList parses "(" [item {"," item}] ")".
func (p *rslParser) parseList(item func() error) error {
	if err := p.expectPunct("("); err != nil {
		return err
	}
	if p.isPunct(")") {
		p.next()
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		if !p.isPunct(",") {
			return p.expectPunct(")")
		}
		p.next()
	}
}

func (p *rslParser) parseStmt() (stmt, error) {
	var s stmt
	if p.cur.kind == tKeyword {
		s.kw = p.cur.text
		p.next()
	}
	var err error
	switch s.kw {
	case "func":
		return p.parseFunc()
	case "let":
		if s.name, err = p.ident("variable name"); err != nil {
			return s, err
		}
		if err := p.expectPunct("="); err != nil {
			return s, err
		}
	}
	if s.x, err = p.parseExpr(); err != nil {
		return s, err
	}
	return s, p.expectPunct(";")
}

func (p *rslParser) parseFunc() (stmt, error) {
	s := stmt{kw: "func"}
	var err error
	if s.name, err = p.ident("function name"); err != nil {
		return s, err
	}
	err = p.parseList(func() error {
		param, err := p.ident("parameter name")
		s.params = append(s.params, param)
		return err
	})
	if err != nil {
		return s, err
	}
	if err := p.enter(); err != nil {
		return s, err
	}
	if err := p.expectPunct("{"); err != nil {
		return s, err
	}
	for !p.isPunct("}") {
		if p.cur.kind == tEOF {
			return s, p.errf("unterminated block")
		}
		b, err := p.parseStmt()
		if err != nil {
			return s, err
		}
		s.body = append(s.body, b)
	}
	p.next()
	p.depth--
	return s, nil
}

func (p *rslParser) parseExpr() (expr, error) {
	var x expr
	for {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		x = append(x, t)
		if !p.isPunct(".") {
			return x, nil
		}
		p.next()
	}
}

func (p *rslParser) parseTerm() (term, error) {
	t := p.cur
	switch t.kind {
	case tString:
		p.next()
		return term{lit: t.val}, nil
	case tIdent:
		p.next()
		if !p.isPunct("(") {
			return term{name: t.text}, nil
		}
		c := term{name: t.text, call: true}
		if err := p.enter(); err != nil {
			return c, err
		}
		err := p.parseList(func() error {
			x, err := p.parseExpr()
			c.args = append(c.args, x)
			return err
		})
		p.depth--
		return c, err
	}
	return term{}, p.errf("unexpected %q in expression", t.text)
}
