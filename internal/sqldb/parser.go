package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"resin/internal/core"
)

// parseCalls counts ParseTokens invocations. The prepared-statement
// contract is that an execution, or a text memo hit, never parses;
// tests and benchmarks observe the counter through ParseCount to pin
// that down.
var parseCalls atomic.Uint64

// ParseCount returns the number of ParseTokens invocations so far in this
// process (including those made through Parse and ParseAutoSanitized).
func ParseCount() uint64 { return parseCalls.Load() }

// ParseError is a syntax error with the offending token.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sqldb: parse error at offset %d: %s", e.Offset, e.Msg)
}

// Parse lexes and parses a single SQL statement from a tracked query.
// A trailing semicolon is allowed; anything after it is rejected (the
// dialect does not support stacked queries, like most real PHP database
// APIs — injection attacks here work by reshaping a single statement).
func Parse(q core.String) (Statement, error) {
	toks, err := Lex(q)
	if err != nil {
		return nil, err
	}
	return ParseTokens(toks)
}

// ParseTokens parses an already-lexed token stream; the auto-sanitizing
// filter mode uses it with the taint-aware tokenizer.
func ParseTokens(toks []Token) (Statement, error) {
	parseCalls.Add(1)
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.peek().Type == TokSemi {
		p.next()
	}
	if p.peek().Type != TokEOF {
		return nil, p.errf("unexpected %s %q after statement", p.peek().Type, p.peek().Text)
	}
	return stmt, nil
}

type parser struct {
	toks  []Token
	pos   int
	depth int // expression nesting: open parentheses and NOTs
}

// maxExprDepth bounds expression nesting, so a deeply parenthesized or
// NOT-chained statement is refused instead of exhausting the stack.
const maxExprDepth = 256

// nest enters one level of expression nesting; the caller leaves it with
// p.depth-- once the nested expression is parsed.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxExprDepth {
		return p.errf("expression nested deeper than %d", maxExprDepth)
	}
	return nil
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Offset: p.peek().Start, Msg: fmt.Sprintf(format, args...)}
}

// expectKeyword consumes the given keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.Type != TokKeyword || t.Keyword() != kw {
		return p.errf("expected %s, got %q", kw, t.Text)
	}
	p.next()
	return nil
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.Type == TokKeyword && t.Keyword() == kw {
		p.next()
		return true
	}
	return false
}

// expectIdent consumes an identifier (or non-reserved keyword used as a
// name) and returns its text.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Type != TokIdent {
		return "", p.errf("expected identifier, got %s %q", t.Type, t.Text)
	}
	p.next()
	return t.Text, nil
}

func (p *parser) expect(tt TokenType) (Token, error) {
	t := p.peek()
	if t.Type != tt {
		return Token{}, p.errf("expected %s, got %s %q", tt, t.Type, t.Text)
	}
	return p.next(), nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Type != TokKeyword {
		return nil, p.errf("expected statement keyword, got %q", t.Text)
	}
	switch t.Keyword() {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	default:
		return nil, p.errf("unsupported statement %q", t.Text)
	}
}

func (p *parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	sel := &Select{Limit: -1}
	if p.peek().Type == TokStar {
		p.next()
		sel.Star = true
	} else {
		for {
			it, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			sel.Items = append(sel.Items, it)
			if p.peek().Type != TokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	sel.Table = table
	joinType := ""
	switch {
	case p.acceptKeyword("INNER"):
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		joinType = "INNER"
	case p.acceptKeyword("LEFT"):
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		joinType = "LEFT"
	case p.acceptKeyword("JOIN"): // bare JOIN is INNER
		joinType = "INNER"
	}
	if joinType != "" {
		jt, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		l, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if t := p.peek(); t.Type != TokOp || t.Text != "=" {
			return nil, p.errf("expected = in ON clause, got %q", t.Text)
		}
		p.next()
		r, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		sel.Join = &JoinClause{Type: joinType, Table: jt, L: l, R: r}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, col)
			if p.peek().Type != TokComma {
				break
			}
			p.next()
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = col
		if p.acceptKeyword("DESC") {
			sel.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
	}
	if p.acceptKeyword("LIMIT") {
		switch t := p.peek(); t.Type {
		case TokPlaceholder:
			// `LIMIT ?` / `LIMIT :name`: a slot binding resolves per
			// execution.
			p.next()
			sel.LimitExpr = &Param{Idx: t.ParamIdx}
		default:
			t, err := p.expect(TokNumber)
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(t.Text)
			if err != nil || n < 0 {
				return nil, p.errf("bad LIMIT %q", t.Text)
			}
			sel.Limit = n
		}
	}
	return sel, nil
}

// parseSelectItem parses one projection item: a column reference, or an
// aggregate call AGG(col) / COUNT(*). Aggregate names are contextual
// identifiers (not reserved), recognized only when directly followed by
// an opening parenthesis — a column named "count" stays selectable.
func (p *parser) parseSelectItem() (SelectItem, error) {
	if t := p.peek(); t.Type == TokIdent && p.toks[p.pos+1].Type == TokLParen {
		agg := strings.ToUpper(t.Text)
		switch agg {
		case "COUNT", "SUM", "MIN", "MAX", "PUNION":
			p.next() // aggregate name
			p.next() // (
			if agg == "COUNT" && p.peek().Type == TokStar {
				p.next()
				if _, err := p.expect(TokRParen); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{Agg: agg, Star: true}, nil
			}
			col, err := p.expectIdent()
			if err != nil {
				return SelectItem{}, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Agg: agg, Col: col}, nil
		}
	}
	col, err := p.expectIdent()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: col}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ins.Columns = append(ins.Columns, col)
		if p.peek().Type != TokComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.peek().Type != TokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if len(row) != len(ins.Columns) {
			return nil, p.errf("INSERT row has %d values for %d columns", len(row), len(ins.Columns))
		}
		ins.Rows = append(ins.Rows, row)
		if p.peek().Type != TokComma {
			break
		}
		p.next()
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t := p.peek()
		if t.Type != TokOp || t.Text != "=" {
			return nil, p.errf("expected = in SET, got %q", t.Text)
		}
		p.next()
		val, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		if p.peek().Type != TokComma {
			break
		}
		p.next()
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	if p.acceptKeyword("INDEX") {
		table, col, err := p.parseIndexTarget()
		if err != nil {
			return nil, err
		}
		return &CreateIndex{Table: table, Column: col}, nil
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct := &CreateTable{Table: table}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t := p.peek()
		var typ ColType
		if t.Type == TokKeyword {
			switch t.Keyword() {
			case "TEXT":
				typ = ColText
			case "INT", "INTEGER":
				typ = ColInt
			default:
				return nil, p.errf("bad column type %q", t.Text)
			}
			p.next()
		} else {
			return nil, p.errf("expected column type, got %q", t.Text)
		}
		ct.Cols = append(ct.Cols, ColumnDef{Name: col, Type: typ})
		if p.peek().Type != TokComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if p.acceptKeyword("INDEX") {
		table, col, err := p.parseIndexTarget()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Table: table, Column: col}, nil
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Table: table}, nil
}

// parseIndexTarget parses the "ON t (col)" tail shared by CREATE INDEX
// and DROP INDEX.
func (p *parser) parseIndexTarget() (table, col string, err error) {
	if err := p.expectKeyword("ON"); err != nil {
		return "", "", err
	}
	table, err = p.expectIdent()
	if err != nil {
		return "", "", err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return "", "", err
	}
	col, err = p.expectIdent()
	if err != nil {
		return "", "", err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return "", "", err
	}
	return table, col, nil
}

// Expression grammar: or-expr := and-expr (OR and-expr)* ;
// and-expr := not-expr (AND not-expr)* ; not-expr := [NOT] cmp ;
// cmp := primary [(= | != | <> | < | <= | > | >= | LIKE) primary].
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Type == TokOp {
		op := t.Text
		if op == "<>" {
			op = "!="
		}
		p.next()
		r, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: l, R: r}, nil
	}
	if t.Type == TokKeyword && t.Keyword() == "LIKE" {
		p.next()
		r, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: "LIKE", L: l, R: r}, nil
	}
	return l, nil
}

// parseOperand parses a parenthesized expression, column ref, or literal.
func (p *parser) parseOperand() (Expr, error) {
	if p.peek().Type == TokLParen {
		if err := p.nest(); err != nil {
			return nil, err
		}
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		p.depth--
		return e, nil
	}
	return p.parsePrimary()
}

// parsePrimary parses a literal or column reference.
func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Type {
	case TokString:
		p.next()
		return &StringLit{Val: t.Value}, nil
	case TokNumber:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &IntLit{Val: v, Src: t.Value}, nil
	case TokIdent:
		p.next()
		return &ColumnRef{Name: t.Text}, nil
	case TokPlaceholder:
		p.next()
		return &Param{Idx: t.ParamIdx}, nil
	case TokKeyword:
		if t.Keyword() == "NULL" {
			p.next()
			return &NullLit{}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.Text)
	default:
		return nil, p.errf("unexpected %s %q in expression", t.Type, t.Text)
	}
}
