package sqldb

import (
	"strconv"
	"strings"

	"resin/internal/core"
)

// ColType is a column's declared type.
type ColType int

// Column types of the dialect.
const (
	ColText ColType = iota
	ColInt
)

func (t ColType) String() string {
	if t == ColInt {
		return "INT"
	}
	return "TEXT"
}

// ColumnDef declares one column of a table.
type ColumnDef struct {
	Name string
	Type ColType
}

// Statement is a parsed SQL statement.
type Statement interface {
	stmtNode()
	// SQL renders the statement back to dialect text (used by tests and
	// by the filter's rewriting diagnostics).
	SQL() string
}

// CreateTable is CREATE TABLE t (col TYPE, ...).
type CreateTable struct {
	Table string
	Cols  []ColumnDef
}

// DropTable is DROP TABLE t.
type DropTable struct {
	Table string
}

// CreateIndex is CREATE INDEX ON t (col): it declares an ordered index
// over one column, consulted by the engine's predicate analyzer for
// equality, range, and LIKE-prefix WHERE conjuncts and by ORDER BY
// pushdown (see docs/SQL.md §4).
type CreateIndex struct {
	Table  string
	Column string
}

// DropIndex is DROP INDEX ON t (col).
type DropIndex struct {
	Table  string
	Column string
}

// Insert is INSERT INTO t (cols) VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// SelectItem is one projected output of a SELECT: a (possibly
// table-qualified) column reference, or an aggregate over one.
type SelectItem struct {
	// Agg is "" for a plain column, or one of COUNT, SUM, MIN, MAX,
	// PUNION. PUNION is the policy-union aggregate: the distinct non-NULL
	// values of a column within each group, byte-sorted and joined with
	// 0x1f — the engine-level carrier the filter uses to propagate the
	// union of input policy sets through aggregation (docs/SQL.md).
	Agg  string
	Star bool   // COUNT(*) — row count, no input column
	Col  string // column name, possibly "table.col"; empty for COUNT(*)
}

// SQL renders the item back to dialect text.
func (it SelectItem) SQL() string {
	switch {
	case it.Agg != "" && it.Star:
		return it.Agg + "(*)"
	case it.Agg != "":
		return it.Agg + "(" + it.Col + ")"
	default:
		return it.Col
	}
}

// JoinClause is [INNER|LEFT] JOIN t2 ON l = r. The ON condition is
// restricted to equality of one column from each side (hash-joinable by
// construction); arbitrary residual predicates belong in WHERE.
type JoinClause struct {
	Type  string // "INNER" or "LEFT"
	Table string
	L, R  string // ON L = R; each possibly "table.col"
}

// Select is SELECT items FROM t [JOIN t2 ON l = r] [WHERE e]
// [GROUP BY cols] [ORDER BY col [DESC]] [LIMIT n].
type Select struct {
	Table   string
	Star    bool
	Items   []SelectItem
	Join    *JoinClause
	Where   Expr
	GroupBy []string
	OrderBy string
	Desc    bool
	Limit   int // -1 means no limit

	// LimitExpr is a `LIMIT ?` (or `LIMIT :name`) binding slot. The
	// parser sets it instead of Limit when the count is a placeholder;
	// each execution reads the count from the slot's value, and the
	// engine rejects a SELECT whose slot no execution fills.
	LimitExpr Expr

	// ForceScan disables index access paths for this SELECT. The parser
	// never sets it; it is the differential-test hook that lets the
	// scan-vs-index harness run both paths against the same snapshot.
	ForceScan bool

	// ForceLoop disables the hash join in favor of the nested-loop
	// fallback. The parser never sets it; it is the differential-test
	// hook that makes the always-correct loop path the oracle.
	ForceLoop bool
}

// grouped reports whether the SELECT aggregates: any aggregate item or
// a GROUP BY clause. A grouped query without GROUP BY columns is a
// whole-input aggregate (one output row, even over empty input).
func (s *Select) grouped() bool {
	if len(s.GroupBy) > 0 {
		return true
	}
	for _, it := range s.Items {
		if it.Agg != "" {
			return true
		}
	}
	return false
}

// Update is UPDATE t SET col = e, ... [WHERE e].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Delete is DELETE FROM t [WHERE e].
type Delete struct {
	Table string
	Where Expr
}

func (*CreateTable) stmtNode() {}
func (*DropTable) stmtNode()   {}
func (*CreateIndex) stmtNode() {}
func (*DropIndex) stmtNode()   {}
func (*Insert) stmtNode()      {}
func (*Select) stmtNode()      {}
func (*Update) stmtNode()      {}
func (*Delete) stmtNode()      {}

// Expr is a SQL expression.
type Expr interface {
	exprNode()
	// SQL renders the expression back to dialect text.
	SQL() string
}

// ColumnRef names a column.
type ColumnRef struct{ Name string }

// StringLit is a string literal; Val carries the per-character policies
// of the query source, which is how the RESIN filter learns the policy of
// each cell value it stores.
type StringLit struct{ Val core.String }

// IntLit is an integer literal. Src, when set by the lexer, is the tracked
// source text of the literal so that policies on tainted digits can be
// persisted into policy columns just like string literals.
type IntLit struct {
	Val int64
	Src core.String
}

// NullLit is the NULL literal.
type NullLit struct{}

// Param is the one slot node: a position an execution fills with a
// value. In a plan template Idx numbers the literal slots in stream
// order (the plan cache parameterizes string and number literals and
// binding placeholders alike before parsing); in text parsed as written
// a `?` or `:name` placeholder is the Param of its binding ordinal.
// The binder binds a Param to the slot an execution fills; a statement
// executed without slots rejects one.
type Param struct{ Idx int }

// Binary is a binary expression: comparison, AND, OR, LIKE.
type Binary struct {
	Op   string // "=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE"
	L, R Expr
}

// Unary is NOT e.
type Unary struct {
	Op string // "NOT"
	X  Expr
}

func (*ColumnRef) exprNode() {}
func (*StringLit) exprNode() {}
func (*IntLit) exprNode()    {}
func (*NullLit) exprNode()   {}
func (*Param) exprNode()     {}
func (*Binary) exprNode()    {}
func (*Unary) exprNode()     {}

// SQL renderers. Literal strings re-quote with the dialect's escaping.

func quoteSQL(s string) string {
	var b strings.Builder
	b.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			b.WriteString("''")
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(s[i])
		}
	}
	b.WriteByte('\'')
	return b.String()
}

func (e *ColumnRef) SQL() string { return e.Name }
func (e *StringLit) SQL() string { return quoteSQL(e.Val.Raw()) }
func (e *IntLit) SQL() string    { return strconv.FormatInt(e.Val, 10) }
func (e *NullLit) SQL() string   { return "NULL" }
func (e *Param) SQL() string     { return "?" + strconv.Itoa(e.Idx) }
func (e *Binary) SQL() string    { return "(" + e.L.SQL() + " " + e.Op + " " + e.R.SQL() + ")" }
func (e *Unary) SQL() string     { return "(" + e.Op + " " + e.X.SQL() + ")" }

func (s *CreateTable) SQL() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	b.WriteString(s.Table)
	b.WriteString(" (")
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name + " " + c.Type.String())
	}
	b.WriteString(")")
	return b.String()
}

func (s *DropTable) SQL() string { return "DROP TABLE " + s.Table }

func (s *CreateIndex) SQL() string { return "CREATE INDEX ON " + s.Table + " (" + s.Column + ")" }
func (s *DropIndex) SQL() string   { return "DROP INDEX ON " + s.Table + " (" + s.Column + ")" }

func (s *Insert) SQL() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.Table)
	b.WriteString(" (")
	b.WriteString(strings.Join(s.Columns, ", "))
	b.WriteString(") VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.SQL())
		}
		b.WriteString(")")
	}
	return b.String()
}

func (s *Select) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Star {
		b.WriteString("*")
	} else {
		for i, it := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.SQL())
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(s.Table)
	if s.Join != nil {
		b.WriteString(" " + s.Join.Type + " JOIN " + s.Join.Table +
			" ON " + s.Join.L + " = " + s.Join.R)
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(s.GroupBy, ", "))
	}
	if s.OrderBy != "" {
		b.WriteString(" ORDER BY " + s.OrderBy)
		if s.Desc {
			b.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(s.Limit))
	} else if s.LimitExpr != nil {
		b.WriteString(" LIMIT " + s.LimitExpr.SQL())
	}
	return b.String()
}

func (s *Update) SQL() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(s.Table)
	b.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column + " = " + a.Value.SQL())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	return b.String()
}

func (s *Delete) SQL() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.SQL()
	}
	return out
}
