package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"resin/internal/core"
)

// Plans, the compile half of the one query route, and the binder.
//
// Every statement — DB.Query text, a prepared Stmt, a View.Query inside
// an integrity assertion — reaches the engine the same way: its token
// stream is *compiled* once (planCache.compile: one parse into the
// statement's own plan, whose Params are the placeholders' binding
// ordinals) and each execution passes its bound arguments as the plan's
// slots (compiled.slots). Nothing else turns SQL text into an executable
// statement, and no execution copies the plan's AST.
//
// A plan belongs to the Stmt compiled from its text. Applications issue
// their hot statements prepared, with `?` placeholders, so one Stmt
// serves every execution; the plan cache's text memo (planCache.texts)
// hands the same Stmt to DB.Query and to the wire server's one-shot
// query whenever they send text it has seen, so repeated text is neither
// tokenized nor parsed (TokenizeCount and ParseCount pin this down in
// tests). Text the memo has not seen — spliced literals, text carrying a
// policy span, auto-sanitized untrusted text — pays one parse.
//
// Inline literals stay in the plan with their per-character policies,
// and bound values arrive per execution with theirs, so taint tracking
// and policy persistence see the same values either way.
//
// Schema-derived state is cached per plan as one value keyed on the
// engine's schema generation — the bound plan: which policy columns
// exist for the statement's tables, the SELECT item list rewritten to
// fetch them, every column reference resolved to a row position (the
// projection, a join's ON columns, the grouping columns and aggregates,
// WHERE as a tree over positions and slots, the conjuncts an index probe
// may use, the ORDER BY position) and how the result's columns pair up.
// Any CREATE/DROP of a table or index stamps a fresh generation, so
// plans rebind instead of reusing stale conclusions (see docs/SQL.md §5
// for the invalidation rules).

// textMemoCap bounds the remembered texts. The memo is a core.Cache,
// whose young generation holds half its entries, so up to 1024 texts
// stay remembered however much else passes through. Applications use a
// fixed set of statements; the cap exists only to keep adversarial or
// generated text from growing the memo without bound.
const textMemoCap = 2048

// PlanCacheStats reports plan cache effectiveness: Hits counts text memo
// hits, Misses counts compiles (one parse each), and Invalidations
// counts schema-generation misses: executions whose plan had to
// recompute its bound plan because a CREATE/DROP ran since it was bound.
type PlanCacheStats struct {
	Hits, Misses, Invalidations uint64
}

// cachedPlan is one compiled statement and the bound plan it caches.
type cachedPlan struct {
	stmt Statement // the parsed statement; shared, never mutated

	// schema is the bound plan — everything the plan has concluded from
	// a schema — as one immutable value: an execution loads it once and
	// uses all of it or none of it, so two engines at different
	// generations sharing the plan can never pair one generation's
	// positions with the other's columns.
	schema atomic.Pointer[planSchema]
}

// planSchema is the bound plan: everything a plan concludes from the
// schema as of one schema generation (the plan-cache invalidation rule:
// any CREATE/DROP of a table or index stamps a fresh generation and so
// invalidates every plan's conclusions — which also covers both sides of
// a join). executePlanned builds it the first time the plan runs against
// an engine of that generation, completes it from that execution, and
// never changes it after publishing. What is left per execution is
// filling the slots, probing, evaluating and decoding.
type planSchema struct {
	gen   uint64
	pcols map[string]bool // policy columns of the statement's tables
	// stmt is what executes: for a SELECT the plan's statement with the
	// policy companions appended to its items (rewriteSelect), otherwise
	// the statement itself (INSERT and UPDATE are rewritten per
	// execution, through write).
	stmt  Statement
	write *writeRewrite // INSERT and UPDATE: the bound Figure 4 rewrite
	// bound is stmt resolved against the generation's tables (bindStmt);
	// nil for DDL.
	bound *boundStmt
	shape resultShape // SELECT: how the engine's columns pair up (deriveShape)
}

// publish installs ps as the plan's bound plan, unless the engine's
// generation moved while ps was being built: gen was read before the
// schema, so a DDL in between would have left newer contents under the
// older label — which an engine still at the older generation (a
// transaction's speculative one) would then trust. A statement without a
// plan (nil) remembers nothing.
func (p *cachedPlan) publish(ps *planSchema, engine *Engine) {
	if p != nil && engine.SchemaGen() == ps.gen {
		p.schema.Store(ps)
	}
}

// planCache is one DB filter's text memo and counters. texts maps raw
// query text that carries no policy span at all to its immutable Stmt,
// so that re-preparing the same trusted text (DB.Query, the wire
// server's one-shot query) skips the tokenizer and the parser and
// allocates nothing. A plan cache belongs to one DB's filter, so every
// Stmt in it executes against that DB.
type planCache struct {
	texts *core.Cache[string, *Stmt]

	compiles, invalidations atomic.Uint64
}

// textMemoMaxLen bounds the text the memo keys on (prepareStmt neither
// looks up nor remembers anything longer), so its keys hold at most
// textMemoCap × 1 KiB = 2 MiB; longer text compiles every time.
const textMemoMaxLen = 1024

func newPlanCache() *planCache {
	return &planCache{texts: core.NewCache[string, *Stmt](textMemoCap, 0, 0)}
}

// stats counts a text memo hit as a hit and every compile as a miss.
func (c *planCache) stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          c.texts.Stats().Hits,
		Misses:        c.compiles.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// reset forgets every remembered text (tests and benchmarks).
func (c *planCache) reset() { c.texts.Reset() }

// slotExpr is the expression an execution sees at ex: the slot's value
// for a Param of the plan, ex itself otherwise (a literal, or a Param no
// slot fills, which the caller rejects as not a literal).
func slotExpr(ex Expr, slots []Expr) Expr {
	if p, ok := ex.(*Param); ok && p.Idx >= 0 && p.Idx < len(slots) {
		return slots[p.Idx]
	}
	return ex
}

// selectLimit resolves a SELECT's row cap for one execution: the inline
// count, or the value the execution binds to its `LIMIT ?` slot.
func selectLimit(s *Select, slots []Expr) (int, error) {
	if s.LimitExpr == nil {
		return s.Limit, nil
	}
	if lim := slotExpr(s.LimitExpr, slots); lim != s.LimitExpr {
		return limitValue(lim)
	}
	return 0, fmt.Errorf("sqldb: unbound LIMIT placeholder")
}

// limitValue resolves a bound LIMIT expression: the argument must be a
// non-negative integer (a string or NULL cannot cap a row count).
func limitValue(e Expr) (int, error) {
	lit, ok := e.(*IntLit)
	if !ok {
		return 0, fmt.Errorf("sqldb: LIMIT must bind an integer, got %s", e.SQL())
	}
	if lit.Val < 0 {
		return 0, fmt.Errorf("sqldb: LIMIT must bind a non-negative integer, got %d", lit.Val)
	}
	return int(lit.Val), nil
}

// compiled is what one query text compiles to under one tokenizer: its
// plan and how its placeholders bind.
type compiled struct {
	plan  *cachedPlan
	names []string // binding ordinal → placeholder name ("" for positional)
	nargs int      // number of distinct binding ordinals
}

// compile is the front half of the query route: it parses the
// statement's token stream once into its plan. The lexer has already
// numbered the placeholders (numberPlaceholders), so each Param the
// parser builds is its placeholder's binding ordinal; compile only reads
// the ordinals' names off the stream. A parse error is Parse's own, word
// for word.
func (c *planCache) compile(toks []Token) (compiled, error) {
	c.compiles.Add(1)
	stmt, err := ParseTokens(toks)
	if err != nil {
		return compiled{}, err
	}
	cp := compiled{plan: &cachedPlan{stmt: stmt}}
	for _, t := range toks {
		// Ordinals number in first-occurrence order, so an ordinal's
		// first placeholder is the one that extends the list.
		if t.Type == TokPlaceholder && t.ParamIdx == len(cp.names) {
			cp.names = append(cp.names, t.Name)
		}
	}
	cp.nargs = len(cp.names)
	return cp, nil
}

// compileAutoSanitized compiles q under the auto-sanitizing tokenizer,
// with the error wording of ParseAutoSanitized.
func (c *planCache) compileAutoSanitized(q core.String) (compiled, error) {
	toks, err := LexAutoSanitize(q)
	if err != nil {
		return compiled{}, err
	}
	cp, err := c.compile(toks)
	if err != nil {
		return compiled{}, fmt.Errorf("sqldb: auto-sanitized parse: %w", err)
	}
	return cp, nil
}

// slots is the back half of the query route, and the only place
// arguments meet a plan: after the arity check the bound arguments are
// the slots, bound[ord] filling every Param of ordinal ord. Neither the
// tokenizer nor the parser runs here, and the plan is not copied: the
// bound plan reads the slots where the statement holds Params.
func (cp *compiled) slots(bound []Expr) ([]Expr, error) {
	if len(bound) != cp.nargs {
		return nil, fmt.Errorf("sqldb: statement has %d placeholder(s) but %d bound argument(s)", cp.nargs, len(bound))
	}
	return bound, nil
}

// boundStmt is a statement bound to one schema generation: every name
// it holds is resolved to a row position — for a join, a position in the
// combined left++right row. It is immutable, and shared by every
// execution that finds its engine at gen.
type boundStmt struct {
	gen   uint64
	names []string // SELECT: output column names
	// cols are SELECT's projected positions (-1 for COUNT(*)), INSERT's
	// target position per column, and UPDATE's per assignment — -1 for a
	// column the table lacks, reported when the execution reaches that
	// assignment, after any earlier assignment's bad value.
	cols  []int
	where *boundExpr  // nil matches every row
	conj  []probeConj // the WHERE's AND-spine conjuncts on the table's columns; none for a join
	order int         // SELECT: ORDER BY position; -1 for none
	// A join: the right table's key — the table itself is looked up per
	// execution, under the lock, so a transaction's write set is the one
	// read — and the ON columns' positions in the left and right rows.
	rkey     string
	lon, ron int
	// A grouped SELECT: each item's aggregate ("" for a grouping column),
	// and the GROUP BY positions. aggs is nil for an ungrouped statement.
	aggs  []string
	group []int
}

// fits reports whether b may execute a statement with targets INSERT
// columns or UPDATE assignments on an engine at gen. The Figure 4
// rewrite only appends companions, so a plan bound for the rewritten
// statement also serves the statement it came from.
func (b *boundStmt) fits(gen uint64, targets int) bool {
	return b != nil && b.gen == gen && len(b.cols) >= targets
}

// bindStmt is the binder: it resolves every name of a statement against
// t — and, for a join, the right table in tables — reporting the first
// that does not resolve in the order the engine always has (SELECT: the
// join's table and ON columns, GROUP BY, items, WHERE, ORDER BY; INSERT:
// columns; UPDATE and DELETE: WHERE). Its executions fill nslots slots.
func bindStmt(stmt Statement, t *table, tables map[string]*table, nslots int, gen uint64) (*boundStmt, error) {
	b := &boundStmt{gen: gen, order: -1}
	var sc scope = t
	var where Expr
	switch s := stmt.(type) {
	case *Insert:
		b.cols = make([]int, len(s.Columns))
		for i, name := range s.Columns {
			if b.cols[i] = t.colIndex(name); b.cols[i] < 0 {
				return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, name)
			}
		}
		return b, nil
	case *Select:
		if s.Join != nil {
			js, err := b.bindJoin(s.Join, t, tables)
			if err != nil {
				return nil, err
			}
			sc = js
		}
		if err := b.bindItems(s, sc); err != nil {
			return nil, err
		}
		where = s.Where
	case *Update:
		where = s.Where
	case *Delete:
		where = s.Where
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
	var err error
	if b.where, err = bindWhere(where, sc, nslots); err != nil {
		return nil, err
	}
	if b.rkey == "" {
		b.conj = t.probeConjuncts(where, nil)
	}
	switch s := stmt.(type) {
	case *Select:
		if s.OrderBy != "" {
			if b.order, err = sc.resolveCol(s.OrderBy); err != nil {
				return nil, err
			}
			if b.aggs != nil && !slices.Contains(b.group, b.order) {
				return nil, fmt.Errorf("sqldb: ORDER BY %s must name a GROUP BY column in an aggregate query", s.OrderBy)
			}
		}
	case *Update:
		b.cols = make([]int, len(s.Set))
		for i, a := range s.Set {
			b.cols[i] = t.colIndex(a.Column)
		}
	}
	return b, nil
}

// bindJoin checks a join's right table and form and binds its ON
// columns, one from each table; the rest of the statement resolves in
// the scope it returns.
func (b *boundStmt) bindJoin(j *JoinClause, lt *table, tables map[string]*table) (*joinScope, error) {
	b.rkey = strings.ToLower(j.Table)
	rt, ok := tables[b.rkey]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, j.Table)
	}
	if lt == rt {
		return nil, fmt.Errorf("sqldb: self-join of table %s is not supported", lt.name)
	}
	if j.Type != "INNER" && j.Type != "LEFT" {
		return nil, fmt.Errorf("sqldb: unsupported join type %q", j.Type)
	}
	js := &joinScope{lt: lt, rt: rt}
	l, err := js.resolveCol(j.L)
	if err != nil {
		return nil, err
	}
	r, err := js.resolveCol(j.R)
	if err != nil {
		return nil, err
	}
	if (l < len(lt.cols)) == (r < len(lt.cols)) {
		return nil, fmt.Errorf("sqldb: ON %s = %s must join one column from each table", j.L, j.R)
	}
	b.lon, b.ron = min(l, r), max(l, r)-len(lt.cols)
	return js, nil
}

// bindItems binds a SELECT's GROUP BY columns and its projection. A
// grouped statement's plain items must name a grouping column — checked
// by resolved position, so any spelling of the column qualifies.
func (b *boundStmt) bindItems(s *Select, sc scope) error {
	grouped := s.grouped()
	for _, g := range s.GroupBy {
		ci, err := sc.resolveCol(g)
		if err != nil {
			return err
		}
		b.group = append(b.group, ci)
	}
	if s.Star {
		if grouped {
			return fmt.Errorf("sqldb: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		// A join's star emits the left table's columns then the right's,
		// all qualified.
		js, join := sc.(*joinScope)
		for ci := range sc.width() {
			name := sc.colDef(ci).Name
			if join {
				name = js.qualName(ci)
			}
			b.names, b.cols = append(b.names, name), append(b.cols, ci)
		}
		return nil
	}
	b.names, b.cols = make([]string, len(s.Items)), make([]int, len(s.Items))
	if grouped {
		b.aggs = make([]string, len(s.Items))
	}
	for i, it := range s.Items {
		if it.Agg != "" && it.Star { // COUNT(*)
			b.names[i], b.cols[i], b.aggs[i] = it.Agg+"(*)", -1, it.Agg
			continue
		}
		ci, err := sc.resolveCol(it.Col)
		if err != nil {
			return err
		}
		name := sc.outColName(it.Col, ci)
		switch {
		case it.Agg == "SUM" && sc.colDef(ci).Type != ColInt:
			return fmt.Errorf("%w: SUM(%s) requires an INT column", ErrTypeMismatch, it.Col)
		case it.Agg != "":
			name = it.Agg + "(" + name + ")"
		case grouped && !slices.Contains(b.group, ci):
			return fmt.Errorf("sqldb: column %s must appear in GROUP BY or inside an aggregate", it.Col)
		}
		b.names[i], b.cols[i] = name, ci
		if grouped {
			b.aggs[i] = it.Agg
		}
	}
	return nil
}

// boundExpr is an expression bound to positions, the one form the
// evaluator runs: a column reference is a row position, a Param the
// slot an execution fills, a literal its value.
type boundExpr struct {
	op   exprOp
	pos  int        // exCol: row position; exSlot: slot index
	val  value      // exConst
	name string     // the binary operator as written, for exBad's error
	l, r *boundExpr // operands; exNot has only l
}

type exprOp uint8

const (
	exConst exprOp = iota
	exCol
	exSlot
	exNot
	exAnd
	exOr
	exEq
	exNe
	exLt
	exLe
	exGt
	exGe
	exLike
	exBad // an operator the dialect lacks: an error once a row reaches it
)

var binaryOps = map[string]exprOp{
	"AND": exAnd, "OR": exOr, "=": exEq, "!=": exNe,
	"<": exLt, "<=": exLe, ">": exGt, ">=": exGe, "LIKE": exLike,
}

// bindWhere resolves an expression's column references through sc. Its
// errors are the ErrNoColumn contract's, and a Param must be one of the
// nslots slots the executions fill.
func bindWhere(ex Expr, sc scope, nslots int) (*boundExpr, error) {
	switch v := ex.(type) {
	case nil:
		return nil, nil
	case *NullLit, *IntLit, *StringLit:
		val, err := literalOf(ex)
		return &boundExpr{op: exConst, val: val}, err
	case *ColumnRef:
		ci, err := sc.resolveCol(v.Name)
		if err != nil {
			return nil, err
		}
		return &boundExpr{op: exCol, pos: ci}, nil
	case *Param:
		if v.Idx < 0 || v.Idx >= nslots {
			return nil, fmt.Errorf("sqldb: unbound plan parameter ?%d", v.Idx)
		}
		return &boundExpr{op: exSlot, pos: v.Idx}, nil
	case *Unary:
		x, err := bindWhere(v.X, sc, nslots)
		if err != nil {
			return nil, err
		}
		return &boundExpr{op: exNot, l: x}, nil
	case *Binary:
		l, err := bindWhere(v.L, sc, nslots)
		if err != nil {
			return nil, err
		}
		r, err := bindWhere(v.R, sc, nslots)
		if err != nil {
			return nil, err
		}
		op, ok := binaryOps[v.Op]
		if !ok {
			op = exBad
		}
		return &boundExpr{op: op, name: v.Op, l: l, r: r}, nil
	default:
		return nil, fmt.Errorf("sqldb: unsupported expression %T", ex)
	}
}
