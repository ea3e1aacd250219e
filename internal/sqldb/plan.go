package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"resin/internal/core"
)

// The plan cache, the compile half of the one query route, and the
// binder.
//
// Every statement — DB.Query text, a prepared Stmt, a View.Query inside
// an integrity assertion — reaches the engine the same way: the token
// stream is *compiled* (planCache.compile: resolve the shape's template
// through the cache, convert the inline literals, map the placeholder
// slots) and each execution fills the template's slots with values
// (compiled.slots). Nothing else turns SQL text into an executable
// statement, and no execution copies the template.
//
// Applications in this codebase (and the PHP applications the paper
// interposes on) issue the same query *shapes* over and over with
// different literal values — HotCRP's per-row SELECTs, the forum's
// per-message lookups. The cache keys on the canonical token stream
// with string and number literals replaced by parameter slots, parses
// that parameterized stream once into a template AST, and on every
// later hit only converts the current literal tokens — no parser
// involved (ParseCount pins this down in tests).
//
// Literal values still flow through per execution, carrying their
// per-character policies, so taint tracking and policy persistence are
// unaffected by caching: only the *structure* is reused, and structure
// is exactly the part the injection assertions require to be untrusted-
// free.
//
// Schema-derived state is cached per plan as one value keyed on the
// engine's schema generation — the bound plan: which policy columns
// exist for the statement's tables, the SELECT item list rewritten to
// fetch them, every column reference resolved to a row position (the
// projection, WHERE as a tree over positions and slots, the conjuncts an
// index probe may use, the ORDER BY position) and how the result's
// columns pair up. Any CREATE/DROP of a table or index stamps a fresh
// generation, so plans rebind instead of reusing stale conclusions (see
// docs/SQL.md §5 for the invalidation rules).

// planCacheCap bounds the number of cached templates plus remembered
// texts, half each. Both halves are core.Caches, whose young generation
// holds half their entries, so up to 1024 shapes and 1024 texts stay
// cached however much else passes through. Applications use a fixed set
// of query shapes; the cap exists only to keep adversarial or generated
// workloads from growing the cache without bound.
const planCacheCap = 4096

// planModeStandard and planModeAutoSanitize prefix cache keys so the two
// tokenizers (Lex and LexAutoSanitize) never share a template: the same
// raw bytes can tokenize differently under the auto-sanitizing lexer.
const (
	planModeStandard     = 'n'
	planModeAutoSanitize = 'a'
)

// PlanCacheStats reports plan cache effectiveness. Invalidations counts
// schema-generation misses: executions that found a cached template but
// had to recompute its schema-derived state because a CREATE/DROP ran
// since it was compiled.
type PlanCacheStats struct {
	Hits, Misses, Invalidations uint64
}

// cachedPlan is one compiled query template.
type cachedPlan struct {
	tmpl  Statement // parameterized AST; shared, never mutated
	nlits int

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
	// stmt is what executes: for a SELECT the template with the policy
	// companions appended to its items (rewriteSelect), otherwise the
	// template itself (INSERT and UPDATE are rewritten per execution).
	stmt Statement
	// bound is stmt resolved against the generation's tables (bindStmt);
	// nil for DDL, joins and aggregates, which bind per execution.
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

// planCache maps parameterized token-stream keys to compiled templates.
//
// texts is the memo in front of it: the immutable Stmt of query text
// that carries no policy span at all, keyed on the raw string, so that
// re-preparing the same trusted text (DB.Query, the wire server's
// one-shot query) skips the tokenizer and the parser and allocates
// nothing. A plan cache belongs to one DB's filter, so every Stmt in it
// executes against that DB.
type planCache struct {
	templates *core.Cache[string, *cachedPlan]
	texts     *core.Cache[string, *Stmt]

	invalidations atomic.Uint64
}

// textMemoMaxLen bounds the text the memo keys on (prepareStmt neither
// looks up nor remembers anything longer), so its keys hold at most
// planCacheCap/2 × 1 KiB = 2 MiB; longer text compiles every time.
const textMemoMaxLen = 1024

func newPlanCache() *planCache {
	return &planCache{
		templates: core.NewCache[string, *cachedPlan](planCacheCap/2, 0, 0),
		texts:     core.NewCache[string, *Stmt](planCacheCap/2, 0, 0),
	}
}

// stats counts a text memo hit as a hit: it stands for a compile that
// would have hit. A text memo miss goes on to compile, which counts.
func (c *planCache) stats() PlanCacheStats {
	tmpl, texts := c.templates.Stats(), c.texts.Stats()
	return PlanCacheStats{
		Hits:          tmpl.Hits + texts.Hits,
		Misses:        tmpl.Misses,
		Invalidations: c.invalidations.Load(),
	}
}

// reset empties the cache (tests and benchmarks).
func (c *planCache) reset() {
	c.templates.Reset()
	c.texts.Reset()
}

// literalSlots classifies which tokens of a stream are bindable literal
// slots. It is the single source of truth for planKey and parameterize:
// both derive from it, so slot numbering in templates can never drift
// from the key's '?' positions. String and number literals are slots,
// and so are binding placeholders (`?` and `:name`) — a spliced query
// and its prepared form therefore share one cache key and one template.
// Inline LIMIT counts are the exception: the parser folds those into
// the plan itself, so they cannot be bound per execution; distinct
// inline limits simply get distinct plans. A `LIMIT ?` placeholder *is*
// a slot (the template carries Select.LimitExpr and binding resolves
// it), so prepared statements vary the limit without growing the cache.
func literalSlots(toks []Token) []bool {
	slots := make([]bool, len(toks))
	prevLimit := false
	for i, t := range toks {
		slots[i] = t.Type == TokString || t.Type == TokPlaceholder || (t.Type == TokNumber && !prevLimit)
		prevLimit = t.Type == TokKeyword && t.Keyword() == "LIMIT"
	}
	return slots
}

// planKey renders the canonical parameterized form of a token stream:
// keywords upper-cased, identifiers lower-cased, literal slots replaced
// by '?' (their tokens collected into lits), tokens separated by NUL.
func planKey(toks []Token, mode byte) (key string, lits []Token) {
	slots := literalSlots(toks)
	var b strings.Builder
	b.Grow(len(toks) * 8)
	b.WriteByte(mode)
	for i, t := range toks {
		if t.Type == TokEOF {
			break
		}
		b.WriteByte(0)
		switch {
		case slots[i]:
			b.WriteByte('?')
			lits = append(lits, t)
		case t.Type == TokKeyword:
			b.WriteString(t.Keyword())
		case t.Type == TokIdent:
			b.WriteString(strings.ToLower(t.Text))
		default:
			b.WriteString(t.Text)
		}
	}
	return b.String(), lits
}

// parameterize rewrites the literal slots of a stream into TokParam
// tokens numbered in stream order (the same order planKey collects
// lits, by construction from the shared literalSlots classification).
func parameterize(toks []Token) []Token {
	slots := literalSlots(toks)
	out := make([]Token, len(toks))
	idx := 0
	for i, t := range toks {
		if slots[i] {
			out[i] = Token{Type: TokParam, Text: "?", Start: t.Start, End: t.End, ParamIdx: idx}
			idx++
		} else {
			out[i] = t
		}
	}
	return out
}

// litExpr converts a literal token into its AST node, exactly as
// parsePrimary would have: the tracked Value carries the literal's
// per-character policies into the statement.
func litExpr(t Token) (Expr, error) {
	switch t.Type {
	case TokString:
		return &StringLit{Val: t.Value}, nil
	case TokNumber:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &ParseError{Offset: t.Start, Msg: fmt.Sprintf("bad number %q", t.Text)}
		}
		return &IntLit{Val: v, Src: t.Value}, nil
	default:
		return nil, fmt.Errorf("sqldb: plan literal slot bound to %s token", t.Type)
	}
}

// slotExpr is the expression an execution sees at ex: the slot's value
// for a Param of the template, ex itself otherwise (a hand-built
// statement's literal, or a Param no slot fills, which the caller
// rejects as not a literal).
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

// phSlot maps one placeholder slot of a plan template to its binding
// ordinal. Positional `?` placeholders get sequential ordinals; repeated
// `:name` placeholders share one ordinal, so a single bound argument can
// fill several slots.
type phSlot struct {
	slot int // literal-slot index in the template
	ord  int // binding ordinal (Token.ParamIdx)
}

// compiled is what one query text compiles to under one tokenizer: the
// shape's shared template plus everything of this particular text an
// execution needs, so that binding does no token work at all.
type compiled struct {
	plan    *cachedPlan // shared template via the plan cache
	fixed   []Expr      // per-slot inline-literal expressions; nil at placeholder slots
	phSlots []phSlot    // placeholder slot index → binding ordinal
	names   []string    // binding ordinal → placeholder name ("" for positional)
	nargs   int         // number of distinct binding ordinals
}

// compile is the front half of the query route: it resolves a token
// stream to its plan template — from the cache, or by parsing the
// parameterized stream once and installing it (a spliced query shape
// and its prepared form have identical keys, so they share templates) —
// converts every inline-literal slot to its expression and records
// which slots are binding placeholders. When the text does not compile,
// the original stream is parsed just for its error, so every message is
// exactly what Parse reports for the text.
func (c *planCache) compile(toks []Token, mode byte) (compiled, error) {
	key, lits := planKey(toks, mode)

	plan, ok := c.templates.Get(key)
	if !ok || plan.nlits != len(lits) {
		tmpl, err := ParseTokens(parameterize(toks))
		if err != nil {
			return compiled{}, originalError(toks, err)
		}
		plan = &cachedPlan{tmpl: tmpl, nlits: len(lits)}
		if installed := c.templates.Add(key, plan, 0); installed.nlits == len(lits) {
			plan = installed // racing compile: keep the installed one
		}
	}

	cp := compiled{plan: plan, fixed: make([]Expr, len(lits))}
	for i, t := range lits {
		if t.Type == TokPlaceholder {
			cp.phSlots = append(cp.phSlots, phSlot{slot: i, ord: t.ParamIdx})
			cp.nargs = max(cp.nargs, t.ParamIdx+1)
			continue
		}
		ex, err := litExpr(t)
		if err != nil {
			// A literal the parser would refuse too (a number past
			// int64); the good template stays cached.
			return compiled{}, originalError(toks, err)
		}
		cp.fixed[i] = ex
	}
	if cp.nargs > 0 {
		cp.names = make([]string, cp.nargs)
		for _, m := range cp.phSlots {
			cp.names[m.ord] = lits[m.slot].Name
		}
	}
	return cp, nil
}

// originalError reports why a token stream does not compile in the
// words of the uncached parser: the stream is parsed as written, only
// for the message (offsets and token texts of the original, not of the
// parameterized form). The parser accepts a slot token exactly where it
// accepts the literal it stands for, so the parse fails whenever the
// compile did; cerr covers the case that it somehow does not.
func originalError(toks []Token, cerr error) error {
	if _, err := ParseTokens(toks); err != nil {
		return err
	}
	return cerr
}

// compileAutoSanitized compiles q under the auto-sanitizing tokenizer,
// with the error wording of ParseAutoSanitized.
func (c *planCache) compileAutoSanitized(q core.String) (compiled, error) {
	toks, err := LexAutoSanitize(q)
	if err != nil {
		return compiled{}, err
	}
	cp, err := c.compile(toks, planModeAutoSanitize)
	if err != nil {
		return compiled{}, fmt.Errorf("sqldb: auto-sanitized parse: %w", err)
	}
	return cp, nil
}

// slots is the back half of the query route, and the only place
// arguments meet a template: it returns the values of the template's
// Param slots for one execution — bound[ord] at every placeholder slot
// of binding ordinal ord, the inline literals at the rest. Neither the
// tokenizer nor the parser runs here, and the template is not copied:
// the bound plan reads the slots where the statement holds Params.
func (cp *compiled) slots(bound []Expr) ([]Expr, error) {
	if len(bound) != cp.nargs {
		return nil, fmt.Errorf("sqldb: statement has %d placeholder(s) but %d bound argument(s)", cp.nargs, len(bound))
	}
	if cp.nargs == 0 {
		return cp.fixed, nil
	}
	// Text that is all positional placeholders has the bound arguments
	// as its slots.
	inOrder := len(cp.phSlots) == len(cp.fixed)
	for i, m := range cp.phSlots {
		inOrder = inOrder && m.slot == i && m.ord == i
	}
	if inOrder {
		return bound, nil
	}
	slots := make([]Expr, len(cp.fixed))
	copy(slots, cp.fixed)
	for _, m := range cp.phSlots {
		slots[m.slot] = bound[m.ord]
	}
	return slots, nil
}

// boundStmt is a single-table statement bound to one schema generation:
// every name it holds is resolved to a row position. It is immutable,
// and shared by every execution that finds its engine at gen.
type boundStmt struct {
	gen   uint64
	names []string // SELECT: output column names
	// cols are SELECT's projected positions, INSERT's target position
	// per column, and UPDATE's per assignment — -1 for a column the
	// table lacks, reported when the execution reaches that assignment,
	// after any earlier assignment's bad value.
	cols  []int
	where *boundExpr  // nil matches every row
	conj  []probeConj // the WHERE's AND-spine conjuncts on the table's columns
	order int         // SELECT: ORDER BY position; -1 for none
}

// fits reports whether b may execute a statement with targets INSERT
// columns or UPDATE assignments on an engine at gen. The Figure 4
// rewrite only appends companions, so a plan bound for the rewritten
// statement also serves the template it came from.
func (b *boundStmt) fits(gen uint64, targets int) bool {
	return b != nil && b.gen == gen && len(b.cols) >= targets
}

// bindStmt is the binder: it resolves every name of a single-table
// statement against t, reporting the first that does not resolve in the
// order the engine always has (SELECT: items, WHERE, ORDER BY; INSERT:
// columns; UPDATE and DELETE: WHERE). Its executions fill nslots slots.
func bindStmt(stmt Statement, t *table, nslots int, gen uint64) (*boundStmt, error) {
	b := &boundStmt{gen: gen, order: -1}
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
		if s.Star {
			b.names, b.cols = make([]string, len(t.cols)), make([]int, len(t.cols))
			for i, c := range t.cols {
				b.names[i], b.cols[i] = c.Name, i
			}
		} else {
			b.names, b.cols = make([]string, len(s.Items)), make([]int, len(s.Items))
			for i, it := range s.Items {
				ci, err := t.resolveCol(it.Col)
				if err != nil {
					return nil, err
				}
				b.names[i], b.cols[i] = t.outColName(it.Col, ci), ci
			}
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
	if b.where, err = bindWhere(where, t, nslots); err != nil {
		return nil, err
	}
	b.conj = t.probeConjuncts(where, nil)
	switch s := stmt.(type) {
	case *Select:
		if s.OrderBy != "" {
			if b.order, err = t.resolveCol(s.OrderBy); err != nil {
				return nil, err
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
