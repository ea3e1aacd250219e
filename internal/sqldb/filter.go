package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// PolicyColPrefix prefixes the shadow column that stores the serialized
// policy annotation for a data column (Figure 4: "for a CREATE TABLE
// query, the filter adds an additional policy column to store the
// serialized policy for each data column").
const PolicyColPrefix = "__policy_"

func policyColName(col string) string { return PolicyColPrefix + strings.ToLower(col) }

// IsPolicyColumn reports whether a column name is a shadow policy column.
func IsPolicyColumn(name string) bool { return strings.HasPrefix(name, PolicyColPrefix) }

// isPolicyRef is IsPolicyColumn for possibly table-qualified references:
// "reviews.__policy_body" is a policy reference just like
// "__policy_body".
func isPolicyRef(name string) bool {
	if _, col, ok := splitQualifier(name); ok {
		return IsPolicyColumn(col)
	}
	return IsPolicyColumn(name)
}

// policyCompanionName maps a data-column reference to its shadow policy
// column, preserving any table qualifier: "title" → "__policy_title",
// "papers.title" → "papers.__policy_title".
func policyCompanionName(col string) string {
	if qual, c, ok := splitQualifier(col); ok {
		return qual + "." + policyColName(c)
	}
	return policyColName(col)
}

// aggInner splits an aggregate output column name "AGG(inner)" into its
// parts; ok is false for plain column names.
func aggInner(name string) (agg, inner string, ok bool) {
	i := strings.IndexByte(name, '(')
	if i <= 0 || !strings.HasSuffix(name, ")") {
		return "", "", false
	}
	switch up := strings.ToUpper(name[:i]); up {
	case "COUNT", "SUM", "MIN", "MAX", "PUNION":
		return up, name[i+1 : len(name)-1], true
	}
	return "", "", false
}

// InjectionError reports a SQL injection assertion failure, pointing at
// the offending character range of the query.
type InjectionError struct {
	Strategy string
	Query    string
	Start    int
	End      int
}

func (e *InjectionError) Error() string {
	// Clamp both ends into the query's bounds: assertion sites report
	// offsets from lexers and span walks, and a hostile or truncated
	// query must render a diagnostic, never panic the error path.
	clamp := func(i int) int {
		if i < 0 {
			return 0
		}
		if i > len(e.Query) {
			return len(e.Query)
		}
		return i
	}
	start, end := clamp(e.Start), clamp(e.End)
	if start > end {
		start = end
	}
	return fmt.Sprintf("sqldb: SQL injection assertion (%s) rejected query: untrusted bytes %d..%d (%q)",
		e.Strategy, e.Start, e.End, e.Query[start:end])
}

// ResinSQLFilter is the default filter object RESIN attaches to the
// function used to issue SQL queries (§3.4.1). It always performs policy
// persistence — rewriting CREATE TABLE to add policy columns, INSERT and
// UPDATE to store each value's serialized policy, and SELECT to fetch and
// re-attach policies. The two injection defenses of §5.3 are assertions
// the application enables on top:
//
//   - RequireSanitizedMarkers (strategy 1): reject queries containing
//     characters with UntrustedData but not SQLSanitized;
//   - RejectTaintedStructure (strategy 2): tokenize the final query and
//     reject untrusted characters outside string/number literal values
//     (keywords, identifiers, operators, whitespace, comments).
type ResinSQLFilter struct {
	mu                sync.Mutex
	requireSanitized  bool
	rejectTaintedStru bool
	autoSanitize      bool
	plans             atomic.Pointer[planCache]
}

// planner returns the filter's plan cache, creating it on first use (so
// a zero-value ResinSQLFilter works). The hot path is one atomic load —
// no lock on the per-query route to the cache.
func (f *ResinSQLFilter) planner() *planCache {
	if p := f.plans.Load(); p != nil {
		return p
	}
	p := newPlanCache()
	if f.plans.CompareAndSwap(nil, p) {
		return p
	}
	return f.plans.Load()
}

// PlanStats reports the plan cache's hit/miss/invalidation counters.
func (f *ResinSQLFilter) PlanStats() PlanCacheStats { return f.planner().stats() }

// PlanCacheReset empties the plan cache (tests and benchmarks).
func (f *ResinSQLFilter) PlanCacheReset() { f.planner().reset() }

// RequireSanitizedMarkers enables/disables the strategy-1 assertion.
func (f *ResinSQLFilter) RequireSanitizedMarkers(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requireSanitized = on
}

// RejectTaintedStructure enables/disables the strategy-2 assertion.
func (f *ResinSQLFilter) RejectTaintedStructure(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rejectTaintedStru = on
}

// AutoSanitizeUntrusted enables the §5.3 variation on strategy 2: instead
// of rejecting queries whose structure is tainted, the tokenizer keeps
// contiguous untrusted bytes in one value token, so untrusted data cannot
// affect the command structure of the query at all. It subsumes the
// reject-based strategies for injection (they may still be enabled
// together; the checks run first).
func (f *ResinSQLFilter) AutoSanitizeUntrusted(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.autoSanitize = on
}

func (f *ResinSQLFilter) flags() (s1, s2, auto bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requireSanitized, f.rejectTaintedStru, f.autoSanitize
}

// FilterFunc interposes on the query function: args is {query
// core.String, engine *Engine, stmt *Stmt, bound *boundArgs} — the
// compiled form of the query text (every query is prepared, explicitly or
// by DB.Query itself) and the arguments bound to its placeholders. The
// enabled assertions judge the text by the verdicts computed when it
// was compiled; bound arguments travel as values, never as text, so the
// assertions skip them by construction. The leading query is there for
// other filters on the channel; this one reads the text from the
// statement. On success it answers {result *Result} in args itself.
func (f *ResinSQLFilter) FilterFunc(ch *core.Channel, args []any) ([]any, error) {
	if len(args) != 4 {
		return nil, fmt.Errorf("sqldb: filter expects (query, engine, statement, bound), got %d args", len(args))
	}
	engine, ok := args[1].(*Engine)
	if !ok {
		return nil, fmt.Errorf("sqldb: filter arg 1 must be *Engine, got %T", args[1])
	}
	st, ok := args[2].(*Stmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: filter arg 2 must be *Stmt, got %T", args[2])
	}
	bound, ok := args[3].(*boundArgs)
	if !ok {
		return nil, fmt.Errorf("sqldb: filter arg 3 must be bound arguments, got %T", args[3])
	}

	s1, s2, auto := f.flags()
	var verdict error
	switch {
	case s1 && st.s1 != nil:
		verdict = st.s1
	case s2 && st.s2 != nil:
		verdict = st.s2
	}
	if verdict != nil {
		return nil, &core.AssertionError{Context: ch.Context(), Op: "export_check", Err: verdict}
	}
	plan, slots, err := st.bind(bound.exprs, auto)
	if err != nil {
		return nil, err
	}
	res, err := executePlanned(f.planner(), plan, engine, plan.stmt, slots, true)
	if err != nil {
		return nil, err
	}
	args[0] = res
	return args[:1], nil
}

// injectionVerdicts judges a query text by both §5.3 assertions at
// once, given its standard token stream (or the error the standard
// lexer gave): s1 is non-nil when the text holds characters with
// UntrustedData but not SQLSanitized (strategy 1), s2 when untrusted
// bytes fall outside the value literals or keep the text from
// tokenizing at all (strategy 2). Which of them an execution enforces
// is the filter's business.
func injectionVerdicts(q core.String, toks []Token, lexErr error) (s1, s2 error) {
	if start, end, found := sanitize.UnsanitizedSQL(q); found {
		s1 = &InjectionError{Strategy: "sanitized-markers", Query: q.Raw(), Start: start, End: end}
	}
	if s2 = lexErr; s2 == nil {
		s2 = checkTaintedStructureTokens(q, toks)
	}
	return s1, s2
}

// checkTaintedStructureTokens implements strategy 2 over the query's
// standard token stream: every byte of the query that is not inside a
// string or number literal — keywords, identifiers, operators,
// punctuation, whitespace, comments — must carry no UntrustedData
// policy.
func checkTaintedStructureTokens(q core.String, toks []Token) error {
	// valueEnd returns the end of the value literal holding byte i, or
	// -1 when i is outside every string and number literal.
	valueEnd := func(i int) int {
		for _, t := range toks {
			if (t.Type == TokString || t.Type == TokNumber) && i >= t.Start && i < t.End {
				return t.End
			}
		}
		return -1
	}
	var bad *InjectionError
	q.EachTaintedSpan(func(start, end int, ps *core.PolicySet) error { //nolint:errcheck
		if bad != nil || !ps.Any(sanitize.IsUntrusted) {
			return nil
		}
		for i := start; i < end; {
			ve := valueEnd(i)
			if ve < 0 {
				bad = &InjectionError{Strategy: "tainted-structure", Query: q.Raw(), Start: i, End: end}
				return nil
			}
			i = ve
		}
		return nil
	})
	if bad != nil {
		return bad
	}
	return nil
}

// Cell is one result cell with its re-attached policies.
type Cell struct {
	Null  bool
	IsInt bool
	Int   core.Int
	Str   core.String
}

// Text renders the cell as a tracked string (integer cells render their
// digits carrying the integer's policy set; NULL renders empty).
func (c Cell) Text() core.String {
	switch {
	case c.Null:
		return core.String{}
	case c.IsInt:
		return c.Int.ToString()
	default:
		return c.Str
	}
}

// Result is a query result with policies attached to each cell.
type Result struct {
	Columns  []string
	Rows     [][]Cell
	Affected int
}

// ColumnIndex returns the index of the named column, or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Get returns the cell at row i, column name. It returns a NULL cell for
// unknown columns.
func (r *Result) Get(i int, name string) Cell {
	ci := r.ColumnIndex(name)
	if ci < 0 || i < 0 || i >= len(r.Rows) {
		return Cell{Null: true}
	}
	return r.Rows[i][ci]
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// stmtPolicyTables names the tables whose policy-column sets the
// rewrite of stmt consults — tables[:n]; n is 0 for statements
// rewritten without them. A join consults both sides (qualified
// references resolve against either table's shadow columns). An array,
// so that asking costs an execution no allocation.
func stmtPolicyTables(stmt Statement) (tables [2]string, n int) {
	switch s := stmt.(type) {
	case *Insert:
		return [2]string{s.Table}, 1
	case *Update:
		return [2]string{s.Table}, 1
	case *Select:
		switch {
		case s.Star:
		case s.Join != nil:
			return [2]string{s.Table, s.Join.Table}, 2
		default:
			return [2]string{s.Table}, 1
		}
	}
	return tables, 0
}

// executeWithPolicies is executePlanned for a statement without a plan
// (a hand-built AST: diagnostics and the reference harnesses): bound on
// the fly, nothing remembered.
func executeWithPolicies(engine *Engine, stmt Statement) (*Result, error) {
	return executePlanned(nil, nil, engine, stmt, nil, true)
}

// executePlanned executes stmt — the plan's statement with its Param
// slots filled from slots, or, without a plan, a statement of its own —
// on both arms of the query route. With attach (the RESIN filter) the
// statement is rewritten to persist and fetch policy columns and the
// policies are re-attached to the result (Figure 4); without it (the
// untracked arm) the same bound plan runs and the result keeps the
// columns the statement itself names, which the rewrite — it only
// appends — leaves in front. Everything derived from the schema alone
// comes from the plan's bound plan, rebuilt only when the engine's
// schema generation differs from the one it was built against.
func executePlanned(plans *planCache, plan *cachedPlan, engine *Engine, stmt Statement, slots []Expr, attach bool) (*Result, error) {
	ps, fresh := boundPlanFor(plans, plan, engine, stmt)
	run := ps.stmt
	if attach {
		// INSERT and UPDATE annotate the execution's values through the
		// bound write rewrite, and CREATE TABLE grows its shadow columns.
		var err error
		switch s := stmt.(type) {
		case *Insert:
			run, err = ps.write.insert(s, slots)
		case *Update:
			run, err = ps.write.update(s, slots)
		case *CreateTable:
			run = rewriteCreate(s)
		}
		if err != nil {
			return nil, err
		}
	}
	raw, affected, b, err := engine.execute(run, slots, ps.bound)
	if err != nil {
		return nil, err
	}
	if fresh {
		ps.bound = b
		if raw != nil {
			ps.shape = deriveShape(raw.cols, true)
		}
		plan.publish(ps, engine)
	}
	sel, isSelect := stmt.(*Select)
	if !isSelect {
		return &Result{Affected: affected}, nil
	}
	shape := &ps.shape
	switch {
	case !attach:
		// apply reads only len(raw.cols) columns of each row, so trimming
		// the column list drops the companions.
		if !sel.Star {
			raw.cols = raw.cols[:len(sel.Items)]
		}
		d := deriveShape(raw.cols, false)
		shape = &d
	case !slices.Equal(raw.cols, shape.cols):
		// Not the column list the shape was derived from (a DDL slipped
		// in between the generation read and the execution): never
		// trust the cache, pair these columns afresh.
		d := deriveShape(raw.cols, true)
		shape = &d
	}
	return shape.apply(raw, sel.Table)
}

// boundPlanFor returns the plan's bound plan for the engine's schema
// generation, or a fresh one the caller completes from its execution and
// publishes (fresh is true). Without a plan every one is fresh and none
// is published.
func boundPlanFor(plans *planCache, plan *cachedPlan, engine *Engine, stmt Statement) (ps *planSchema, fresh bool) {
	gen := engine.SchemaGen()
	if plan != nil {
		if ps = plan.schema.Load(); ps != nil && ps.gen == gen {
			return ps, false
		}
		if ps != nil {
			plans.invalidations.Add(1)
		}
	}
	ps = &planSchema{gen: gen, stmt: stmt}
	if tables, n := stmtPolicyTables(stmt); n > 0 {
		ps.pcols = policyColSet(engine, tables[:n])
	}
	switch s := stmt.(type) {
	case *Select:
		ps.stmt = rewriteSelect(s, ps.pcols)
	case *Insert, *Update:
		ps.write = bindWrite(s, ps.pcols)
	}
	return ps, true
}

// RewriteWithPolicies returns the statement the RESIN filter hands the
// engine in place of stmt: CREATE TABLE grows a shadow policy column
// per data column, INSERT and UPDATE store each value's serialized
// policy, SELECT fetches policy columns alongside data columns. DROP,
// DELETE, and the index statements pass through unchanged. The rewrite
// only ever appends — items, columns, values, assignments — so the
// statement it was given is a prefix of what it returns. The worked
// Figure 4 example in docs/SQL.md is pinned to this function's output
// by a test.
func RewriteWithPolicies(engine *Engine, stmt Statement) (Statement, error) {
	var pcols map[string]bool
	if tables, n := stmtPolicyTables(stmt); n > 0 {
		pcols = policyColSet(engine, tables[:n])
	}
	switch s := stmt.(type) {
	case *CreateTable:
		return rewriteCreate(s), nil
	case *Insert:
		return bindWrite(s, pcols).insert(s, nil)
	case *Select:
		return rewriteSelect(s, pcols), nil
	case *Update:
		return bindWrite(s, pcols).update(s, nil)
	default: // DropTable, Delete, CreateIndex, DropIndex need no rewriting.
		return stmt, nil
	}
}

// rewriteCreate adds one TEXT policy column per data column.
func rewriteCreate(s *CreateTable) *CreateTable {
	cols := make([]ColumnDef, 0, 2*len(s.Cols))
	cols = append(cols, s.Cols...)
	for _, c := range s.Cols {
		cols = append(cols, ColumnDef{Name: policyColName(c.Name), Type: ColText})
	}
	return &CreateTable{Table: s.Table, Cols: cols}
}

// nullLit is the shadow value of an untainted one. NullLit has no
// fields, so sharing it is safe.
var nullLit Expr = &NullLit{}

// annotationFor serializes the policy spans of a literal's stored form.
// It returns the expression to store in the policy column, the canonical
// annotation string; table and col name the destination cell for lineage.
func annotationFor(e Expr, table, col string) (Expr, error) {
	var tracked core.String
	switch v := e.(type) {
	case *StringLit:
		tracked = v.Val
	case *IntLit:
		tracked = v.Src
	case *NullLit:
		return nullLit, nil
	default:
		return nil, fmt.Errorf("sqldb: expected literal, got %T", e)
	}
	ann, err := core.EncodeSpans(tracked)
	if err != nil {
		return nil, err
	}
	if ann == nil {
		return nullLit, nil
	}
	if core.LineageEnabled() {
		core.LineageRecordValue(tracked, "sql-store", lineageColNode(table, col))
	}
	return &StringLit{Val: core.NewString(core.AnnotationString(ann))}, nil
}

// lineageColNode names a table cell for lineage, e.g. "sql:users.password".
// Qualified references keep their own qualifier. Only called with the
// lineage gate on.
func lineageColNode(table, col string) string {
	lc := strings.ToLower(col)
	if table == "" || strings.Contains(lc, ".") {
		return "sql:" + lc
	}
	return "sql:" + strings.ToLower(table) + "." + lc
}

// recordCellLineage reports a shadow-column load for a policy-carrying
// result cell. Only called with the lineage gate on.
func recordCellLineage(c Cell, node string) {
	switch {
	case c.Null:
	case c.IsInt:
		core.LineageRecord(c.Int.Policies(), "sql-load", node)
	default:
		core.LineageRecordValue(c.Str, "sql-load", node)
	}
}

// policyColSet returns the lower-cased policy column names present in
// the tables' schemas (it may be empty, if a table was created while
// tracking was disabled). Each column appears under both its bare name
// and its table-qualified form, so the rewrite can check companions for
// qualified and unqualified references alike with one map. One schema
// fetch per table serves the whole statement.
func policyColSet(engine *Engine, tables []string) map[string]bool {
	out := make(map[string]bool)
	for _, table := range tables {
		schema, err := engine.Schema(table)
		if err != nil {
			continue
		}
		tl := strings.ToLower(table)
		for _, c := range schema {
			name := strings.ToLower(c.Name)
			if strings.HasPrefix(name, PolicyColPrefix) {
				out[name] = true
				out[tl+"."+name] = true
			}
		}
	}
	return out
}

// writeRewrite is the schema half of an INSERT's or UPDATE's Figure 4
// rewrite, fixed once per bound plan (planSchema.write): which written
// columns have a shadow column, and its name. An execution then only
// serializes its values' annotations (annotationFor). Immutable once
// built; the rewritten INSERTs share cols.
type writeRewrite struct {
	aug    []int    // positions of the written columns with a shadow column
	shadow []string // their shadow columns' names, parallel to aug
	cols   []string // INSERT: the column list with the shadow columns appended
}

// bindWrite builds the write rewrite of an INSERT or UPDATE against the
// policy columns of its table.
func bindWrite(stmt Statement, pcols map[string]bool) *writeRewrite {
	var names []string
	switch s := stmt.(type) {
	case *Insert:
		names = s.Columns
	case *Update:
		for _, a := range s.Set {
			names = append(names, a.Column)
		}
	}
	w := &writeRewrite{}
	for i, c := range names {
		if pc := policyColName(c); !IsPolicyColumn(c) && pcols[pc] {
			w.aug = append(w.aug, i)
			w.shadow = append(w.shadow, pc)
		}
	}
	if _, ok := stmt.(*Insert); ok {
		w.cols = append(append(make([]string, 0, len(names)+len(w.shadow)), names...), w.shadow...)
	}
	return w
}

// insert augments each row with the serialized policy of each value
// that has a shadow column.
func (w *writeRewrite) insert(s *Insert, slots []Expr) (*Insert, error) {
	n := len(w.cols)
	flat := make([]Expr, 0, len(s.Rows)*n) // every row's expressions, one allocation
	rows := make([][]Expr, len(s.Rows))
	for r, row := range s.Rows {
		flat = append(flat, row...)
		for _, i := range w.aug {
			ann, err := annotationFor(slotExpr(row[i], slots), s.Table, s.Columns[i])
			if err != nil {
				return nil, err
			}
			flat = append(flat, ann)
		}
		rows[r] = flat[r*n : (r+1)*n : (r+1)*n]
	}
	return &Insert{Table: s.Table, Columns: w.cols, Rows: rows}, nil
}

// update augments each SET clause that has a shadow column with its
// serialized policy.
func (w *writeRewrite) update(s *Update, slots []Expr) (*Update, error) {
	set := append(make([]Assignment, 0, len(s.Set)+len(w.aug)), s.Set...)
	for j, i := range w.aug {
		a := s.Set[i]
		ann, err := annotationFor(slotExpr(a.Value, slots), s.Table, a.Column)
		if err != nil {
			return nil, err
		}
		set = append(set, Assignment{Column: w.shadow[j], Value: ann})
	}
	return &Update{Table: s.Table, Set: set, Where: s.Where}, nil
}

// rewriteSelect fetches a policy companion alongside each selected data
// item; the result shape later attaches the de-serialized policies to
// each cell and hides the companions from the visible result. Plain
// items get their shadow column (span-preserving). In aggregate queries
// every value-carrying item instead gets a PUNION over the shadow column
// — the engine-level carrier of "an aggregate output carries the union
// of its inputs' policy sets". COUNT(*) aggregates row presence, not
// values, and carries nothing.
func rewriteSelect(s *Select, pcols map[string]bool) *Select {
	if s.Star {
		return s
	}
	sel := *s
	items := append([]SelectItem(nil), s.Items...)
	grouped := s.grouped()
	for _, it := range s.Items {
		switch {
		case it.Agg == "PUNION" || (it.Agg != "" && it.Star):
			// PUNION is already a policy carrier; COUNT(*) has no inputs.
		case isPolicyRef(it.Col) || !pcols[strings.ToLower(policyCompanionName(it.Col))]:
			// Policy columns stay opaque; columns without a shadow column
			// (created untracked) have no policies to fetch.
		case grouped:
			items = append(items, SelectItem{Agg: "PUNION", Col: policyCompanionName(it.Col)})
		default:
			items = append(items, SelectItem{Col: policyCompanionName(it.Col)})
		}
	}
	sel.Items = items
	return &sel
}

// shapeCol is one visible column of a result shape.
type shapeCol struct {
	raw    int  // index of the column in the engine's rows
	policy int  // index of its policy companion there; -1 for none
	union  bool // the companion is a PUNION carrier: whole-value union, not spans
}

// resultShape says how an engine result becomes a tracked one: which of
// its columns are visible and which hidden companion carries each
// visible column's policies. It is a pure function of the engine's
// column list (cols), so a plan keeps it across executions and re-checks
// only that the list is still the one it was derived from. Immutable
// once derived; names becomes Result.Columns and is shared by every
// result the shape is applied to.
type resultShape struct {
	cols   []string   // the engine column list this was derived from
	names  []string   // visible column names
	vis    []shapeCol // per visible column; nil for the identity shape
	attach bool
}

// deriveShape pairs the columns of an engine result. With attach false
// every column is visible and none carries policies (the identity
// shape: nothing to pair). With attach true a policy companion is
// consumed as an annotation only when the data column it was fetched
// for is also part of the result; a policy column selected on its own
// is returned as opaque data. Pairing is driven from the data side: each
// data column computes the companion name the rewrite would have added
// — the PUNION form first (grouped results carry unions, non-grouped
// results span companions; one query never mixes the two for a column)
// — and claims it by name.
func deriveShape(cols []string, attach bool) resultShape {
	sh := resultShape{cols: cols, attach: attach}
	if !attach {
		sh.names = cols
		return sh
	}
	lower := make([]string, len(cols))
	colPos := make(map[string]int, len(cols))
	for i, c := range cols {
		lower[i] = strings.ToLower(c)
		colPos[lower[i]] = i
	}
	companions := make([]shapeCol, len(cols))
	claimed := make([]bool, len(cols))
	claim := func(i int, name string, union bool) bool {
		pi, found := colPos[name]
		if found {
			companions[i] = shapeCol{raw: i, policy: pi, union: union}
			claimed[pi] = true
		}
		return found
	}
	for i, lc := range lower {
		companions[i] = shapeCol{raw: i, policy: -1}
		if agg, inner, ok := aggInner(lc); ok {
			if agg == "PUNION" || inner == "*" || isPolicyRef(inner) {
				continue // policy carriers and COUNT(*) pair with nothing
			}
			claim(i, "punion("+strings.ToLower(policyCompanionName(inner))+")", true)
			continue
		}
		if isPolicyRef(lc) {
			continue // policy columns are never a pairing's data side
		}
		comp := strings.ToLower(policyCompanionName(lc))
		if !claim(i, "punion("+comp+")", true) {
			claim(i, comp, false)
		}
	}
	for i, c := range cols {
		if claimed[colPos[lower[i]]] {
			continue // a claimed name hides every column that bears it
		}
		sh.names = append(sh.names, c)
		sh.vis = append(sh.vis, companions[i])
	}
	return sh
}

// apply builds the tracked result of raw, whose column list is the one
// the shape was derived from: the visible cells, each with the policies
// its companion cell serializes. tbl qualifies lineage nodes.
func (sh *resultShape) apply(raw *rawResult, tbl string) (*Result, error) {
	// Lineage nodes per visible column, resolved once per result; nil
	// keeps the disabled path at exactly one gate check.
	var linNodes []string
	if sh.attach && core.LineageEnabled() {
		linNodes = make([]string, len(sh.names))
		for vi, name := range sh.names {
			linNodes[vi] = lineageColNode(tbl, name)
		}
	}
	// Batched shadow-policy decode: each distinct annotation in the
	// result set is compiled (JSON-parsed, policies canonicalized, sets
	// interned) exactly once — core.CompileAnnotationString memoizes
	// globally and the local map short-circuits even that lookup — then applied
	// per cell. A SELECT returning N rows over a handful of distinct
	// policies does O(distinct annotations) decodes, not O(N·cols); a
	// single row has nothing to batch and goes straight to the memo.
	res := &Result{Columns: sh.names}
	var compiled map[string]*core.CompiledAnnotation
	compileAnn := func(ann string) (*core.CompiledAnnotation, error) {
		if c, ok := compiled[ann]; ok {
			return c, nil
		}
		c, err := core.CompileAnnotationString(ann)
		if err != nil || len(raw.rows) < 2 {
			return c, err
		}
		if compiled == nil {
			compiled = make(map[string]*core.CompiledAnnotation, 4)
		}
		compiled[ann] = c
		return c, nil
	}
	// PUNION cells decode once per distinct joined value: split on the
	// separator, compile each annotation, union the per-span policy sets
	// into one whole-value set (interned operands make repeats cheap).
	var unionSets map[string]*core.PolicySet
	unionFor := func(cell string) (*core.PolicySet, error) {
		if s, ok := unionSets[cell]; ok {
			return s, nil
		}
		var set *core.PolicySet
		for _, part := range strings.Split(cell, punionSep) {
			c, err := compileAnn(part)
			if err != nil {
				return nil, err
			}
			set = set.Union(c.PolicySet())
		}
		if unionSets == nil {
			unionSets = make(map[string]*core.PolicySet, 4)
		}
		unionSets[cell] = set
		return set, nil
	}
	if len(raw.rows) > 0 {
		res.Rows = make([][]Cell, len(raw.rows))
	}
	n := len(sh.names)
	cells := make([]Cell, len(raw.rows)*n) // every row's cells, one allocation
	for ri, row := range raw.rows {
		out := cells[ri*n : (ri+1)*n : (ri+1)*n]
		for vi := range out {
			col := shapeCol{raw: vi, policy: -1}
			if sh.vis != nil {
				col = sh.vis[vi]
			}
			v := raw.at(row, col.raw)
			var ann value // the companion's annotation; empty for none
			if col.policy >= 0 {
				ann = raw.at(row, col.policy)
			}
			var c Cell
			if annText := ann.text(); annText != "" {
				if col.union {
					set, err := unionFor(annText)
					if err != nil {
						return nil, err
					}
					c = makeCellUnion(v, set)
				} else {
					comp, err := compileAnn(annText)
					if err != nil {
						return nil, err
					}
					c = makeCell(v, comp)
				}
			} else {
				c = makeCell(v, nil)
			}
			if linNodes != nil {
				recordCellLineage(c, linNodes[vi])
			}
			out[vi] = c
		}
		res.Rows[ri] = out
	}
	return res, nil
}

// makeCell builds a tracked cell from a stored value and its optional
// compiled policy annotation. The compiled annotation is shared across
// every cell (and every query) storing the same annotation bytes, so
// the per-cell work is a span attach over already-interned policy sets
// — the pointer-comparison fast paths — never JSON parsing or policy
// instantiation.
func makeCell(v value, comp *core.CompiledAnnotation) Cell {
	switch {
	case v.isNull():
		return Cell{Null: true}
	case !v.isInt():
		return Cell{Str: comp.Apply(v.text())}
	}
	n := core.NewInt(v.num())
	if comp == nil {
		return Cell{IsInt: true, Int: n}
	}
	// The annotation was stored against the digit string; merge all span
	// policies onto the integer value.
	if tracked := comp.Apply(v.String()); tracked.IsTainted() {
		n = n.WithPolicy(tracked.Policies().Policies()...)
	}
	return Cell{IsInt: true, Int: n}
}

// makeCellUnion builds a tracked cell carrying a whole-value policy set
// — the attach path for aggregate outputs, whose policies are a union
// of the group's inputs with no meaningful byte positions.
func makeCellUnion(v value, set *core.PolicySet) Cell {
	if v.isNull() {
		return Cell{Null: true}
	}
	if v.isInt() {
		n := core.NewInt(v.num())
		if set.Len() > 0 {
			n = n.WithPolicy(set.Policies()...)
		}
		return Cell{IsInt: true, Int: n}
	}
	s := core.NewString(v.text())
	if set.Len() > 0 {
		s = s.WithPolicySet(set)
	}
	return Cell{Str: s}
}

// DB couples an engine with its RESIN SQL channel. Applications issue
// queries through DB.Query; with tracking enabled the query passes through
// the channel's filter chain (injection assertions + policy persistence),
// with tracking disabled it executes directly against the engine.
type DB struct {
	rt      *core.Runtime
	channel *core.Channel
	filter  *ResinSQLFilter

	// engine is fixed for the DB's lifetime (Tx.Commit merges row
	// versions into it rather than swapping it), so reading it takes no
	// lock.
	engine *Engine
	// txMu guards integrity: it serializes integrity-assertion
	// registration and Close against commits, which read the assertion
	// list.
	txMu      sync.RWMutex
	integrity []namedAssertion
}

// Open creates an empty database bound to rt, with the default RESIN SQL
// filter installed on its query channel.
func Open(rt *core.Runtime) *DB {
	db := &DB{rt: rt, engine: NewEngine(), filter: &ResinSQLFilter{}}
	db.channel = core.NewChannel(rt, core.KindSQL, db.filter)
	return db
}

// Channel returns the SQL boundary channel (for adding context or extra
// filters).
func (db *DB) Channel() *core.Channel { return db.channel }

// Filter returns the RESIN SQL filter for configuring the injection
// assertions.
func (db *DB) Filter() *ResinSQLFilter { return db.filter }

// Engine returns the underlying engine (tests and benchmarks use it to
// bypass the boundary).
func (db *DB) Engine() *Engine { return db.engine }

// Query prepares and executes one statement built as a tracked string —
// Prepare followed by Stmt.Query, so the text meets the same assertions
// and the same binder as a prepared statement's. args bind the
// statement's placeholders, by position or as Named values — tracked
// values (core.String, core.Int) keep their policies, plain Go values
// bind untainted, and no argument is ever spliced into the query text.
func (db *DB) Query(q core.String, args ...any) (*Result, error) {
	st, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	return st.Query(args...)
}

// QueryRaw is a convenience wrapper for untracked query text.
func (db *DB) QueryRaw(q string, args ...any) (*Result, error) {
	return db.Query(core.NewString(q), args...)
}

// Exec runs a statement and returns only the number of rows affected —
// the right-sized result for INSERT/UPDATE/DELETE callers that were
// discarding the *Result.
func (db *DB) Exec(q core.String, args ...any) (int, error) {
	res, err := db.Query(q, args...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// MustExec runs a query and panics on error; used by application setup
// code for schema creation.
func (db *DB) MustExec(q string) *Result {
	res, err := db.QueryRaw(q)
	if err != nil {
		panic(fmt.Sprintf("sqldb: %s: %v", q, err))
	}
	return res
}
