package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// TestPlanCacheHitSkipsParser: remembered text is neither tokenized nor
// parsed again, and text with a new literal is tokenized and parsed
// exactly once.
func TestPlanCacheHitSkipsParser(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, name TEXT)")
	db.MustExec("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")

	query := func(q, want string) (lexes, parses uint64) {
		t.Helper()
		lex0, parse0 := TokenizeCount(), ParseCount()
		res, err := db.QueryRaw(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Get(0, "name").Str.Raw() != want {
			t.Errorf("%s: got %d rows, want name %q", q, res.Len(), want)
		}
		return TokenizeCount() - lex0, ParseCount() - parse0
	}
	query("SELECT name FROM t WHERE id = 1", "a") // remembers the text
	before := db.Filter().PlanStats()
	if l, p := query("SELECT name FROM t WHERE id = 1", "a"); l != 0 || p != 0 {
		t.Errorf("repeated text: %d tokenizes, %d parses, want 0 and 0", l, p)
	}
	if l, p := query("SELECT name FROM t WHERE id = 2", "b"); l != 1 || p != 1 {
		t.Errorf("new literal: %d tokenizes, %d parses, want 1 and 1", l, p)
	}
	if stats := db.Filter().PlanStats(); stats.Hits != before.Hits+1 || stats.Misses != before.Misses+1 {
		t.Errorf("stats moved %+v -> %+v, want one hit and one miss", before, stats)
	}
}

func TestPlanCacheBindsDistinctLiterals(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, name TEXT)")
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t (id, name) VALUES (%d, 'name-%d')", i, i))
	}
	for i := 0; i < 10; i++ {
		res, err := db.QueryRaw(fmt.Sprintf("SELECT name FROM t WHERE id = %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("id=%d: got %d rows", i, res.Len())
		}
		if got, want := res.Get(0, "name").Str.Raw(), fmt.Sprintf("name-%d", i); got != want {
			t.Errorf("id=%d: name %q, want %q", i, got, want)
		}
	}
}

func TestPlanCachePreservesTaintThroughBinding(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	p := &passwordPolicy{Email: "plan@test"}

	insert := func(val string) {
		q := core.Concat(
			core.NewString("INSERT INTO t (a) VALUES ("),
			sanitize.SQLQuote(core.NewStringPolicy(val, p)),
			core.NewString(")"),
		)
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	insert("first")
	insert("second")

	res, err := db.QueryRaw("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("got %d rows", res.Len())
	}
	for i := 0; i < res.Len(); i++ {
		cell := res.Get(i, "a")
		if !cell.Str.IsTainted() {
			t.Errorf("row %d lost its policy through the plan-cached INSERT", i)
		}
	}
}

func TestPlanCacheInvalidatedByDropCreate(t *testing.T) {
	db := openDB(t)

	// Create the table WITHOUT policy columns (bypassing the filter), so
	// the cached SELECT plan snapshots an empty policy-column set.
	if _, _, err := db.Engine().ExecuteRaw(&CreateTable{
		Table: "t", Cols: []ColumnDef{{Name: "a", Type: ColText}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRaw("SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}

	// DROP/CREATE the same-named table through the filter: now it has
	// policy columns, and the cached plan's schema conclusions are stale.
	db.MustExec("DROP TABLE t")
	db.MustExec("CREATE TABLE t (a TEXT)")
	q := core.Concat(
		core.NewString("INSERT INTO t (a) VALUES ("),
		sanitize.SQLQuote(core.NewStringPolicy("secret", &passwordPolicy{Email: "x@y"})),
		core.NewString(")"),
	)
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}

	res, err := db.QueryRaw("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("got %d rows", res.Len())
	}
	if !res.Get(0, "a").Str.IsTainted() {
		t.Error("stale plan: SELECT did not fetch the new policy column after DROP/CREATE")
	}
	if stats := db.Filter().PlanStats(); stats.Invalidations == 0 {
		t.Errorf("expected a plan invalidation after DROP/CREATE, got %+v", stats)
	}
}

func TestPlanCacheLimitStaysLiteral(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT)")
	db.MustExec("INSERT INTO t (id) VALUES (1), (2), (3)")
	for want := 1; want <= 3; want++ {
		res, err := db.QueryRaw(fmt.Sprintf("SELECT id FROM t LIMIT %d", want))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Errorf("LIMIT %d returned %d rows (limit folded into a stale plan?)", want, res.Len())
		}
	}
}

func TestPlanCacheErrorMessagesMatchUncachedParser(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	_, planErr := db.QueryRaw("SELECT FROM t WHERE a = 'x'")
	if planErr == nil {
		t.Fatal("bad query must error")
	}
	_, directErr := Parse(core.NewString("SELECT FROM t WHERE a = 'x'"))
	if directErr == nil {
		t.Fatal("direct parse must error")
	}
	if planErr.Error() != directErr.Error() {
		t.Errorf("plan-cached error %q differs from direct parse error %q", planErr, directErr)
	}
}

func TestPlanCacheMultiRowInsertShapes(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, name TEXT)")
	// Same statement kind, different row counts.
	db.MustExec("INSERT INTO t (id, name) VALUES (1, 'a')")
	db.MustExec("INSERT INTO t (id, name) VALUES (2, 'b'), (3, 'c')")
	db.MustExec("INSERT INTO t (id, name) VALUES (4, 'd'), (5, 'e')")
	res, err := db.QueryRaw("SELECT id FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("got %d rows, want 5", res.Len())
	}
	for i := 0; i < 5; i++ {
		if got := res.Get(i, "id").Int.Value(); got != int64(i+1) {
			t.Errorf("row %d: id %d, want %d", i, got, i+1)
		}
	}
}

func TestPlanCacheSharedAcrossTransactions(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT)")
	db.MustExec("INSERT INTO t (id) VALUES (1)")

	tx := db.Begin()
	if _, err := tx.QueryRaw("INSERT INTO t (id) VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	res, err := tx.QueryRaw("SELECT id FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("tx read its own write through the plan cache: got %d rows", res.Len())
	}
	// The main engine must not see the speculative write even though the
	// plan (and its schema-generation state) is shared.
	main, err := db.QueryRaw("SELECT id FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if main.Len() != 0 {
		t.Fatal("speculative write leaked to the main engine")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := db.QueryRaw("SELECT id FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != 1 {
		t.Fatal("committed write not visible")
	}
}

func TestAutoSanitizePlansDoNotLeakAcrossModes(t *testing.T) {
	db := openDB(t)
	db.Filter().AutoSanitizeUntrusted(true)
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('safe')")

	// An untrusted value containing a quote-breakout payload: under the
	// auto-sanitizing lexer the whole run is one value token.
	payload := core.NewStringPolicy("x' OR '1'='1", &sanitize.UntrustedData{Source: "test"})
	q := core.Concat(
		core.NewString("SELECT a FROM t WHERE a = '"),
		payload,
		core.NewString("'"),
	)
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatal("auto-sanitized payload must not match (injection would return rows)")
	}
	// Run it again: untrusted text compiles afresh every time, and the
	// payload must stay inert every time.
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatal("the second auto-sanitized run let the payload match")
	}
}

// TestCachedRangePlanFollowsIndexDDL verifies the invalidation story
// for range/ORDER BY plans: index DDL bumps the schema generation, so a
// cached plan rebinds its access path and must pick up a CREATE INDEX
// immediately — same results, post-sort gone — and survive DROP INDEX
// just as transparently.
func TestCachedRangePlanFollowsIndexDDL(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, name TEXT)")
	for i := 0; i < 50; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t (id, name) VALUES (%d, 'n%02d')", i, i))
	}
	const q = "SELECT name FROM t WHERE id >= 10 AND id < 20 ORDER BY id DESC"
	run := func() (*Result, uint64) {
		t.Helper()
		s0 := SortCount()
		res, err := db.QueryRaw(q)
		if err != nil {
			t.Fatal(err)
		}
		return res, SortCount() - s0
	}

	base, sorts := run()
	if sorts != 1 {
		t.Fatalf("unindexed range query did %d sorts, want 1", sorts)
	}
	if _, sorts = run(); sorts != 1 { // now a plan-cache hit, still sorting
		t.Fatalf("cached unindexed plan did %d sorts, want 1", sorts)
	}

	db.MustExec("CREATE INDEX ON t (id)") // bumps the schema generation
	indexed, sorts := run()
	if sorts != 0 {
		t.Fatalf("cached plan after CREATE INDEX did %d sorts, want pushdown (0)", sorts)
	}
	requireSameResults(t, q, indexed, base)

	db.MustExec("DROP INDEX ON t (id)")
	dropped, sorts := run()
	if sorts != 1 {
		t.Fatalf("cached plan after DROP INDEX did %d sorts, want 1", sorts)
	}
	requireSameResults(t, q, dropped, base)
}

// uncachedExec runs q the way a caller without a plan does: compiled on
// a scratch cache, bound, and executed through executeWithPolicies —
// deriveShape and apply with nothing remembered. It is the oracle the
// cached rewrite and result shape are held to.
func uncachedExec(engine *Engine, q core.String, args ...any) (*Result, error) {
	toks, err := Lex(q)
	if err != nil {
		return nil, err
	}
	cp, err := newPlanCache().compile(toks)
	if err != nil {
		return nil, err
	}
	bound, err := cp.bindArgs(args)
	if err != nil {
		return nil, err
	}
	slots, err := cp.slots(bound.exprs)
	if err != nil {
		return nil, err
	}
	return executePlanned(nil, nil, engine, cp.plan.stmt, slots, true)
}

// substituteSlots renders what an execution of a plan sees: a copy of
// the statement with every Param replaced by its slot's value. The
// query route never builds it — the bound plan reads the slots — but
// the docs test renders the bound prepared example with it.
func substituteSlots(t testing.TB, stmt Statement, slots []Expr) Statement {
	t.Helper()
	var sub func(Expr) Expr
	sub = func(ex Expr) Expr {
		switch v := ex.(type) {
		case *Param:
			return slotExpr(v, slots)
		case *Binary:
			return &Binary{Op: v.Op, L: sub(v.L), R: sub(v.R)}
		case *Unary:
			return &Unary{Op: v.Op, X: sub(v.X)}
		}
		return ex
	}
	switch s := stmt.(type) {
	case *Select:
		out := *s
		out.Where = sub(s.Where)
		if s.LimitExpr != nil {
			n, err := selectLimit(s, slots)
			if err != nil {
				t.Fatal(err)
			}
			out.Limit, out.LimitExpr = n, nil
		}
		return &out
	case *Insert:
		out := &Insert{Table: s.Table, Columns: s.Columns}
		for _, row := range s.Rows {
			r := make([]Expr, len(row))
			for i, ex := range row {
				r[i] = sub(ex)
			}
			out.Rows = append(out.Rows, r)
		}
		return out
	case *Update:
		out := &Update{Table: s.Table, Where: sub(s.Where)}
		for _, a := range s.Set {
			out.Set = append(out.Set, Assignment{Column: a.Column, Value: sub(a.Value)})
		}
		return out
	case *Delete:
		return &Delete{Table: s.Table, Where: sub(s.Where)}
	}
	return stmt
}

// renderResult renders everything observable of one execution: the
// error, or Columns and every cell with its EncodeSpans annotation.
func renderResult(t testing.TB, res *Result, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "affected=%d cols=%q\n", res.Affected, res.Columns)
	for _, row := range res.Rows {
		for _, c := range row {
			ann, aerr := core.EncodeSpans(c.Text())
			if aerr != nil {
				t.Fatal(aerr)
			}
			fmt.Fprintf(&b, " [%q null=%v int=%v %s]", c.Text().Raw(), c.Null, c.IsInt, ann)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// requirePlannedMatchesUncached executes a SELECT three times through
// db's plan cache (the first may build the plan's schema state, the
// rest reuse it) and requires each answer to equal the uncached one.
func requirePlannedMatchesUncached(t testing.TB, db *DB, q core.String, args ...any) {
	t.Helper()
	want, werr := uncachedExec(db.Engine(), q, args...)
	for i := 0; i < 3; i++ {
		got, gerr := db.Query(q, args...)
		if g, w := renderResult(t, got, gerr), renderResult(t, want, werr); g != w {
			t.Fatalf("%s, planned execution %d:\n got %s\nwant %s", q.Raw(), i, g, w)
		}
	}
}

// TestPreparedSelectFollowsSchemaCycles: one prepared SELECT executed
// across DROP/CREATE cycles that gain policy columns, lose them, keep
// only some (so the engine's column count changes under the same
// statement) must answer each time exactly as executeWithPolicies does
// on a hand-built AST — rows, per-cell annotations and Columns — and
// every cycle must register as a plan invalidation.
func TestPreparedSelectFollowsSchemaCycles(t *testing.T) {
	db := openDB(t)
	ins := func() {
		t.Helper()
		q := core.NewString("INSERT INTO t (id, name, bio) VALUES (?, ?, ?)")
		name := core.NewStringPolicy("alice", &passwordPolicy{Email: "n@x"})
		bio := core.Concat(core.NewString("likes "), core.NewStringPolicy("secrets", &passwordPolicy{Email: "b@x"}))
		if _, err := db.Query(q, 1, name, bio); err != nil {
			t.Fatal(err)
		}
	}
	rawCreate := func(cols ...string) {
		t.Helper()
		defs := []ColumnDef{{Name: "id", Type: ColInt}}
		for _, c := range cols {
			defs = append(defs, ColumnDef{Name: c, Type: ColText})
		}
		if _, _, err := db.Engine().ExecuteRaw(&CreateTable{Table: "t", Cols: defs}); err != nil {
			t.Fatal(err)
		}
	}
	cycles := []struct {
		name    string
		create  func()
		tainted [2]bool // name, bio
		rawCols int
	}{
		{"tracked", func() { db.MustExec("CREATE TABLE t (id INT, name TEXT, bio TEXT)") }, [2]bool{true, true}, 4},
		{"lost", func() { rawCreate("name", "bio") }, [2]bool{false, false}, 2},
		{"gained", func() { db.MustExec("CREATE TABLE t (id INT, name TEXT, bio TEXT)") }, [2]bool{true, true}, 4},
		{"partial", func() { rawCreate("name", "bio", policyColName("bio")) }, [2]bool{false, true}, 3},
		{"lost-again", func() { rawCreate("name", "bio") }, [2]bool{false, false}, 2},
	}
	var st *Stmt
	for i, c := range cycles {
		if i > 0 {
			db.MustExec("DROP TABLE t")
		}
		c.create()
		ins()
		if st == nil {
			var err error
			if st, err = db.PrepareRaw("SELECT name, bio FROM t WHERE id = ?"); err != nil {
				t.Fatal(err)
			}
		}
		before := db.Filter().PlanStats().Invalidations
		handBuilt := &Select{
			Table: "t", Items: []SelectItem{{Col: "name"}, {Col: "bio"}}, Limit: -1,
			Where: &Binary{Op: "=", L: &ColumnRef{Name: "id"}, R: &IntLit{Val: 1}},
		}
		want, werr := executeWithPolicies(db.Engine(), handBuilt)
		for run := 0; run < 3; run++ {
			got, gerr := st.Query(1)
			if g, w := renderResult(t, got, gerr), renderResult(t, want, werr); g != w {
				t.Fatalf("cycle %s, execution %d:\n got %s\nwant %s", c.name, run, g, w)
			}
			if gerr != nil || got.Len() != 1 || len(got.Columns) != 2 {
				t.Fatalf("cycle %s: %+v, %v", c.name, got, gerr)
			}
			for ci, col := range []string{"name", "bio"} {
				if tainted := got.Get(0, col).Str.IsTainted(); tainted != c.tainted[ci] {
					t.Errorf("cycle %s: %s tainted=%v, want %v", c.name, col, tainted, c.tainted[ci])
				}
			}
		}
		if ps := st.plan.schema.Load(); ps == nil || len(ps.shape.cols) != c.rawCols {
			t.Errorf("cycle %s: cached shape %+v, want %d engine columns", c.name, ps, c.rawCols)
		}
		if i > 0 && db.Filter().PlanStats().Invalidations == before {
			t.Errorf("cycle %s: schema changed under the plan but Invalidations stayed %d", c.name, before)
		}
	}
}

// TestSharedPlanAcrossGenerations (run it with -race): one plan shared
// by the database engine and by a transaction opened before a concurrent
// DDL — two generations, two result shapes (the database's t is dropped
// and re-created without a policy column after Begin, while the
// transaction keeps reading the tracked t it began on) — while a third
// goroutine keeps bumping the database's generation. Every answer must be the uncached one for the
// engine it ran on: the plan's schema state is taken as one value, so
// one generation's items are never paired with the other's columns.
func TestSharedPlanAcrossGenerations(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, v TEXT)")
	if _, err := db.Query(core.NewString("INSERT INTO t (id, v) VALUES (1, ?)"),
		core.NewStringPolicy("tracked", &passwordPolicy{Email: "g@x"})); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Rollback() //nolint:errcheck
	if _, err := db.QueryRaw("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Engine().ExecuteRaw(&CreateTable{Table: "t", Cols: []ColumnDef{{Name: "id", Type: ColInt}, {Name: "v", Type: ColText}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRaw("INSERT INTO t (id, v) VALUES (1, 'direct')"); err != nil {
		t.Fatal(err)
	}
	if db.Engine().SchemaGen() == tx.spec.SchemaGen() {
		t.Fatal("the database's DDL must have moved its generation past the transaction's")
	}

	q := core.NewString("SELECT v FROM t WHERE id = ?")
	onDB, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	onTx, err := tx.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if onDB.plan != onTx.plan {
		t.Fatal("both statements must share one cached plan")
	}
	wantDB, err := uncachedExec(db.Engine(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTx, err := uncachedExec(tx.spec, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wantDB.Get(0, "v").Str.IsTainted() || !wantTx.Get(0, "v").Str.IsTainted() {
		t.Fatalf("setup: database row must be clean and the transaction's tainted:\n%s%s",
			renderResult(t, wantDB, nil), renderResult(t, wantTx, nil))
	}

	const rounds = 300
	var wg sync.WaitGroup
	reader := func(st *Stmt, want *Result, name string) {
		defer wg.Done()
		w := renderResult(t, want, nil)
		for i := 0; i < rounds; i++ {
			got, err := st.Query(1)
			if g := renderResult(t, got, err); g != w {
				t.Errorf("%s, round %d:\n got %s\nwant %s", name, i, g, w)
				return
			}
		}
	}
	wg.Add(3)
	go reader(onDB, wantDB, "database engine")
	go reader(onTx, wantTx, "speculative engine")
	go func() { // index DDL: a fresh generation each time, the same answers
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			for _, ddl := range []string{"CREATE INDEX ON t (id)", "DROP INDEX ON t (id)"} {
				if _, err := db.QueryRaw(ddl); err != nil {
					t.Errorf("%s: %v", ddl, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if db.Filter().PlanStats().Invalidations == 0 {
		t.Error("two generations sharing a plan must have invalidated it")
	}
}

// TestPreparedJoinFollowsSchema: a prepared join and a prepared grouped
// join keep answering as the uncached route does after an index is
// created, inside a transaction whose write set holds the joined table
// (the plan binds the table's key, so the write set is the table read),
// and after reviews is dropped and re-created with its columns in
// another order — the plan rebinds every ON, item, WHERE and ORDER BY
// position.
func TestPreparedJoinFollowsSchema(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE papers (id INT, title TEXT)")
	reviews := func(ddl string) {
		db.MustExec(ddl)
		for i := 0; i < 6; i++ {
			if _, err := db.QueryRaw("INSERT INTO reviews (paper, reviewer, body) VALUES (?, ?, ?)", i%3,
				core.NewStringPolicy(fmt.Sprintf("rv%d", 5-i), &passwordPolicy{Email: "r@x"}), fmt.Sprintf("b%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	reviews("CREATE TABLE reviews (paper INT, reviewer TEXT, body TEXT)")
	for i := 0; i < 4; i++ {
		if _, err := db.QueryRaw("INSERT INTO papers (id, title) VALUES (?, ?)", i,
			core.NewStringPolicy(fmt.Sprintf("p%d", i), &passwordPolicy{Email: "p@x"})); err != nil {
			t.Fatal(err)
		}
	}
	join := core.NewString("SELECT papers.title, reviews.reviewer, reviews.body FROM papers LEFT JOIN reviews ON papers.id = reviews.paper WHERE papers.id = ? ORDER BY reviews.reviewer")
	grouped := core.NewString("SELECT reviews.paper, COUNT(*), MIN(reviewer), PUNION(papers.__policy_title) FROM reviews JOIN papers ON paper = id GROUP BY reviews.paper ORDER BY reviews.paper DESC")
	check := func(stage string) {
		t.Helper()
		for id := 0; id < 4; id++ {
			requirePlannedMatchesUncached(t, db, join, id)
		}
		requirePlannedMatchesUncached(t, db, grouped)
		tx := db.Begin()
		defer tx.Rollback() //nolint:errcheck
		if _, err := tx.QueryRaw("INSERT INTO reviews (paper, reviewer, body) VALUES (1, 'aa', 'in tx')"); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			q    core.String
			args []any
		}{{join, []any{1}}, {grouped, nil}} {
			want, werr := uncachedExec(tx.spec, c.q, c.args...)
			got, gerr := tx.Query(c.q, c.args...)
			if g, w := renderResult(t, got, gerr), renderResult(t, want, werr); g != w {
				t.Fatalf("%s, in a transaction: %s:\n got %s\nwant %s", stage, c.q.Raw(), g, w)
			}
		}
	}
	check("first binding")
	db.MustExec("CREATE INDEX ON papers (id)")
	check("after CREATE INDEX")
	db.MustExec("DROP TABLE reviews")
	reviews("CREATE TABLE reviews (body TEXT, paper INT, reviewer TEXT)")
	check("after reviews is re-created")
	if db.Filter().PlanStats().Invalidations == 0 {
		t.Error("the DDL must have invalidated the bound plans")
	}
}

// TestPlannedEqualsUncached: the cached rewrite and result shape answer
// exactly as the uncached pairing does — over the whole query-route
// corpus (each execution inside its own rolled-back transaction, so the
// mutating statements meet the same state every time), SELECT *, policy
// columns selected on their own and beside their data column, and
// aggregate forms; docs/SQL.md §10.5's worked examples make the same
// check from TestJoinAggDocExamples.
func TestPlannedEqualsUncached(t *testing.T) {
	for _, tc := range parityCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			db := paritySeed(t, parityFlags{})
			outcome := func(run func(tx *Tx) (*Result, error)) string {
				tx := db.Begin()
				defer tx.Rollback() //nolint:errcheck
				res, err := run(tx)
				return parityOutcome(t, res, err, tx.QueryRaw)
			}
			want := outcome(func(tx *Tx) (*Result, error) { return uncachedExec(tx.spec, tc.q, tc.args...) })
			for i := 0; i < 3; i++ {
				got := outcome(func(tx *Tx) (*Result, error) { return tx.Query(tc.q, tc.args...) })
				if got != want {
					t.Fatalf("planned execution %d:\n--- planned\n%s--- uncached\n%s", i, got, want)
				}
			}
		})
	}
	db := paritySeed(t, parityFlags{})
	for _, q := range []string{
		"SELECT * FROM users ORDER BY uid",
		"SELECT name FROM users ORDER BY uid",
		"SELECT __policy_name FROM users ORDER BY uid",
		"SELECT name, __policy_name FROM users ORDER BY uid",
		"SELECT NAME, Role FROM users WHERE uid = 2",
		"SELECT users.name FROM users WHERE users.uid = 2",
		"SELECT COUNT(*), MIN(name), MAX(uid) FROM users",
		"SELECT role, COUNT(*), PUNION(__policy_name) FROM users GROUP BY role ORDER BY role",
		"SELECT name FROM users WHERE uid = 99",
		"SELECT missing FROM users",
		"SELECT name FROM nowhere",
	} {
		requirePlannedMatchesUncached(t, db, core.NewString(q))
	}
}

// TestPreparedPointSelectAllocs pins what the bound plan buys: a tracked
// prepared point SELECT rebuilds neither the rewritten item list nor the
// column pairing (51 allocations before per-plan schema state, 35 with
// it), copies no AST and resolves no name, and its candidates, matched
// rows and tracked cells take no allocation of their own (13). Its bound
// arguments and channel call are one block, and its engine result reads
// the matched versions in place (5).
func TestPreparedPointSelectAllocs(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE users (id INT, name TEXT, bio TEXT)")
	db.MustExec("CREATE INDEX ON users (id)")
	ins, err := db.PrepareRaw("INSERT INTO users (id, name, bio) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	const nrows = 64
	for i := 0; i < nrows; i++ {
		p := &passwordPolicy{Email: fmt.Sprintf("u%d@x", i)}
		if _, err := ins.Exec(i, core.NewStringPolicy(fmt.Sprintf("user%d", i), p), core.NewStringPolicy("bio", p)); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := db.PrepareRaw("SELECT name, bio FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	query := func() {
		res, err := sel.Query(i % nrows)
		if err != nil || res.Len() != 1 || !res.Get(0, "name").Str.IsTainted() {
			t.Fatalf("row %d: %+v, %v", i%nrows, res, err)
		}
		i++
	}
	for range [nrows]struct{}{} { // warm the plan's schema state and the annotation memo
		query()
	}
	if allocs := testing.AllocsPerRun(200, query); allocs > 6 {
		t.Errorf("tracked prepared point SELECT: %.0f allocs/op, want ≤ 6", allocs)
	}
}

// TestPreparedJoinAllocs pins the tracked prepared LEFT JOIN of the
// hotcrp review page over 32 papers with 3 reviews each. Both sides are
// read by scan, so each execution builds the hash join over all 96
// reviews — its per-key lists are most of the count — and pairs every
// paper. WHERE is tested on each pair before the pair gets a row of its
// own, and the kept rows are projected through the bound positions, not
// copied (364 allocations when every pair got a row and every kept row
// a projected copy, 244 now).
func TestPreparedJoinAllocs(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE papers (id INT, title TEXT, abstract TEXT, authors TEXT, anonymous INT)")
	db.MustExec("CREATE INDEX ON papers (id)")
	db.MustExec("CREATE TABLE reviews (paper INT, reviewer TEXT, body TEXT)")
	db.MustExec("CREATE INDEX ON reviews (paper)")
	const npapers = 32
	for i := 0; i < npapers; i++ {
		p := &passwordPolicy{Email: fmt.Sprintf("a%d@x", i)}
		if _, err := db.QueryRaw("INSERT INTO papers (id, title, abstract, authors, anonymous) VALUES (?, ?, 'abs', ?, 0)",
			i, core.NewStringPolicy(fmt.Sprintf("paper %d", i), p), core.NewStringPolicy("authors", p)); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if _, err := db.QueryRaw("INSERT INTO reviews (paper, reviewer, body) VALUES (?, ?, ?)", i,
				core.NewStringPolicy(fmt.Sprintf("pc%d", r), p), core.NewStringPolicy("looks fine", p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sel := db.MustPrepare("SELECT papers.title, reviews.reviewer, reviews.body FROM papers LEFT JOIN reviews ON papers.id = reviews.paper WHERE papers.id = ? ORDER BY reviews.reviewer")
	i := 0
	query := func() {
		res, err := sel.Query(i % npapers)
		if err != nil || res.Len() != 3 || !res.Get(0, "reviews.body").Str.IsTainted() {
			t.Fatalf("paper %d: %+v, %v", i%npapers, res, err)
		}
		i++
	}
	for range [npapers]struct{}{} { // warm the plan and the annotation memo
		query()
	}
	if allocs := testing.AllocsPerRun(200, query); allocs > 244 {
		t.Errorf("tracked prepared LEFT JOIN: %.0f allocs/op, want ≤ 244", allocs)
	}
}

// TestBoundPlanResolvesNoNames: once a plan is bound at the engine's
// generation, executing a SELECT — single-table, join or aggregate —
// UPDATE or DELETE resolves no column name, on the tracked arm and the
// untracked one.
func TestBoundPlanResolvesNoNames(t *testing.T) {
	for _, rt := range []*core.Runtime{core.NewRuntime(), core.NewUntrackedRuntime()} {
		db := Open(rt)
		db.MustExec("CREATE TABLE t (id INT, name TEXT, n INT)")
		db.MustExec("CREATE INDEX ON t (id)")
		for i := 0; i < 8; i++ {
			if _, err := db.QueryRaw("INSERT INTO t (id, name, n) VALUES (?, ?, ?)", i, fmt.Sprintf("r%d", i), i); err != nil {
				t.Fatal(err)
			}
		}
		db.MustExec("CREATE TABLE papers (id INT, title TEXT)")
		db.MustExec("CREATE TABLE reviews (paper INT, reviewer TEXT, body TEXT)")
		db.MustExec("CREATE INDEX ON reviews (paper)")
		users := "CREATE TABLE users (name TEXT, role TEXT)"
		if !rt.Tracking() {
			// The companion the tracked arm's CREATE adds.
			users = "CREATE TABLE users (name TEXT, role TEXT, __policy_name TEXT)"
		}
		db.MustExec(users)
		for i := 0; i < 4; i++ {
			if _, err := db.QueryRaw("INSERT INTO papers (id, title) VALUES (?, ?)", i, fmt.Sprintf("p%d", i)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.QueryRaw("INSERT INTO reviews (paper, reviewer, body) VALUES (?, ?, 'ok')", i%2, fmt.Sprintf("rv%d", i)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.QueryRaw("INSERT INTO users (name, role) VALUES (?, ?)", fmt.Sprintf("u%d", i), []string{"chair", "pc"}[i%2]); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			q    string
			args []any
		}{
			{"SELECT name, n FROM t WHERE id >= ? AND n < 6 ORDER BY name DESC LIMIT 3", []any{2}},
			{"UPDATE t SET n = ?, name = ? WHERE id = ?", []any{5, core.NewStringPolicy("x", &passwordPolicy{Email: "b@x"}), 3}},
			{"DELETE FROM t WHERE id = ? AND name = 'never'", []any{4}},
			{"SELECT papers.title, reviews.reviewer, reviews.body FROM papers LEFT JOIN reviews ON papers.id = reviews.paper WHERE papers.id = ? ORDER BY reviews.reviewer", []any{1}},
			{"SELECT role, COUNT(*), PUNION(__policy_name) FROM users GROUP BY role", nil},
		} {
			st := db.MustPrepare(c.q)
			if _, err := st.Query(c.args...); err != nil { // binds the plan
				t.Fatal(err)
			}
			before := colLookups.Load()
			for i := 0; i < 3; i++ {
				if _, err := st.Query(c.args...); err != nil {
					t.Fatal(err)
				}
			}
			if n := colLookups.Load() - before; n != 0 {
				t.Errorf("tracking=%v, %s: %d column lookups over 3 executions, want 0", rt.Tracking(), c.q, n)
			}
		}
	}
}

// TestCachedShapeRecheckedAgainstColumns: the cached result shape is
// used only after the engine's column list is compared, element by
// element, with the list it was derived from. A plan whose published
// shape does not fit what the engine returned — forged here; in
// production a DDL between the generation read and the execution —
// must be answered by pairing afresh, never by trusting the cache.
func TestCachedShapeRecheckedAgainstColumns(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, v TEXT)")
	if _, err := db.Query(core.NewString("INSERT INTO t (id, v) VALUES (1, ?)"),
		core.NewStringPolicy("tracked", &passwordPolicy{Email: "s@x"})); err != nil {
		t.Fatal(err)
	}
	st, err := db.PrepareRaw("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(1); err != nil {
		t.Fatal(err)
	}
	forged := *st.plan.schema.Load()
	forged.shape = deriveShape([]string{"v"}, true) // the shape of a table without policy columns
	st.plan.schema.Store(&forged)

	want, werr := uncachedExec(db.Engine(), st.Text(), 1)
	got, gerr := st.Query(1)
	if g, w := renderResult(t, got, gerr), renderResult(t, want, werr); g != w {
		t.Fatalf("forged shape was trusted:\n got %s\nwant %s", g, w)
	}
	if !got.Get(0, "v").Str.IsTainted() {
		t.Error("the row's policy was dropped")
	}
}
