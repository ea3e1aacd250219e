package sqldb

import (
	"fmt"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

func TestPlanCacheHitSkipsParser(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, name TEXT)")
	db.MustExec("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")

	// Warm the plan for the SELECT shape.
	if _, err := db.QueryRaw("SELECT name FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	before := ParseCount()
	res, err := db.QueryRaw("SELECT name FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := ParseCount(); got != before {
		t.Errorf("plan-cache hit invoked the parser: ParseCount %d -> %d", before, got)
	}
	if res.Len() != 1 || res.Get(0, "name").Str.Raw() != "b" {
		t.Errorf("bound literals wrong: got %d rows, name %q", res.Len(), res.Get(0, "name").Str.Raw())
	}
	stats := db.Filter().PlanStats()
	if stats.Hits == 0 {
		t.Errorf("expected plan cache hits, got %+v", stats)
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
	insert("first")  // compiles the plan
	insert("second") // binds through the cached template

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

func TestPlanCacheKeyDistinguishesShapes(t *testing.T) {
	lex := func(q string) []Token {
		toks, err := Lex(core.NewString(q))
		if err != nil {
			t.Fatal(err)
		}
		return toks
	}
	k1, lits1 := planKey(lex("SELECT a FROM t WHERE a = 'x'"), planModeStandard)
	k2, lits2 := planKey(lex("select a from T where a = 'yy'"), planModeStandard)
	if k1 != k2 {
		t.Errorf("case and literal differences must share a key:\n%q\n%q", k1, k2)
	}
	if len(lits1) != 1 || len(lits2) != 1 {
		t.Errorf("want 1 literal each, got %d and %d", len(lits1), len(lits2))
	}
	k3, _ := planKey(lex("SELECT a FROM t WHERE a = 'x' OR a = 'y'"), planModeStandard)
	if k1 == k3 {
		t.Error("different shapes must not share a key")
	}
	k4, _ := planKey(lex("SELECT a FROM t WHERE a = 'x'"), planModeAutoSanitize)
	if k1 == k4 {
		t.Error("auto-sanitize mode must not share keys with the standard lexer")
	}
	k5, lits5 := planKey(lex("SELECT a FROM t LIMIT 5"), planModeStandard)
	k6, _ := planKey(lex("SELECT a FROM t LIMIT 6"), planModeStandard)
	if k5 == k6 {
		t.Error("LIMIT counts must stay literal in the key")
	}
	if len(lits5) != 0 {
		t.Errorf("LIMIT count must not be collected as a bindable literal, got %d", len(lits5))
	}
}

func TestPlanCacheBoundedFlush(t *testing.T) {
	c := newPlanCache()
	for i := 0; i < planCacheCap+10; i++ {
		q := fmt.Sprintf("SELECT c%d FROM t%d", i, i)
		toks, err := Lex(core.NewString(q))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.compile(toks, planModeStandard); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	if n > planCacheCap {
		t.Errorf("plan cache grew past its cap: %d > %d", n, planCacheCap)
	}
}

func TestPlanCacheMultiRowInsertShapes(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, name TEXT)")
	// Same statement kind, different row counts: distinct shapes.
	db.MustExec("INSERT INTO t (id, name) VALUES (1, 'a')")
	db.MustExec("INSERT INTO t (id, name) VALUES (2, 'b'), (3, 'c')")
	db.MustExec("INSERT INTO t (id, name) VALUES (4, 'd'), (5, 'e')") // cached 2-row shape
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
	// Run it again: the auto-mode plan is cached; the payload must stay
	// inert on the hit path too.
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatal("cached auto-sanitized plan let the payload match")
	}
}

func TestParameterizeRoundTrip(t *testing.T) {
	toks, err := Lex(core.NewString("UPDATE t SET a = 'v', n = 7 WHERE id = 3 AND a LIKE 'p%'"))
	if err != nil {
		t.Fatal(err)
	}
	_, lits := planKey(toks, planModeStandard)
	tmpl, err := ParseTokens(parameterize(toks))
	if err != nil {
		t.Fatal(err)
	}
	binds := make([]Expr, len(lits))
	for i, lit := range lits {
		if binds[i], err = litExpr(lit); err != nil {
			t.Fatal(err)
		}
	}
	bound, err := bindStatement(tmpl, binds)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ParseTokens(toks)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bound.SQL(), direct.SQL(); got != want {
		t.Errorf("bound statement differs from direct parse:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(tmpl.SQL(), "?") {
		t.Errorf("template should contain parameter slots, got %s", tmpl.SQL())
	}
}

// TestCachedRangePlanFollowsIndexDDL verifies the invalidation story
// for range/ORDER BY plans: the template a plan caches is
// schema-independent (the predicate analyzer runs per execution against
// the engine's current indexes, under the same lock as the data), so a
// cached plan must pick up a CREATE INDEX immediately — same results,
// post-sort gone — and survive DROP INDEX just as transparently. The
// schema generation stamp only guards the plan's policy-column state;
// this pins that nothing about range plans needs more than that.
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
