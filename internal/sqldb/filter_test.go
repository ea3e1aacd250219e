package sqldb

import (
	"strings"
	"testing"
	"unsafe"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// passwordPolicy mimics the HotCRP password policy for persistence tests.
type passwordPolicy struct {
	Email string `json:"email"`
}

func (p *passwordPolicy) ExportCheck(ctx *core.Context) error { return nil }

func init() {
	core.RegisterPolicyClass("sqltest.PasswordPolicy", &passwordPolicy{})
}

func openDB(t *testing.T) *DB {
	t.Helper()
	return Open(core.NewRuntime())
}

func TestCreateAddsPolicyColumns(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE users (name TEXT, password TEXT, age INT)")
	schema, err := db.Engine().Schema("users")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range schema {
		names = append(names, c.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"name", "password", "age", "__policy_name", "__policy_password", "__policy_age"} {
		if !strings.Contains(joined, want) {
			t.Errorf("schema %v missing %s", names, want)
		}
	}
}

func TestPolicyPersistenceRoundTrip(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE users (name TEXT, password TEXT)")
	pw := core.NewStringPolicy("hunter2", &passwordPolicy{Email: "u@foo.com"})
	q := core.Concat(
		core.NewString("INSERT INTO users (name, password) VALUES ('alice', "),
		sanitize.SQLQuote(pw),
		core.NewString(")"),
	)
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryRaw("SELECT name, password FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	name := res.Get(0, "name").Str
	if name.IsTainted() {
		t.Errorf("name gained policies: %s", name.Describe())
	}
	got := res.Get(0, "password").Str
	if got.Raw() != "hunter2" {
		t.Fatalf("password = %q", got.Raw())
	}
	ps := got.Policies().Policies()
	var found *passwordPolicy
	for _, p := range ps {
		if pp, ok := p.(*passwordPolicy); ok {
			found = pp
		}
	}
	if found == nil || found.Email != "u@foo.com" {
		t.Fatalf("password policy not restored: %v", got.Describe())
	}
	// The policy columns are hidden from the result.
	if res.ColumnIndex("__policy_password") != -1 {
		t.Error("policy column leaked into visible result")
	}
}

func TestPolicyPersistenceSelectStar(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	p := &passwordPolicy{Email: "e"}
	q := core.Concat(core.NewString("INSERT INTO t (a) VALUES ("), sanitize.SQLQuote(core.NewStringPolicy("v", p)), core.NewString(")"))
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryRaw("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || !strings.EqualFold(res.Columns[0], "a") {
		t.Fatalf("columns = %v", res.Columns)
	}
	if !res.Get(0, "a").Str.IsTainted() {
		t.Error("SELECT * should re-attach policies")
	}
}

func TestPolicyPersistenceUpdate(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	db.MustExec("INSERT INTO t (a) VALUES ('old')")
	p := &passwordPolicy{Email: "e2"}
	q := core.Concat(core.NewString("UPDATE t SET a = "), sanitize.SQLQuote(core.NewStringPolicy("new", p)))
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	res, _ := db.QueryRaw("SELECT a FROM t")
	got := res.Get(0, "a").Str
	if got.Raw() != "new" || !got.IsTainted() {
		t.Errorf("update lost policies: %s", got.Describe())
	}
	// Overwriting with untainted data clears the annotation.
	db.MustExec("UPDATE t SET a = 'clean'")
	res, _ = db.QueryRaw("SELECT a FROM t")
	if res.Get(0, "a").Str.IsTainted() {
		t.Error("untainted update should clear policies")
	}
}

func TestPolicyPersistenceTrackedInt(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (n INT)")
	p := &passwordPolicy{Email: "n"}
	digits := core.NewStringPolicy("42", p)
	q := core.Concat(core.NewString("INSERT INTO t (n) VALUES ("), digits, core.NewString(")"))
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	res, _ := db.QueryRaw("SELECT n FROM t")
	cell := res.Get(0, "n")
	if !cell.IsInt || cell.Int.Value() != 42 {
		t.Fatalf("cell = %+v", cell)
	}
	if !cell.Int.IsTainted() {
		t.Error("tainted digits should persist onto the integer cell")
	}
	if !cell.Text().IsTainted() {
		t.Error("rendered digits should carry the policy")
	}
}

func TestPartialSpanPersistence(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT)")
	p := &passwordPolicy{Email: "part"}
	// Only "secret" inside the value is tainted.
	val := core.Concat(core.NewString("pre-"), core.NewStringPolicy("secret", p), core.NewString("-post"))
	q := core.Concat(core.NewString("INSERT INTO t (a) VALUES ("), sanitize.SQLQuote(val), core.NewString(")"))
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	res, _ := db.QueryRaw("SELECT a FROM t")
	got := res.Get(0, "a").Str
	if got.Raw() != "pre-secret-post" {
		t.Fatalf("raw = %q", got.Raw())
	}
	if got.Slice(0, 4).Policies().Any(func(q core.Policy) bool { _, ok := q.(*passwordPolicy); return ok }) {
		t.Error("prefix should not carry the password policy")
	}
	mid := got.Slice(4, 10)
	if !mid.Policies().Any(func(q core.Policy) bool { _, ok := q.(*passwordPolicy); return ok }) {
		t.Errorf("middle lost the policy: %s", got.Describe())
	}
}

func TestStrategy1RejectsUnsanitized(t *testing.T) {
	db := openDB(t)
	db.Filter().RequireSanitizedMarkers(true)
	db.MustExec("CREATE TABLE users (name TEXT)")
	evil := sanitize.Taint(core.NewString("x' OR '1'='1"), "form")
	q := core.Concat(core.NewString("SELECT name FROM users WHERE name = '"), evil, core.NewString("'"))
	_, err := db.Query(q)
	if err == nil {
		t.Fatal("unsanitized tainted query must be rejected")
	}
	if _, ok := core.IsAssertionError(err); !ok {
		t.Errorf("want AssertionError, got %v", err)
	}
	// Properly sanitized: accepted.
	q2 := core.Concat(core.NewString("SELECT name FROM users WHERE name = "), sanitize.SQLQuote(evil))
	if _, err := db.Query(q2); err != nil {
		t.Fatalf("sanitized query should pass: %v", err)
	}
}

func TestStrategy2RejectsTaintedStructure(t *testing.T) {
	db := openDB(t)
	db.Filter().RejectTaintedStructure(true)
	db.MustExec("CREATE TABLE users (name TEXT, admin INT)")
	db.MustExec("INSERT INTO users (name, admin) VALUES ('alice', 1), ('bob', 0)")

	// Classic injection: tainted OR 1=1 reshapes the WHERE clause.
	evil := sanitize.Taint(core.NewString("0 OR 1=1"), "form")
	q := core.Concat(core.NewString("SELECT name FROM users WHERE admin = "), evil)
	if _, err := db.Query(q); err == nil {
		t.Fatal("tainted structure must be rejected")
	}

	// Tainted data confined to a literal: fine, even without markers.
	lit := sanitize.Taint(core.NewString("bob"), "form")
	q2 := core.Concat(core.NewString("SELECT name FROM users WHERE name = '"), lit, core.NewString("'"))
	res, err := db.Query(q2)
	if err != nil {
		t.Fatalf("tainted literal should pass strategy 2: %v", err)
	}
	if res.Len() != 1 || res.Get(0, "name").Str.Raw() != "bob" {
		t.Errorf("result = %+v", res)
	}

	// Tainted number literal is a value too.
	n := sanitize.Taint(core.NewString("1"), "form")
	q3 := core.Concat(core.NewString("SELECT name FROM users WHERE admin = "), n)
	if _, err := db.Query(q3); err != nil {
		t.Fatalf("tainted number literal should pass: %v", err)
	}

	// Tainted comment injection is structure.
	c := sanitize.Taint(core.NewString("1 -- comment"), "form")
	q4 := core.Concat(core.NewString("SELECT name FROM users WHERE admin = "), c)
	if _, err := db.Query(q4); err == nil {
		t.Fatal("tainted comment must be rejected")
	}
}

func TestStrategy2QuoteBreakout(t *testing.T) {
	db := openDB(t)
	db.Filter().RejectTaintedStructure(true)
	db.MustExec("CREATE TABLE users (name TEXT, password TEXT)")
	db.MustExec("INSERT INTO users (name, password) VALUES ('admin', 'pw')")
	// Attacker breaks out of the quoted literal; the closing quote and OR
	// become tainted structure.
	evil := sanitize.Taint(core.NewString("x' OR name = 'admin"), "form")
	q := core.Concat(core.NewString("SELECT password FROM users WHERE name = '"), evil, core.NewString("'"))
	if _, err := db.Query(q); err == nil {
		t.Fatal("quote breakout must be rejected")
	}
	// Without the assertion the same query succeeds and leaks.
	db.Filter().RejectTaintedStructure(false)
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("vulnerable query failed to run: %v", err)
	}
	if res.Len() != 1 || res.Get(0, "password").Str.Raw() != "pw" {
		t.Errorf("attack should leak password without the assertion: %+v", res)
	}
}

func TestInjectionErrorDetails(t *testing.T) {
	e := &InjectionError{Strategy: "tainted-structure", Query: "SELECT x", Start: 7, End: 8}
	if !strings.Contains(e.Error(), "tainted-structure") || !strings.Contains(e.Error(), "x") {
		t.Errorf("error = %q", e.Error())
	}
}

func TestTrackingDisabledBypassesFilter(t *testing.T) {
	rt := core.NewUntrackedRuntime()
	db := Open(rt)
	db.Filter().RejectTaintedStructure(true)
	db.MustExec("CREATE TABLE t (a TEXT)")
	// No policy columns created when tracking is off.
	schema, _ := db.Engine().Schema("t")
	if len(schema) != 1 {
		t.Errorf("untracked CREATE added columns: %v", schema)
	}
	// Injection passes (vulnerable baseline).
	evil := core.NewString("x' OR '1'='1").WithPolicy(&sanitize.UntrustedData{Source: "x"})
	q := core.Concat(core.NewString("SELECT a FROM t WHERE a = '"), evil, core.NewString("'"))
	if _, err := db.Query(q); err != nil {
		t.Fatalf("untracked query: %v", err)
	}
}

func TestMixedTrackingSchemas(t *testing.T) {
	// A table created without tracking lacks policy columns; tracked
	// inserts must still work (no policy columns to fill).
	rt := core.NewRuntime()
	db := Open(rt)
	rt.SetTracking(false)
	db.MustExec("CREATE TABLE legacy (a TEXT)")
	rt.SetTracking(true)
	p := &passwordPolicy{Email: "x"}
	q := core.Concat(core.NewString("INSERT INTO legacy (a) VALUES ("), sanitize.SQLQuote(core.NewStringPolicy("v", p)), core.NewString(")"))
	if _, err := db.Query(q); err != nil {
		t.Fatalf("insert into legacy table: %v", err)
	}
	res, err := db.QueryRaw("SELECT a FROM legacy")
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "a").Str.Raw() != "v" {
		t.Errorf("value = %q", res.Get(0, "a").Str.Raw())
	}
	// Policies are lost (no policy column) — the documented legacy-schema
	// behaviour, matching the paper's schema-migration caveat.
	if res.Get(0, "a").Str.IsTainted() {
		t.Error("legacy table cannot persist policies")
	}
}

func TestResultAccessors(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE t (a TEXT, n INT)")
	db.MustExec("INSERT INTO t (a, n) VALUES ('x', 5)")
	res, _ := db.QueryRaw("SELECT a, n FROM t")
	if res.ColumnIndex("A") != 0 || res.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if !res.Get(0, "nope").Null || !res.Get(9, "a").Null {
		t.Error("out-of-range Get should be NULL")
	}
	if res.Get(0, "n").Int.Value() != 5 {
		t.Error("int accessor wrong")
	}
	if res.Get(0, "a").Text().Raw() != "x" {
		t.Error("Text() wrong")
	}
	var nullCell Cell
	nullCell.Null = true
	if nullCell.Text().Raw() != "" {
		t.Error("NULL Text() should be empty")
	}
}

func TestSanitizedPoliciesPersistAcrossDB(t *testing.T) {
	// §5.3: even if an adversary executes SELECT password FROM userdb,
	// the password's policy comes back from the database and still guards
	// the data at the output boundary.
	rt := core.NewRuntime()
	db := Open(rt)
	db.MustExec("CREATE TABLE userdb (user TEXT, password TEXT)")
	pw := core.NewStringPolicy("s3cret", &passwordPolicy{Email: "victim@x"})
	q := core.Concat(core.NewString("INSERT INTO userdb (user, password) VALUES ('victim', "), sanitize.SQLQuote(pw), core.NewString(")"))
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	// Adversary-controlled SELECT (injection simulated by running the
	// query directly).
	res, err := db.QueryRaw("SELECT user, password FROM userdb")
	if err != nil {
		t.Fatal(err)
	}
	leaked := res.Get(0, "password").Str
	if !leaked.IsTainted() {
		t.Fatal("password came back without its policy")
	}
	// The policy still guards the HTTP boundary.
	ch := core.NewChannel(rt, core.KindHTTP, core.ExportCheckFilter{})
	_ = ch
	// (The test passwordPolicy allows everything; the real check is the
	// policy's presence, verified above — the HotCRP app tests exercise
	// the deny path end-to-end.)
}

// TestUntrackedArmHidesShadowColumns: with tracking off, a SELECT over a
// table created with tracking on runs the same bound plan, companions
// included, and returns only the columns it names.
func TestUntrackedArmHidesShadowColumns(t *testing.T) {
	rt := core.NewRuntime()
	db := Open(rt)
	db.MustExec("CREATE TABLE t (id INT, name TEXT)")
	if _, err := db.QueryRaw("INSERT INTO t (id, name) VALUES (?, ?)", 1, core.NewStringPolicy("x", &passwordPolicy{Email: "e"})); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT name FROM t WHERE id = ?"
	if res, err := db.QueryRaw(q, 1); err != nil || !res.Get(0, "name").Str.IsTainted() {
		t.Fatalf("tracked: %+v, %v", res, err)
	}
	rt.SetTracking(false)
	res, err := db.QueryRaw(q, 1)
	if err != nil || res.Len() != 1 {
		t.Fatalf("untracked: %+v, %v", res, err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "name" || len(res.Rows[0]) != 1 || res.Rows[0][0].Str.Raw() != "x" || res.Rows[0][0].Str.IsTainted() {
		t.Errorf("untracked result %v %+v, want the one untainted column name", res.Columns, res.Rows)
	}
}

// TestPolicyColumnSharingAlloc: cells with equal annotations share one
// stored string — 100 rows whose bodies carry equal-content but
// separately allocated policies hold one policy-column backing array, on
// the primary and on a follower fed its log — and a prepared tainted
// INSERT stays within its allocation ceiling: 17 allocations, with the
// Figure 4 write rewrite bound once per plan and index keys in the
// column's type.
func TestPolicyColumnSharingAlloc(t *testing.T) {
	p, f, _ := shipPair(t)
	p.MustExec("CREATE TABLE msgs (id INT, author TEXT, body TEXT)")
	ins := p.MustPrepare("INSERT INTO msgs (id, author, body) VALUES (?, ?, ?)")
	for i := 0; i < 100; i++ {
		body := core.NewStringPolicy("hello", &passwordPolicy{Email: "share@x"})
		if _, err := ins.Exec(i, "ann", body); err != nil {
			t.Fatal(err)
		}
	}
	shipAll(t, p, f, 1<<20)
	for _, side := range []struct {
		name string
		db   *DB
	}{{"primary", p}, {"follower", f.DB()}} {
		tb := side.db.Engine().tables["msgs"]
		ci := tb.colIdx[policyColName("body")]
		shared := map[*byte]int{}
		for _, en := range tb.entries {
			shared[unsafe.StringData(en.head.Load().row()[ci].text())]++
		}
		if len(tb.entries) != 100 || len(shared) != 1 {
			t.Errorf("%s: %d rows keep %d distinct policy-column strings, want 100 rows sharing 1", side.name, len(tb.entries), len(shared))
		}
	}

	db := Open(core.NewRuntime())
	db.MustExec("CREATE TABLE messages (id INT, forum INT, author TEXT, subject TEXT, body TEXT)")
	db.MustExec("CREATE INDEX ON messages (forum)")
	db.MustExec("CREATE INDEX ON messages (id)")
	ins = db.MustPrepare("INSERT INTO messages (id, forum, author, subject, body) VALUES (?, ?, ?, ?, ?)")
	body := sanitize.Taint(core.NewString(strings.Repeat("b", 96)), "form:body")
	id := 0
	allocs := testing.AllocsPerRun(100, func() {
		id++
		if _, err := ins.Exec(id, id%16, "ann", "subject", body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("prepared tainted INSERT: %.0f allocs", allocs)
	if allocs > 19 {
		t.Errorf("prepared tainted INSERT: %.0f allocs, want ≤ 19", allocs)
	}
}
