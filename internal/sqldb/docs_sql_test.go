package sqldb

import (
	"errors"
	"os"
	"strings"
	"testing"

	"resin/internal/core"
)

// docPasswordPolicy is the policy class of the worked Figure 4 example
// in docs/SQL.md; the registered name and the single JSON data field
// appear verbatim in the doc's expected annotation.
type docPasswordPolicy struct {
	Email string `json:"email"`
}

func (p *docPasswordPolicy) ExportCheck(ctx *core.Context) error { return nil }

// docReviewPolicy taints every quoted literal of the §10 worked
// examples, so the block's † markers are checked against real
// annotation round-trips, not hand-set flags.
type docReviewPolicy struct{}

func (p *docReviewPolicy) ExportCheck(ctx *core.Context) error { return nil }

func init() {
	core.RegisterPolicyClass("docs.PasswordPolicy", &docPasswordPolicy{})
	core.RegisterPolicyClass("docs.ReviewPolicy", &docReviewPolicy{})
}

// figure4Pairs extracts the pinned (issued, rewritten) statement pairs
// from the figure4 block of docs/SQL.md.
func figure4Pairs(t *testing.T) [][2]string {
	t.Helper()
	data, err := os.ReadFile("../../docs/SQL.md")
	if err != nil {
		t.Fatalf("docs/SQL.md must exist: %v", err)
	}
	text := string(data)
	start := strings.Index(text, "<!-- figure4:begin -->")
	end := strings.Index(text, "<!-- figure4:end -->")
	if start < 0 || end < 0 || end < start {
		t.Fatal("docs/SQL.md lost its figure4:begin/end markers")
	}
	var pairs [][2]string
	var cur [2]string
	state := 0 // 0 idle, 1 expect issued, 2 expect rewritten
	for _, line := range strings.Split(text[start:end], "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "-- application issues:":
			state = 1
		case line == "-- the filter hands the engine:":
			state = 2
		case line == "" || strings.HasPrefix(line, "```") || strings.HasPrefix(line, "<!--"):
		default:
			switch state {
			case 1:
				cur[0] = line
			case 2:
				cur[1] = line
				pairs = append(pairs, cur)
				cur = [2]string{}
			}
			state = 0
		}
	}
	if len(pairs) != 3 {
		t.Fatalf("figure4 example must pin CREATE, INSERT, and SELECT; got %d pairs", len(pairs))
	}
	return pairs
}

// TestFigure4ExampleRoundTrips pins docs/SQL.md's worked Figure 4
// example to the real rewrite: each documented application query,
// tracked as the doc describes (the password literal carries
// docs.PasswordPolicy), must rewrite to exactly the documented
// statement, and every documented rewritten form must round-trip
// through the parser back to itself.
func TestFigure4ExampleRoundTrips(t *testing.T) {
	pairs := figure4Pairs(t)
	engine := NewEngine()
	pol := &docPasswordPolicy{Email: "u@example.org"}

	for _, pair := range pairs {
		issued, want := pair[0], pair[1]

		// Track the issued query as the doc's prose describes: the
		// password literal's bytes carry the policy, the rest is
		// untainted.
		q := core.NewString(issued)
		if i := strings.Index(issued, "s3cretpw"); i >= 0 && strings.HasPrefix(issued, "INSERT") {
			q = core.Concat(
				core.NewString(issued[:i]),
				core.NewStringPolicy("s3cretpw", pol),
				core.NewString(issued[i+len("s3cretpw"):]),
			)
		}
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", issued, err)
		}
		rewritten, err := RewriteWithPolicies(engine, stmt)
		if err != nil {
			t.Fatalf("rewrite %q: %v", issued, err)
		}
		if got := rewritten.SQL(); got != want {
			t.Errorf("rewrite of\n  %s\nrenders\n  %s\nbut docs/SQL.md pins\n  %s", issued, got, want)
		}

		// The documented rewritten form must round-trip: parse → SQL()
		// reproduces it byte for byte.
		back, err := Parse(core.NewString(want))
		if err != nil {
			t.Fatalf("documented rewrite %q does not parse: %v", want, err)
		}
		if got := back.SQL(); got != want {
			t.Errorf("documented rewrite does not round-trip:\n  doc  %s\n  got  %s", want, got)
		}

		// Execute so later pairs see the schema (and the example is
		// live, not hypothetical).
		if _, _, err := engine.ExecuteRaw(rewritten); err != nil {
			t.Fatalf("execute rewritten %q: %v", rewritten.SQL(), err)
		}
	}
}

// TestSQLDocCoversEveryStatementForm fails when a statement the parser
// accepts goes undocumented in docs/SQL.md's grammar section.
func TestSQLDocCoversEveryStatementForm(t *testing.T) {
	data, err := os.ReadFile("../../docs/SQL.md")
	if err != nil {
		t.Fatalf("docs/SQL.md must exist: %v", err)
	}
	text := string(data)
	for _, form := range []string{
		"CREATE TABLE", "DROP TABLE", "CREATE INDEX", "DROP INDEX",
		"INSERT INTO", "SELECT", "UPDATE", "DELETE FROM",
		"ORDER BY", "LIMIT", "WHERE", "LIKE", "NULL",
		// The multi-table surface of §10.
		"INNER JOIN", "LEFT JOIN", "GROUP BY",
		"COUNT(*)", "COUNT(col)", "SUM(col)", "MIN(col)", "MAX(col)", "PUNION(col)",
		// The binding surface of §6 and the driver facade of §7.
		"placeholder", "Prepare", "Stmt.Query", "Stmt.Exec",
		"NumArgs", "resinsql", "sql.Register",
	} {
		if !strings.Contains(text, form) {
			t.Errorf("docs/SQL.md does not document %s", form)
		}
	}
}

// TestFigure4PreparedExampleRoundTrips pins docs/SQL.md §6's prepared
// worked example: parsing the documented prepared text, binding the
// documented arguments, and running the Figure 4 rewrite must produce
// exactly the documented engine-side statement — byte for byte the
// same INSERT the spliced example produces, proving bound values and
// spliced literals persist policies identically.
func TestFigure4PreparedExampleRoundTrips(t *testing.T) {
	data, err := os.ReadFile("../../docs/SQL.md")
	if err != nil {
		t.Fatalf("docs/SQL.md must exist: %v", err)
	}
	text := string(data)
	start := strings.Index(text, "<!-- figure4-prepared:begin -->")
	end := strings.Index(text, "<!-- figure4-prepared:end -->")
	if start < 0 || end < 0 || end < start {
		t.Fatal("docs/SQL.md lost its figure4-prepared:begin/end markers")
	}
	var prepared, handed string
	state := 0
	for _, line := range strings.Split(text[start:end], "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "-- application prepares:":
			state = 1
		case line == "-- the filter hands the engine:":
			state = 2
		case strings.HasPrefix(line, "--"), line == "", strings.HasPrefix(line, "```"), strings.HasPrefix(line, "<!--"):
		default:
			switch state {
			case 1:
				prepared = line
			case 2:
				handed = line
			}
			state = 0
		}
	}
	if prepared == "" || handed == "" {
		t.Fatal("figure4-prepared block must pin a prepared statement and its rewrite")
	}

	// Build the engine state the example assumes (the §3 CREATE).
	engine := NewEngine()
	create, err := Parse(core.NewString("CREATE TABLE users (email TEXT, password TEXT)"))
	if err != nil {
		t.Fatal(err)
	}
	rewrittenCreate, err := RewriteWithPolicies(engine, create)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.ExecuteRaw(rewrittenCreate); err != nil {
		t.Fatal(err)
	}

	// Parse the documented prepared text and bind the documented
	// arguments: a plain email, a tracked password.
	stmt, err := Parse(core.NewString(prepared))
	if err != nil {
		t.Fatalf("documented prepared text does not parse: %v", err)
	}
	pol := &docPasswordPolicy{Email: "u@example.org"}
	bound, err := bindPositional([]any{"u@example.org", core.NewStringPolicy("s3cretpw", pol)})
	if err != nil {
		t.Fatal(err)
	}
	stmt = substituteSlots(t, stmt, bound.exprs)
	rewritten, err := RewriteWithPolicies(engine, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := rewritten.SQL(); got != handed {
		t.Errorf("bound rewrite renders\n  %s\nbut docs/SQL.md pins\n  %s", got, handed)
	}
	if _, _, err := engine.ExecuteRaw(rewritten); err != nil {
		t.Fatalf("execute rewritten: %v", err)
	}
}

// TestOrderedIndexDocExamples pins docs/SQL.md §4's worked examples:
// the block's setup statements build the documented table, each
// documented query runs against the indexed engine AND a forced-scan
// twin (no CREATE INDEX), and both must produce exactly the documented
// first-column values in the documented order — the doc's range, LIKE,
// ORDER BY pushdown, NULL-placement, and coercion-fallback claims all
// stay live.
func TestOrderedIndexDocExamples(t *testing.T) {
	data, err := os.ReadFile("../../docs/SQL.md")
	if err != nil {
		t.Fatalf("docs/SQL.md must exist: %v", err)
	}
	text := string(data)
	start := strings.Index(text, "<!-- ordered-index:begin -->")
	end := strings.Index(text, "<!-- ordered-index:end -->")
	if start < 0 || end < 0 || end < start {
		t.Fatal("docs/SQL.md lost its ordered-index:begin/end markers")
	}

	indexed, scan := NewEngine(), NewEngine()
	exec := func(e *Engine, q string) {
		t.Helper()
		stmt, err := Parse(core.NewString(q))
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, _, err := e.ExecuteRaw(stmt); err != nil {
			t.Fatalf("execute %q: %v", q, err)
		}
	}

	var query string
	checked := 0
	for _, line := range strings.Split(text[start:end], "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "-- SELECT"):
			query = strings.TrimPrefix(line, "-- ")
		case strings.HasPrefix(line, "--   -> "):
			if query == "" {
				t.Fatalf("expected values %q without a preceding query", line)
			}
			var want []string
			for _, v := range strings.Split(strings.TrimPrefix(line, "--   -> "), ",") {
				want = append(want, strings.TrimSpace(v))
			}
			for name, e := range map[string]*Engine{"indexed": indexed, "scan": scan} {
				stmt, err := Parse(core.NewString(query))
				if err != nil {
					t.Fatalf("parse %q: %v", query, err)
				}
				res, _, err := e.ExecuteRaw(stmt)
				if err != nil {
					t.Fatalf("%s: execute %q: %v", name, query, err)
				}
				var got []string
				for _, row := range res.rows {
					got = append(got, row[0].String())
				}
				if strings.Join(got, ", ") != strings.Join(want, ", ") {
					t.Errorf("%s: %s\n  doc pins %v\n  got      %v", name, query, want, got)
				}
			}
			query = ""
			checked++
		case line == "" || strings.HasPrefix(line, "```") || strings.HasPrefix(line, "<!--") || strings.HasPrefix(line, "--"):
		default: // setup statement
			exec(indexed, line)
			if !strings.HasPrefix(line, "CREATE INDEX") {
				exec(scan, line)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("ordered-index block pins only %d queries; the doc examples shrank", checked)
	}
}

// TestTxVisibilityDocExample executes docs/SQL.md §9's worked
// visibility timeline step by step: the snapshot read (step 3), the
// per-row commit that preserves a concurrent direct write (steps 5–6),
// and the first-committer-wins rejection (steps 8–10). If the
// visibility rules change, the doc's table must change with this test.
func TestTxVisibilityDocExample(t *testing.T) {
	db := Open(core.NewRuntime())
	db.MustExec("CREATE TABLE accounts (owner TEXT, balance INT)")
	db.MustExec("INSERT INTO accounts (owner, balance) VALUES ('alice', 70), ('bob', 30)")
	balance := func(q interface {
		QueryRaw(string, ...any) (*Result, error)
	}, owner string) int64 {
		t.Helper()
		res, err := q.QueryRaw("SELECT balance FROM accounts WHERE owner = ?", owner)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("%s: %d rows", owner, res.Len())
		}
		return res.Get(0, "balance").Int.Value()
	}

	// Steps 1–4: T1's snapshot predates the direct write and holds.
	t1 := db.Begin()
	if got := balance(t1, "alice"); got != 70 {
		t.Fatalf("step 1: alice = %d, want 70", got)
	}
	db.MustExec("UPDATE accounts SET balance = 100 WHERE owner = 'alice'")
	if got := balance(t1, "alice"); got != 70 {
		t.Fatalf("step 3: alice = %d, want 70 (snapshot read)", got)
	}
	if got := balance(db, "alice"); got != 100 {
		t.Fatalf("step 4: alice = %d, want 100", got)
	}

	// Steps 5–6: T1 writes only bob, so its commit succeeds and the
	// concurrent alice write survives the merge.
	t1.MustExec("UPDATE accounts SET balance = 35 WHERE owner = 'bob'")
	if err := t1.Commit(); err != nil {
		t.Fatalf("step 5: commit = %v, want nil (write sets are per-row)", err)
	}
	if a, b := balance(db, "alice"), balance(db, "bob"); a != 100 || b != 35 {
		t.Fatalf("step 6: alice = %d, bob = %d, want 100, 35", a, b)
	}

	// Steps 7–10: the lost-update rejection.
	t2, t3 := db.Begin(), db.Begin()
	if b2, b3 := balance(t2, "bob"), balance(t3, "bob"); b2 != 35 || b3 != 35 {
		t.Fatalf("step 7: T2 sees %d, T3 sees %d, want 35, 35", b2, b3)
	}
	t2.MustExec("UPDATE accounts SET balance = 36 WHERE owner = 'bob'")
	t3.MustExec("UPDATE accounts SET balance = 40 WHERE owner = 'bob'")
	if err := t2.Commit(); err != nil {
		t.Fatalf("step 8: %v", err)
	}
	if err := t3.Commit(); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("step 9: commit = %v, want ErrTxConflict", err)
	}
	if got := balance(db, "bob"); got != 36 {
		t.Fatalf("step 10: bob = %d, want 36", got)
	}
}

// TestJoinAggDocExamples executes docs/SQL.md §10.5's worked block
// verbatim. Every single-quoted setup literal is tainted with
// docs.ReviewPolicy before execution, each pinned query runs through
// BOTH executors (diffPlanned: hash join vs nested-loop oracle), and
// the first column of each result row must match the documented value,
// NULLness, and taint: a † marker pins "this cell carries the policy",
// its absence pins "this cell carries none". The doc's propagation
// claims — COUNT(*)/SUM of untainted ints stay clean while joined
// strings, MIN, and unioned group keys stay tainted — cannot drift
// from the engine without failing here.
func TestJoinAggDocExamples(t *testing.T) {
	data, err := os.ReadFile("../../docs/SQL.md")
	if err != nil {
		t.Fatalf("docs/SQL.md must exist: %v", err)
	}
	text := string(data)
	start := strings.Index(text, "<!-- join-agg:begin -->")
	end := strings.Index(text, "<!-- join-agg:end -->")
	if start < 0 || end < 0 || end < start {
		t.Fatal("docs/SQL.md lost its join-agg:begin/end markers")
	}

	db := Open(core.NewRuntime())
	pol := &docReviewPolicy{}
	// Taint the bytes between each quote pair, exactly as an application
	// splicing untrusted tracked strings into SQL text would.
	taintLiterals := func(q string) core.String {
		parts := strings.Split(q, "'")
		out := core.NewString(parts[0])
		for i := 1; i < len(parts); i++ {
			out = core.Concat(out, core.NewString("'"))
			if i%2 == 1 {
				out = core.Concat(out, core.NewStringPolicy(parts[i], pol))
			} else {
				out = core.Concat(out, core.NewString(parts[i]))
			}
		}
		return out
	}

	var query string
	checked := 0
	for _, line := range strings.Split(text[start:end], "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "-- SELECT"):
			query = strings.TrimPrefix(line, "-- ")
		case strings.HasPrefix(line, "--   -> "):
			if query == "" {
				t.Fatalf("expected values %q without a preceding query", line)
			}
			type wantCell struct {
				val     string
				tainted bool
			}
			var want []wantCell
			for _, v := range strings.Split(strings.TrimPrefix(line, "--   -> "), ",") {
				v = strings.TrimSpace(v)
				w := wantCell{val: strings.TrimSuffix(v, "†"), tainted: strings.HasSuffix(v, "†")}
				want = append(want, w)
			}
			diffPlanned(t, db, query)
			requirePlannedMatchesUncached(t, db, core.NewString(query))
			res, err := db.Query(core.NewString(query))
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			if res.Len() != len(want) {
				t.Fatalf("%s: %d rows, doc pins %d", query, res.Len(), len(want))
			}
			for i, w := range want {
				c := res.Rows[i][0]
				switch {
				case w.val == "NULL":
					if !c.Null {
						t.Errorf("%s row %d: %q, doc pins NULL", query, i, c.Text().Raw())
					}
				case c.Null:
					t.Errorf("%s row %d: NULL, doc pins %q", query, i, w.val)
				case c.Text().Raw() != w.val:
					t.Errorf("%s row %d: %q, doc pins %q", query, i, c.Text().Raw(), w.val)
				}
				if got := c.Text().IsTainted(); got != w.tainted {
					t.Errorf("%s row %d (%s): tainted=%v, doc pins %v", query, i, w.val, got, w.tainted)
				}
			}
			query = ""
			checked++
		case line == "" || strings.HasPrefix(line, "```") || strings.HasPrefix(line, "<!--") || strings.HasPrefix(line, "--"):
		default: // setup statement, quoted literals tainted
			if _, err := db.Exec(taintLiterals(line)); err != nil {
				t.Fatalf("setup %q: %v", line, err)
			}
		}
	}
	if checked < 6 {
		t.Fatalf("join-agg block pins only %d queries; the doc examples shrank", checked)
	}
}
