package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// The reference-executor differential harness for joins and aggregates:
// every generated query runs against the SAME database through the
// planner (hash join, index-assisted LIMIT), with ForceLoop+ForceScan —
// the nested-loop-over-scans reference executor whose semantics are
// obvious by inspection — and twice as query text through DB.Query,
// whose second run reuses the first one's bound plan. The executions
// must fail with byte-identical errors or succeed with identical rows,
// identical order, and identical decoded policy sets — including the
// PUNION-carried unions on aggregate outputs. This is the executable
// form of docs/SQL.md §10's propagation rules. FuzzJoinAggregate reuses
// diffPlanned over adversarial query text.

// diffPlanned executes one SELECT through the planned path, through the
// nested-loop/scan oracle and twice through the prepared route,
// requiring matching error behavior and, on success, results identical
// down to serialized policy annotations.
func diffPlanned(t testing.TB, db *DB, q string) {
	t.Helper()
	stmt, err := Parse(core.NewString(q))
	if err != nil {
		t.Fatalf("%s: parse: %v", q, err)
	}
	sel, ok := stmt.(*Select)
	if !ok {
		t.Fatalf("%s: not a SELECT", q)
	}
	e := db.Engine()
	planned, aerr := executeWithPolicies(e, sel)
	forced := *sel
	forced.ForceLoop, forced.ForceScan = true, true
	oracle, berr := executeWithPolicies(e, &forced)
	same := func(arm string, res *Result, err error) {
		t.Helper()
		if (aerr == nil) != (err == nil) {
			t.Fatalf("%s: planned err=%v, %s err=%v", q, aerr, arm, err)
		}
		if aerr != nil {
			if aerr.Error() != err.Error() {
				t.Fatalf("%s: error text differs:\n  planned %v\n  %s %v", q, aerr, arm, err)
			}
			return
		}
		requireSameResults(t, q+" ("+arm+")", planned, res)
	}
	same("oracle", oracle, berr)
	for _, arm := range []string{"prepared", "prepared again"} {
		res, err := db.QueryRaw(q)
		same(arm, res, err)
	}
}

// joinWorkload generates random two-table queries over the fixed
// papers/reviews schema. Both tables carry a column named score, so the
// generator can also exercise the ambiguous-unqualified-reference error
// path; a small fraction of ON clauses and projections are deliberately
// invalid because the differential contract covers error text too.
type joinWorkload struct {
	t   testing.TB
	db  *DB
	rng *rand.Rand
}

func (w *joinWorkload) litFor(col string) string {
	r := w.rng
	if r.Intn(10) == 0 {
		return "NULL"
	}
	base := col[strings.IndexByte(col, '.')+1:]
	switch base {
	case "id", "paper", "score":
		return fmt.Sprintf("%d", r.Intn(30)-4)
	default:
		words := []string{"ant", "bee", "cat", "dog", "", "zz", "ant%", "a_t"}
		return "'" + words[r.Intn(len(words))] + "'"
	}
}

func (w *joinWorkload) randJoinPredicate(depth int, cols []string) string {
	r := w.rng
	if depth <= 0 || r.Intn(3) > 0 {
		col := cols[r.Intn(len(cols))]
		op := []string{"=", "!=", "<", "<=", ">", ">=", "LIKE"}[r.Intn(7)]
		lit := w.litFor(col)
		if r.Intn(8) == 0 { // reversed operand order
			return fmt.Sprintf("%s %s %s", lit, op, col)
		}
		return fmt.Sprintf("%s %s %s", col, op, lit)
	}
	l, rr := w.randJoinPredicate(depth-1, cols), w.randJoinPredicate(depth-1, cols)
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s) OR (%s)", l, rr)
	case 1:
		return fmt.Sprintf("NOT (%s)", l)
	default:
		return fmt.Sprintf("(%s) AND (%s)", l, rr)
	}
}

func (w *joinWorkload) randAgg(col string) string {
	r := w.rng
	if r.Intn(5) == 0 {
		return "COUNT(*)"
	}
	agg := []string{"COUNT", "SUM", "MIN", "MAX"}[r.Intn(4)]
	return fmt.Sprintf("%s(%s)", agg, col)
}

// randJoinSelect mixes INNER/LEFT joins, GROUP BY with every aggregate,
// qualified and unqualified references, WHERE, ORDER BY, and LIMIT.
func (w *joinWorkload) randJoinSelect() string {
	r := w.rng
	join := r.Intn(4) > 0
	cols := []string{"papers.id", "papers.title", "papers.score", "id", "title"}
	if join {
		cols = append(cols, "reviews.paper", "reviews.reviewer", "reviews.score", "paper", "reviewer")
		if r.Intn(12) == 0 {
			cols = append(cols, "score") // ambiguous in a join: error arm
		}
	} else {
		cols = append(cols, "score")
	}
	randCol := func() string { return cols[r.Intn(len(cols))] }

	from := "papers"
	if join {
		jt := []string{"INNER JOIN", "LEFT JOIN", "JOIN"}[r.Intn(3)]
		on := []string{
			"papers.id = reviews.paper",
			"reviews.paper = papers.id",
			"id = paper",
			"papers.score = reviews.score",
		}[r.Intn(4)]
		if r.Intn(16) == 0 { // invalid ON shapes: same-side, unknown, ambiguous
			on = []string{"papers.id = papers.score", "papers.id = banana", "score = score"}[r.Intn(3)]
		}
		from += " " + jt + " reviews ON " + on
	}

	grouped := r.Intn(3) == 0
	var items, groupBy []string
	if grouped {
		want := 1 + r.Intn(2)
		seen := map[string]bool{}
		for len(groupBy) < want {
			c := randCol()
			if !seen[c] {
				seen[c] = true
				groupBy = append(groupBy, c)
			}
		}
		for _, g := range groupBy {
			if r.Intn(4) > 0 {
				items = append(items, g)
			}
		}
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			items = append(items, w.randAgg(randCol()))
		}
		if r.Intn(12) == 0 { // bare column outside GROUP BY: error arm
			items = append(items, randCol())
		}
	} else {
		switch r.Intn(5) {
		case 0:
			items = []string{"*"}
		case 1: // whole-input aggregates, no GROUP BY
			for i, n := 0, 1+r.Intn(3); i < n; i++ {
				items = append(items, w.randAgg(randCol()))
			}
		default:
			for i, n := 0, 1+r.Intn(4); i < n; i++ {
				items = append(items, randCol())
			}
		}
	}

	q := "SELECT " + strings.Join(items, ", ") + " FROM " + from
	if r.Intn(3) == 0 {
		q += " WHERE " + w.randJoinPredicate(2, cols)
	}
	if r.Intn(3) > 0 {
		ob := randCol()
		if len(groupBy) > 0 && r.Intn(6) > 0 {
			ob = groupBy[r.Intn(len(groupBy))]
		}
		q += " ORDER BY " + ob
		if r.Intn(2) == 0 {
			q += " DESC"
		}
	}
	if r.Intn(4) == 0 {
		q += fmt.Sprintf(" LIMIT %d", r.Intn(10))
	}
	return q
}

// TestJoinAggregateDifferentialProperty is the seeded random workload:
// tainted INSERT/UPDATE/DELETE churn on both tables (reviews routinely
// reference missing papers, so LEFT JOIN padding and empty groups occur
// naturally), index churn, and a stream of random join/aggregate
// SELECTs diffed against the nested-loop/scan oracle.
func TestJoinAggregateDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20090211)) // seeded: reruns are identical
	db := Open(core.NewRuntime())
	w := &joinWorkload{t: t, db: db, rng: rng}

	db.MustExec("CREATE TABLE papers (id INT, title TEXT, score INT)")
	db.MustExec("CREATE TABLE reviews (paper INT, reviewer TEXT, score INT)")
	db.MustExec("CREATE INDEX ON papers (id)")
	db.MustExec("CREATE INDEX ON reviews (paper)")

	taint := func(s string) core.String {
		return core.NewStringPolicy(s, &sanitize.UntrustedData{Source: "join-diff"})
	}
	words := []string{"ant", "antler", "bee", "beetle", "cat", "dog", "zz", ""}
	randWord := func() string { return words[rng.Intn(len(words))] }
	exec := func(q string, args ...any) {
		t.Helper()
		if _, err := db.QueryRaw(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	nextPaper := 0
	for op := 0; op < 400; op++ {
		switch rng.Intn(12) {
		case 0, 1: // INSERT paper: tainted title, sometimes NULL id/score
			var id, score any = nextPaper, rng.Intn(20) - 3
			if rng.Intn(10) == 0 {
				id = nil
			}
			if rng.Intn(6) == 0 {
				score = nil
			}
			exec("INSERT INTO papers (id, title, score) VALUES (?, ?, ?)", id, taint(randWord()), score)
			nextPaper++
		case 2, 3, 4: // INSERT review: tainted reviewer, sometimes tainted score
			var paper, score any = rng.Intn(nextPaper + 3), rng.Intn(20) - 3
			if rng.Intn(10) == 0 {
				paper = nil
			}
			if rng.Intn(4) == 0 {
				score = core.NewInt(int64(rng.Intn(20) - 3)).WithPolicy(&sanitize.UntrustedData{Source: "join-diff"})
			}
			exec("INSERT INTO reviews (paper, reviewer, score) VALUES (?, ?, ?)", paper, taint(randWord()), score)
		case 5: // UPDATE moves join keys on one side
			if rng.Intn(2) == 0 {
				exec("UPDATE papers SET id = ?, title = ? WHERE score = ?",
					rng.Intn(nextPaper+3), taint(randWord()), rng.Intn(20)-3)
			} else {
				exec("UPDATE reviews SET paper = ? WHERE reviewer = ?",
					rng.Intn(nextPaper+3), randWord())
			}
		case 6: // DELETE
			if rng.Intn(2) == 0 {
				exec("DELETE FROM papers WHERE score < ?", rng.Intn(8)-4)
			} else {
				exec("DELETE FROM reviews WHERE paper = ?", rng.Intn(nextPaper+3))
			}
		case 7: // index churn on the join columns
			tbl, col := "papers", "id"
			if rng.Intn(2) == 0 {
				tbl, col = "reviews", "paper"
			}
			if _, err := db.QueryRaw(fmt.Sprintf("DROP INDEX ON %s (%s)", tbl, col)); err != nil {
				db.MustExec(fmt.Sprintf("CREATE INDEX ON %s (%s)", tbl, col))
			}
		default: // a batch of random join/aggregate SELECTs
			for i := 0; i < 3; i++ {
				diffPlanned(t, db, w.randJoinSelect())
			}
		}
	}

	// A fixed battery over the final state: every join type, every
	// aggregate, the policy-union carriers, and the error shapes the
	// executor special-cases, each diffed against the oracle.
	for _, q := range []string{
		"SELECT * FROM papers INNER JOIN reviews ON papers.id = reviews.paper",
		"SELECT * FROM papers LEFT JOIN reviews ON papers.id = reviews.paper ORDER BY papers.id",
		"SELECT papers.title, reviews.reviewer FROM papers JOIN reviews ON id = paper ORDER BY reviews.reviewer DESC LIMIT 5",
		"SELECT title, reviewer FROM papers LEFT JOIN reviews ON reviews.paper = papers.id WHERE papers.score > 2 ORDER BY title",
		"SELECT papers.id, COUNT(*), COUNT(reviews.score), SUM(reviews.score), MIN(reviews.reviewer), MAX(reviews.reviewer) FROM papers LEFT JOIN reviews ON papers.id = reviews.paper GROUP BY papers.id ORDER BY papers.id",
		"SELECT title, COUNT(*) FROM papers JOIN reviews ON id = paper GROUP BY title ORDER BY title DESC",
		"SELECT COUNT(*), SUM(score) FROM papers",
		"SELECT MIN(title), MAX(title) FROM papers WHERE score > 100",
		"SELECT reviewer, SUM(score) FROM reviews GROUP BY reviewer ORDER BY reviewer LIMIT 3",
		"SELECT paper, COUNT(paper) FROM reviews GROUP BY paper ORDER BY paper DESC",
		"SELECT papers.score, reviews.score FROM papers JOIN reviews ON papers.score = reviews.score ORDER BY papers.id LIMIT 7",
		// error shapes: both paths must produce identical text
		"SELECT score FROM papers JOIN reviews ON papers.id = reviews.paper",
		"SELECT title FROM papers JOIN reviews ON papers.id = papers.score",
		"SELECT SUM(title) FROM papers",
		"SELECT * FROM papers GROUP BY title",
		"SELECT title, COUNT(*) FROM papers GROUP BY score",
		"SELECT COUNT(*) FROM papers ORDER BY title",
		"SELECT banana FROM papers JOIN reviews ON id = paper",
		"SELECT title FROM papers JOIN papers ON id = id",
	} {
		diffPlanned(t, db, q)
	}
}

// TestJoinDifferentialUnderChurn is the MVCC extension: ONE database
// churns under concurrent writers while the main loop pins a snapshot
// and runs each random join/aggregate query twice against that same
// snapshot — once planned (hash join), once ForceLoop+ForceScan. The
// engine-level results must be deeply equal (Star projects the shadow
// policy columns too), which proves the hash build sees exactly the
// version frontier the nested loop scans, even mid-churn.
func TestJoinDifferentialUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(20090211))
	db := openDB(t)
	db.MustExec("CREATE TABLE papers (id INT, title TEXT, score INT)")
	db.MustExec("CREATE TABLE reviews (paper INT, reviewer TEXT, score INT)")
	db.MustExec("CREATE INDEX ON papers (id)")
	db.MustExec("CREATE INDEX ON reviews (paper)")
	taint := func(s string) core.String {
		return core.NewStringPolicy(s, &sanitize.UntrustedData{Source: "join-churn"})
	}
	words := []string{"ant", "antler", "bee", "beetle", "cat", "zz", ""}
	for i := 0; i < 20; i++ {
		if _, err := db.QueryRaw("INSERT INTO papers (id, title, score) VALUES (?, ?, ?)",
			i%12, taint(words[i%len(words)]), i%5); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryRaw("INSERT INTO reviews (paper, reviewer, score) VALUES (?, ?, ?)",
			i%15, taint(words[(i+2)%len(words)]), i%7); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch wrng.Intn(4) {
				case 0:
					_, err = db.QueryRaw("INSERT INTO papers (id, title, score) VALUES (?, ?, ?)",
						wrng.Intn(15), taint(words[wrng.Intn(len(words))]), wrng.Intn(5))
				case 1:
					_, err = db.QueryRaw("INSERT INTO reviews (paper, reviewer, score) VALUES (?, ?, ?)",
						wrng.Intn(15), taint(words[wrng.Intn(len(words))]), wrng.Intn(7))
				case 2:
					_, err = db.QueryRaw("UPDATE reviews SET paper = ?, reviewer = ? WHERE paper = ?",
						wrng.Intn(15), taint(words[wrng.Intn(len(words))]), wrng.Intn(15))
				case 3:
					_, err = db.QueryRaw("DELETE FROM papers WHERE id = ? AND score = ?",
						wrng.Intn(15), wrng.Intn(5))
				}
				if err != nil {
					t.Errorf("churn writer: %v", err)
					return
				}
			}
		}(rng.Int63())
	}

	w := &joinWorkload{t: t, db: db, rng: rng}
	iters := 400
	if testing.Short() {
		iters = 60
	}
	e := db.Engine()
	for i := 0; i < iters; i++ {
		qtext := w.randJoinSelect()
		stmt, err := Parse(core.NewString(qtext))
		if err != nil {
			t.Fatalf("%s: parse: %v", qtext, err)
		}
		sel := stmt.(*Select)

		// Pin one snapshot under the read lock (so vacuum keeps its
		// versions), then run both executors against it lock-free while
		// the writers keep moving the frontier.
		e.mu.RLock()
		snap := e.acquireSnap()
		e.mu.RUnlock()
		planned, _, perr := e.selectAt(sel, nil, nil, &snap)
		forced := *sel
		forced.ForceLoop, forced.ForceScan = true, true
		oracle, _, oerr := e.selectAt(&forced, nil, nil, &snap)
		e.releaseSnap(snap)

		if (perr == nil) != (oerr == nil) {
			t.Fatalf("%s: planned err=%v, oracle err=%v", qtext, perr, oerr)
		}
		if perr != nil {
			if perr.Error() != oerr.Error() {
				t.Fatalf("%s: error text differs:\n  planned %v\n  oracle  %v", qtext, perr, oerr)
			}
			continue
		}
		if !reflect.DeepEqual(refResultOf(planned), refResultOf(oracle)) {
			t.Fatalf("%s @ snap %d: hash join diverged from nested loop over the same snapshot\nplanned: %+v\noracle:  %+v",
				qtext, snap, planned, oracle)
		}
	}
	close(stop)
	wg.Wait()
}

// TestJoinAmbiguousColumnNamesBothTables pins the diagnostic contract
// for unqualified references that match both join inputs: the error is
// ErrNoColumn and its text names both candidate columns, qualified.
func TestJoinAmbiguousColumnNamesBothTables(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE papers (id INT, title TEXT)")
	db.MustExec("CREATE TABLE drafts (id INT, title TEXT)")
	db.MustExec("INSERT INTO papers (id, title) VALUES (1, 'a')")
	db.MustExec("INSERT INTO drafts (id, title) VALUES (1, 'b')")

	_, err := db.QueryRaw("SELECT title FROM papers JOIN drafts ON papers.id = drafts.id")
	if !errors.Is(err, ErrNoColumn) {
		t.Fatalf("ambiguous column: got %v, want ErrNoColumn", err)
	}
	for _, want := range []string{"ambiguous", "papers.title", "drafts.title"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("ambiguous-column error %q does not mention %q", err, want)
		}
	}

	// Qualifying either side resolves it.
	for _, q := range []string{
		"SELECT papers.title FROM papers JOIN drafts ON papers.id = drafts.id",
		"SELECT drafts.title FROM papers JOIN drafts ON papers.id = drafts.id",
	} {
		if _, err := db.QueryRaw(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	// The same unqualified name with only one candidate stays legal.
	if _, err := db.QueryRaw("SELECT id, title FROM papers"); err != nil {
		t.Fatalf("single-table unqualified: %v", err)
	}
}

// TestLimitShortCircuit pins the LIMIT fast path: when candidates
// arrive already in output order (an ordered-index traversal, or no
// ORDER BY at all), the row loop stops at the LIMIT instead of
// materializing every match — observable through LimitStopCount.
func TestLimitShortCircuit(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE w (id INT, name TEXT)")
	db.MustExec("CREATE INDEX ON w (id)")
	for i := 0; i < 200; i++ {
		if _, err := db.QueryRaw("INSERT INTO w (id, name) VALUES (?, ?)",
			i, fmt.Sprintf("n%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stops := func(q string, wantRows int) uint64 {
		t.Helper()
		before := LimitStopCount()
		res, err := db.QueryRaw(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Len() != wantRows {
			t.Fatalf("%s: %d rows, want %d", q, res.Len(), wantRows)
		}
		return LimitStopCount() - before
	}

	// Ordered-index traversal: stops after 5 of 200 candidates.
	if n := stops("SELECT id, name FROM w ORDER BY id LIMIT 5", 5); n == 0 {
		t.Fatal("ordered-index LIMIT did not short-circuit")
	}
	// Descending traversal short-circuits too.
	if n := stops("SELECT id FROM w ORDER BY id DESC LIMIT 3", 3); n == 0 {
		t.Fatal("descending ordered-index LIMIT did not short-circuit")
	}
	// No ORDER BY: scan order is output order, so LIMIT can stop a scan.
	if n := stops("SELECT id FROM w LIMIT 4", 4); n == 0 {
		t.Fatal("unordered LIMIT did not short-circuit")
	}
	// ORDER BY without a usable index must NOT stop early — every match
	// is needed before the sort.
	if n := stops("SELECT id, name FROM w ORDER BY name LIMIT 5", 5); n != 0 {
		t.Fatal("LIMIT short-circuited before an explicit sort")
	}
	// A LIMIT larger than the match count never triggers the counter.
	if n := stops("SELECT id FROM w ORDER BY id LIMIT 100000", 200); n != 0 {
		t.Fatal("LIMIT larger than result set bumped the stop counter")
	}
	// And the short-circuited rows are the same rows the oracle returns.
	diffPlanned(t, db, "SELECT id, name FROM w ORDER BY id LIMIT 5")
	diffPlanned(t, db, "SELECT id, name FROM w ORDER BY id DESC LIMIT 3")
}

// TestAggregatePolicyUnion pins the propagation rules of docs/SQL.md §10
// on hand-built groups: an aggregate output cell carries the interned
// union of ALL its non-NULL input cells' policies (MIN/MAX included —
// the chosen value reveals information about every compared value),
// COUNT(*) carries none, NULL inputs are skipped, and empty groups
// yield NULL (or 0 for COUNT) with no policies.
func TestAggregatePolicyUnion(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE r (g TEXT, v INT, s TEXT)")
	polA := &sanitize.UntrustedData{Source: "srcA"}
	polB := &sanitize.UntrustedData{Source: "srcB"}
	ins := func(g any, v any, s any) {
		t.Helper()
		if _, err := db.QueryRaw("INSERT INTO r (g, v, s) VALUES (?, ?, ?)", g, v, s); err != nil {
			t.Fatal(err)
		}
	}
	ins("x", core.NewInt(1).WithPolicy(polA), core.NewStringPolicy("aa", polA))
	ins("x", core.NewInt(2).WithPolicy(polB), "bb") // untainted s
	ins("y", 7, "cc")                               // fully untainted group
	ins("z", nil, nil)                              // group of NULLs
	ins(core.NewStringPolicy("w", polA), 4, "dd")   // tainted group key

	res, err := db.QueryRaw(
		"SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(s) FROM r GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("%d groups, want 4", res.Len())
	}
	sources := func(c Cell) map[string]bool {
		var ps *core.PolicySet
		if c.IsInt {
			ps = c.Int.Policies()
		} else {
			ps = c.Str.Policies()
		}
		out := map[string]bool{}
		for _, p := range ps.Policies() {
			if u, ok := p.(*sanitize.UntrustedData); ok {
				out[u.Source] = true
			}
		}
		return out
	}
	row := func(g string) int {
		for i := 0; i < res.Len(); i++ {
			if res.Get(i, "g").Text().Raw() == g {
				return i
			}
		}
		t.Fatalf("no group %q", g)
		return -1
	}

	// Group x: inputs tainted srcA and srcB.
	x := row("x")
	if got := res.Get(x, "COUNT(*)"); got.Int.Value() != 2 || got.Int.IsTainted() {
		t.Fatalf("x COUNT(*) = %d tainted=%v, want 2 untainted", got.Int.Value(), got.Int.IsTainted())
	}
	for _, col := range []string{"COUNT(v)", "SUM(v)", "MIN(v)"} {
		got := sources(res.Get(x, col))
		if !got["srcA"] || !got["srcB"] || len(got) != 2 {
			t.Fatalf("x %s carries %v, want union {srcA, srcB}", col, got)
		}
	}
	if got := res.Get(x, "SUM(v)"); got.Int.Value() != 3 {
		t.Fatalf("x SUM(v) = %d, want 3", got.Int.Value())
	}
	// MAX(s) picks untainted "bb" but carries srcA: the comparison that
	// rejected "aa" leaked information about it.
	if got := res.Get(x, "MAX(s)"); got.Str.Raw() != "bb" || !sources(got)["srcA"] {
		t.Fatalf("x MAX(s) = %q sources=%v, want \"bb\" carrying srcA", got.Str.Raw(), sources(got))
	}

	// Group y: untainted inputs stay untainted.
	y := row("y")
	if got := res.Get(y, "SUM(v)"); got.Int.Value() != 7 || got.Int.IsTainted() {
		t.Fatalf("y SUM(v) = %d tainted=%v, want 7 untainted", got.Int.Value(), got.Int.IsTainted())
	}

	// Group z: NULL inputs are skipped; empty aggregates are NULL, COUNT 0.
	z := row("z")
	if got := res.Get(z, "COUNT(v)"); got.Int.Value() != 0 {
		t.Fatalf("z COUNT(v) = %d, want 0", got.Int.Value())
	}
	for _, col := range []string{"SUM(v)", "MIN(v)", "MAX(s)"} {
		if got := res.Get(z, col); !got.Null {
			t.Fatalf("z %s = %q, want NULL", col, got.Text().Raw())
		}
	}

	// Group w: the group-key output cell carries its input's policies.
	wr := row("w")
	if got := sources(res.Get(wr, "g")); !got["srcA"] {
		t.Fatalf("w group key carries %v, want srcA", got)
	}

	// Whole-input aggregate over an empty match set: one row, NULLs.
	res, err = db.QueryRaw("SELECT COUNT(*), SUM(v), MIN(s) FROM r WHERE g = 'missing'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("empty aggregate: %d rows, want 1", res.Len())
	}
	if got := res.Get(0, "COUNT(*)"); got.Int.Value() != 0 {
		t.Fatalf("empty COUNT(*) = %d, want 0", got.Int.Value())
	}
	if !res.Get(0, "SUM(v)").Null || !res.Get(0, "MIN(s)").Null {
		t.Fatal("empty SUM/MIN not NULL")
	}
}

// TestJoinPolicyPerCell pins the join row rule: each output cell keeps
// its own source cell's policy spans — joining does not smear taint
// across columns — and LEFT JOIN NULL padding carries no policies.
func TestJoinPolicyPerCell(t *testing.T) {
	db := openDB(t)
	db.MustExec("CREATE TABLE a (id INT, ta TEXT)")
	db.MustExec("CREATE TABLE b (id INT, tb TEXT)")
	polA := &sanitize.UntrustedData{Source: "left"}
	polB := &sanitize.UntrustedData{Source: "right"}
	if _, err := db.QueryRaw("INSERT INTO a (id, ta) VALUES (?, ?)", 1, core.NewStringPolicy("la", polA)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRaw("INSERT INTO a (id, ta) VALUES (?, ?)", 2, core.NewStringPolicy("solo", polA)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRaw("INSERT INTO b (id, tb) VALUES (?, ?)", 1, core.NewStringPolicy("rb", polB)); err != nil {
		t.Fatal(err)
	}

	res, err := db.QueryRaw("SELECT a.ta, b.tb FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("%d rows, want 2", res.Len())
	}
	srcs := func(s core.String) map[string]bool {
		out := map[string]bool{}
		for _, p := range s.Policies().Policies() {
			if u, ok := p.(*sanitize.UntrustedData); ok {
				out[u.Source] = true
			}
		}
		return out
	}
	ta, tb := srcs(res.Get(0, "a.ta").Str), srcs(res.Get(0, "b.tb").Str)
	if !ta["left"] || ta["right"] {
		t.Fatalf("left cell sources = %v, want exactly {left}", ta)
	}
	if !tb["right"] || tb["left"] {
		t.Fatalf("right cell sources = %v, want exactly {right}", tb)
	}
	pad := res.Get(1, "b.tb")
	if !pad.Null {
		t.Fatal("unmatched left row not padded with NULL")
	}
	if pad.Str.IsTainted() {
		t.Fatal("LEFT JOIN NULL padding carries policies")
	}
}
