package sqldb

import (
	"fmt"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// FuzzJoinAggregate feeds arbitrary query tails to a fixed two-table
// SELECT prefix and diffs the planned executor (hash join,
// index-assisted LIMIT) and the prepared route against the
// nested-loop/scan reference executor on the same database. The invariants: never panic, fail with
// byte-identical error text, or succeed with identical rows, order, and
// decoded policy sets (requireSameResults — aggregate policy unions
// included). Runs in the CI fuzz smoke alongside FuzzPredicateAnalyzer.
func FuzzJoinAggregate(f *testing.F) {
	db := Open(core.NewRuntime())
	db.MustExec("CREATE TABLE papers (id INT, title TEXT, score INT)")
	db.MustExec("CREATE TABLE reviews (paper INT, reviewer TEXT, score INT)")
	// Seed with NULL join keys, dangling references, duplicates on both
	// sides, and tainted text so the diff covers policy decode through
	// both executors.
	for i := 0; i < 24; i++ {
		idLit := fmt.Sprintf("%d", i%9)
		if i%7 == 0 {
			idLit = "NULL"
		}
		q := core.Concat(
			core.NewString(fmt.Sprintf("INSERT INTO papers (id, title, score) VALUES (%s, '", idLit)),
			core.NewStringPolicy(fmt.Sprintf("t%d", i%5), &sanitize.UntrustedData{Source: "fuzz"}),
			core.NewString(fmt.Sprintf("', %d)", i%4)),
		)
		if _, err := db.Query(q); err != nil {
			f.Fatal(err)
		}
		paperLit := fmt.Sprintf("%d", i%12) // some point past every paper
		if i%8 == 0 {
			paperLit = "NULL"
		}
		q = core.Concat(
			core.NewString(fmt.Sprintf("INSERT INTO reviews (paper, reviewer, score) VALUES (%s, '", paperLit)),
			core.NewStringPolicy(fmt.Sprintf("r%d", i%6), &sanitize.UntrustedData{Source: "fuzz"}),
			core.NewString(fmt.Sprintf("', %d)", i%5)),
		)
		if _, err := db.Query(q); err != nil {
			f.Fatal(err)
		}
	}
	db.MustExec("CREATE INDEX ON papers (id)")
	db.MustExec("CREATE INDEX ON reviews (paper)")

	for _, seed := range []string{
		"papers.title FROM papers INNER JOIN reviews ON papers.id = reviews.paper",
		"* FROM papers LEFT JOIN reviews ON papers.id = reviews.paper ORDER BY papers.id",
		"title, reviewer FROM papers JOIN reviews ON id = paper ORDER BY reviewer DESC LIMIT 3",
		"papers.id, COUNT(*) FROM papers LEFT JOIN reviews ON papers.id = reviews.paper GROUP BY papers.id",
		"reviewer, SUM(reviews.score), MIN(papers.title) FROM papers JOIN reviews ON id = paper GROUP BY reviewer ORDER BY reviewer",
		"COUNT(*), SUM(score) FROM papers",
		"MAX(title) FROM papers WHERE score > 2",
		"paper, COUNT(paper), MAX(reviewer) FROM reviews GROUP BY paper ORDER BY paper DESC LIMIT 4",
		"score FROM papers JOIN reviews ON papers.id = reviews.paper",
		"title FROM papers JOIN reviews ON papers.id = papers.score",
		"SUM(title) FROM papers",
		"* FROM papers GROUP BY title",
		"title, COUNT(*) FROM papers GROUP BY score",
		"papers.score, reviews.score FROM papers JOIN reviews ON papers.score = reviews.score WHERE reviewer LIKE 'r%' ORDER BY papers.id LIMIT 5",
		"COUNT(*) FROM papers ORDER BY title",
		"PUNION(title) FROM papers GROUP BY score",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, tail string) {
		q := "SELECT " + tail
		stmt, err := Parse(core.NewString(q))
		if err != nil {
			return // parse rejection is a valid outcome; no executor ran
		}
		sel, ok := stmt.(*Select)
		if !ok {
			return // the prefix does not force SELECT; other verbs have no dual executor
		}
		e := db.Engine()
		planned, aerr := executeWithPolicies(e, sel)
		forced := *sel
		forced.ForceLoop, forced.ForceScan = true, true
		oracle, berr := executeWithPolicies(e, &forced)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("%q: planned err=%v, oracle err=%v", q, aerr, berr)
		}
		if aerr != nil {
			if aerr.Error() != berr.Error() {
				t.Fatalf("%q: error text differs:\n  planned %v\n  oracle  %v", q, aerr, berr)
			}
			return
		}
		requireSameResults(t, q, planned, oracle)
	})
}
