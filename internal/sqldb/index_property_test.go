package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// The scan-vs-index differential harness: the same workload executes
// against two databases — one that declares (and churns) ordered
// indexes, and a forced-scan twin that never declares any — and every
// SELECT must return byte-identical rows, in identical order, with
// identical decoded policy sets. This is what turns docs/SQL.md §4's
// "index use can never change results" from a sentence into a tested
// invariant. FuzzPredicateAnalyzer reuses requireSameResults over
// adversarial WHERE/ORDER BY text.

// requireSameResults fails the test when two results differ in columns,
// row count, row order, cell bytes, or serialized policy annotations.
func requireSameResults(t testing.TB, q string, indexed, scan *Result) {
	t.Helper()
	if len(indexed.Columns) != len(scan.Columns) {
		t.Fatalf("%s: column count indexed=%d scan=%d", q, len(indexed.Columns), len(scan.Columns))
	}
	for i := range indexed.Columns {
		if indexed.Columns[i] != scan.Columns[i] {
			t.Fatalf("%s: column %d indexed=%q scan=%q", q, i, indexed.Columns[i], scan.Columns[i])
		}
	}
	if indexed.Len() != scan.Len() {
		t.Fatalf("%s: indexed %d rows, scan %d rows", q, indexed.Len(), scan.Len())
	}
	for i := range indexed.Rows {
		for j := range indexed.Rows[i] {
			a, b := indexed.Rows[i][j], scan.Rows[i][j]
			if a.Null != b.Null || a.IsInt != b.IsInt {
				t.Fatalf("%s: row %d col %d shape differs (null %v/%v, int %v/%v)",
					q, i, j, a.Null, b.Null, a.IsInt, b.IsInt)
			}
			at, bt := a.Text(), b.Text()
			if at.Raw() != bt.Raw() {
				t.Fatalf("%s: row %d col %d: indexed %q, scan %q", q, i, j, at.Raw(), bt.Raw())
			}
			aa, err := core.EncodeSpans(at)
			if err != nil {
				t.Fatalf("%s: encode indexed policies: %v", q, err)
			}
			ba, err := core.EncodeSpans(bt)
			if err != nil {
				t.Fatalf("%s: encode scan policies: %v", q, err)
			}
			if string(aa) != string(ba) {
				t.Fatalf("%s: row %d col %d policy sets differ:\n  indexed %s\n  scan    %s", q, i, j, aa, ba)
			}
		}
	}
}

// diffSelect runs one SELECT against both databases, requires matching
// error behavior, and (on success) identical results.
func diffSelect(t testing.TB, indexed, scan *DB, q string) {
	t.Helper()
	a, aerr := indexed.QueryRaw(q)
	b, berr := scan.QueryRaw(q)
	if (aerr == nil) != (berr == nil) {
		t.Fatalf("%s: indexed err=%v, scan err=%v", q, aerr, berr)
	}
	if aerr != nil {
		if aerr.Error() != berr.Error() {
			t.Fatalf("%s: error text differs:\n  indexed %v\n  scan    %v", q, aerr, berr)
		}
		return
	}
	requireSameResults(t, q, a, b)
}

// diffWorkload drives both databases through identical DML (the tracked
// query text is shared, so taints match byte for byte); index DDL goes
// only to the indexed side.
type diffWorkload struct {
	t             testing.TB
	indexed, scan *DB
	rng           *rand.Rand
}

func (w *diffWorkload) exec(q core.String) {
	w.t.Helper()
	_, aerr := w.indexed.Query(q)
	_, berr := w.scan.Query(q)
	if (aerr == nil) != (berr == nil) {
		w.t.Fatalf("%s: indexed err=%v, scan err=%v", q.Raw(), aerr, berr)
	}
}

// randLiteral renders a random literal for column col of the workload
// table: ints (sometimes as quoted digit strings), prefixed words, and
// NULL all occur.
func (w *diffWorkload) randLiteral(col string) string {
	r := w.rng
	if r.Intn(12) == 0 {
		return "NULL"
	}
	switch col {
	case "id", "val":
		n := r.Intn(40) - 5
		if r.Intn(6) == 0 {
			return fmt.Sprintf("'%d'", n) // string literal against INT column
		}
		return fmt.Sprintf("%d", n)
	default:
		words := []string{"ant", "antler", "bee", "beetle", "cat", "", "zz", "ant%", "a_t"}
		return "'" + words[r.Intn(len(words))] + "'"
	}
}

// randPredicate builds a random WHERE expression of bounded depth over
// the workload table's columns.
func (w *diffWorkload) randPredicate(depth int) string {
	r := w.rng
	if depth <= 0 || r.Intn(3) > 0 {
		cols := []string{"id", "name", "val", "tag"}
		col := cols[r.Intn(len(cols))]
		ops := []string{"=", "!=", "<", "<=", ">", ">=", "LIKE"}
		op := ops[r.Intn(len(ops))]
		lit := w.randLiteral(col)
		if r.Intn(8) == 0 { // reversed operand order
			return fmt.Sprintf("%s %s %s", lit, op, col)
		}
		return fmt.Sprintf("%s %s %s", col, op, lit)
	}
	l, rr := w.randPredicate(depth-1), w.randPredicate(depth-1)
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s) OR (%s)", l, rr)
	case 1:
		return fmt.Sprintf("NOT (%s)", l)
	default: // AND twice as likely: that's the spine the analyzer mines
		return fmt.Sprintf("(%s) AND (%s)", l, rr)
	}
}

// randSelect builds a random SELECT mixing projections, predicates,
// ORDER BY ASC|DESC, and LIMIT.
func (w *diffWorkload) randSelect() string {
	r := w.rng
	proj := []string{"*", "id, name", "name, val, tag", "id, id, name"}[r.Intn(4)]
	q := "SELECT " + proj + " FROM w"
	if r.Intn(5) > 0 {
		q += " WHERE " + w.randPredicate(2)
	}
	if r.Intn(3) > 0 {
		q += " ORDER BY " + []string{"id", "name", "val", "tag"}[r.Intn(4)]
		if r.Intn(2) == 0 {
			q += " DESC"
		}
	}
	if r.Intn(4) == 0 {
		q += fmt.Sprintf(" LIMIT %d", r.Intn(12))
	}
	return q
}

// TestIndexScanDifferentialProperty is the seeded random workload:
// DDL, tainted INSERT/UPDATE/DELETE, index churn on the indexed side
// only, and a stream of random SELECTs diffed between the two engines.
func TestIndexScanDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20090211)) // seeded: reruns are identical
	rt := core.NewRuntime()
	w := &diffWorkload{t: t, indexed: Open(rt), scan: Open(rt), rng: rng}

	w.exec(core.NewString("CREATE TABLE w (id INT, name TEXT, val INT, tag TEXT)"))
	w.indexed.MustExec("CREATE INDEX ON w (id)")
	w.indexed.MustExec("CREATE INDEX ON w (name)")

	taint := func(s string) core.String {
		return core.NewStringPolicy(s, &sanitize.UntrustedData{Source: "diff"})
	}
	words := []string{"ant", "antler", "anthem", "bee", "beetle", "cat", "dog", "zz", ""}
	randWord := func() string { return words[rng.Intn(len(words))] }

	nextID := 0
	for op := 0; op < 400; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // INSERT, every value possibly tainted or NULL
			var q core.String
			if rng.Intn(3) == 0 {
				q = core.Concat(
					core.NewString(fmt.Sprintf("INSERT INTO w (id, name, val, tag) VALUES (%d, '", nextID)),
					taint(randWord()),
					core.NewString(fmt.Sprintf("', %d, '%s')", rng.Intn(30)-5, randWord())),
				)
			} else {
				name, valLit := randWord(), fmt.Sprintf("%d", rng.Intn(30)-5)
				if rng.Intn(8) == 0 {
					valLit = "NULL"
				}
				idLit := fmt.Sprintf("%d", nextID)
				if rng.Intn(10) == 0 {
					idLit = "NULL"
				}
				q = core.NewString(fmt.Sprintf(
					"INSERT INTO w (id, name, val, tag) VALUES (%s, '%s', %s, '%s')",
					idLit, name, valLit, randWord()))
			}
			nextID++
			w.exec(q)
		case 4, 5: // UPDATE that moves rows between index keys
			q := core.Concat(
				core.NewString("UPDATE w SET name = '"),
				taint(randWord()),
				core.NewString(fmt.Sprintf("', id = %d WHERE %s", rng.Intn(40)-5, w.randPredicate(1))),
			)
			w.exec(q)
		case 6: // DELETE (positions shift; indexes rebuild)
			w.exec(core.NewString("DELETE FROM w WHERE " + w.randPredicate(1)))
		case 7: // index churn on the indexed side only
			col := []string{"id", "name", "val"}[rng.Intn(3)]
			if _, err := w.indexed.QueryRaw("DROP INDEX ON w (" + col + ")"); err != nil {
				w.indexed.MustExec("CREATE INDEX ON w (" + col + ")")
			}
		default: // a batch of random SELECTs
			for i := 0; i < 4; i++ {
				diffSelect(t, w.indexed, w.scan, w.randSelect())
			}
		}
	}

	// A fixed battery over the final state: the shapes the analyzer
	// special-cases, each diffed against the scan twin.
	for _, q := range []string{
		"SELECT * FROM w WHERE id >= 5 AND id < 20 ORDER BY id",
		"SELECT * FROM w WHERE id >= 5 AND id < 20 ORDER BY id DESC",
		"SELECT name FROM w WHERE id > 5 AND id > 10 AND id <= 25",
		"SELECT name FROM w WHERE 10 <= id AND 20 > id ORDER BY name",
		"SELECT id, name FROM w WHERE name LIKE 'ant%' ORDER BY name",
		"SELECT id, name FROM w WHERE name LIKE 'ant%' ORDER BY name DESC",
		"SELECT id, name FROM w WHERE name LIKE '%' ORDER BY id",
		"SELECT id, name FROM w WHERE name LIKE ''",
		"SELECT * FROM w WHERE id < '5'",
		"SELECT * FROM w WHERE id = 7 ORDER BY id DESC",
		"SELECT * FROM w WHERE val > 3 ORDER BY val LIMIT 5",
		"SELECT * FROM w ORDER BY id",
		"SELECT * FROM w ORDER BY id DESC",
		"SELECT * FROM w ORDER BY name LIMIT 7",
		"SELECT * FROM w WHERE id > NULL",
		"SELECT * FROM w WHERE id >= 0 AND name LIKE 'be%' ORDER BY id DESC LIMIT 3",
	} {
		diffSelect(t, w.indexed, w.scan, q)
	}
}

// TestIndexScanDifferentialUnderChurn is the MVCC extension of the
// differential harness: instead of two quiescent twin databases, ONE
// database churns under concurrent writers while the main loop pins a
// snapshot and runs each random SELECT twice against that same snapshot
// — once through the index planner, once with ForceScan. The two
// executions must agree byte for byte (rows, order, and the shadow
// policy columns Star projects at engine level), which proves the
// visible-key rule filters index candidates down to exactly what a
// scan of the same version frontier sees, even mid-churn.
func TestIndexScanDifferentialUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(20090211))
	db := openDB(t)
	db.MustExec("CREATE TABLE w (id INT, name TEXT, val INT, tag TEXT)")
	db.MustExec("CREATE INDEX ON w (id)")
	db.MustExec("CREATE INDEX ON w (name)")
	taint := func(s string) core.String {
		return core.NewStringPolicy(s, &sanitize.UntrustedData{Source: "churn"})
	}
	words := []string{"ant", "antler", "bee", "beetle", "cat", "zz", ""}
	for i := 0; i < 30; i++ {
		if _, err := db.QueryRaw("INSERT INTO w (id, name, val, tag) VALUES (?, ?, ?, ?)",
			i%20, taint(words[i%len(words)]), i%7, words[(i+3)%len(words)]); err != nil {
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
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := wrng.Intn(25)
				var err error
				switch wrng.Intn(3) {
				case 0:
					_, err = db.QueryRaw("INSERT INTO w (id, name, val, tag) VALUES (?, ?, ?, ?)",
						id, taint(words[wrng.Intn(len(words))]), wrng.Intn(7), words[wrng.Intn(len(words))])
				case 1:
					_, err = db.QueryRaw("UPDATE w SET name = ?, id = ? WHERE id = ?",
						taint(words[wrng.Intn(len(words))]), wrng.Intn(25), id)
				case 2:
					_, err = db.QueryRaw("DELETE FROM w WHERE id = ? AND val = ?", id, wrng.Intn(7))
				}
				if err != nil {
					t.Errorf("churn writer: %v", err)
					return
				}
			}
		}(rng.Int63())
	}

	w := &diffWorkload{t: t, rng: rng}
	iters := 400
	if testing.Short() {
		iters = 60
	}
	e := db.Engine()
	for i := 0; i < iters; i++ {
		qtext := w.randSelect()
		stmt, err := Parse(core.NewString(qtext))
		if err != nil {
			t.Fatalf("%s: parse: %v", qtext, err)
		}
		sel := stmt.(*Select)

		// Pin one snapshot under the read lock (so vacuum keeps its
		// versions), then run both access paths against it lock-free
		// while the writers keep moving the frontier.
		e.mu.RLock()
		snap := e.acquireSnap()
		e.mu.RUnlock()
		indexed, _, ierr := e.selectAt(nil, 0, sel, nil, nil, &snap)
		forced := *sel
		forced.ForceScan = true
		scanned, _, serr := e.selectAt(nil, 0, &forced, nil, nil, &snap)
		e.releaseSnap(snap)

		if (ierr == nil) != (serr == nil) {
			t.Fatalf("%s: indexed err=%v, scan err=%v", qtext, ierr, serr)
		}
		if ierr != nil {
			if ierr.Error() != serr.Error() {
				t.Fatalf("%s: error text differs:\n  indexed %v\n  scan    %v", qtext, ierr, serr)
			}
			continue
		}
		if !reflect.DeepEqual(indexed, scanned) {
			t.Fatalf("%s @ snap %d: index path diverged from scan of the same snapshot\nindexed: %+v\nscan:    %+v",
				qtext, snap, indexed, scanned)
		}
	}
	close(stop)
	wg.Wait()
}

// canonicalBuckets projects an ordered index down to the pairs the
// visible-key traversal rule actually serves at the frontier: for every
// (key, id) in a bucket, keep it only when id's visible version carries
// that key. MVCC buckets are supersets (stale pairs wait for vacuum),
// so this projection — not raw buckets — is the structure that defines
// index equality.
func canonicalBuckets(tbl *table, ix *orderedIndex, ci int, frontier uint64) map[string][]uint64 {
	eff := make(map[string][]uint64)
	for k, bucket := range ix.m {
		for _, id := range bucket {
			en := tbl.byID[id]
			if en == nil {
				continue
			}
			v := en.visible(frontier)
			if v == nil || indexKey(v.vals[ci]) != k {
				continue
			}
			eff[k] = append(eff[k], id)
		}
	}
	return eff
}

// TestOrderedIndexRebuildMatchesIncremental pins effective structural
// identity: an index maintained incrementally through INSERT/UPDATE/
// DELETE (tombstones, stale pairs and all) must serve exactly the same
// (key, row id) pairs as an index built from scratch over the same
// version chains — and both must hold the superset invariant: every
// row's visible key is present in its bucket. WAL replay and snapshot
// recovery lean on this (they rebuild via CREATE INDEX).
func TestOrderedIndexRebuildMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := openDB(t)
	db.MustExec("CREATE TABLE t (id INT, name TEXT)")
	db.MustExec("CREATE INDEX ON t (id)")
	db.MustExec("CREATE INDEX ON t (name)")
	for i := 0; i < 300; i++ {
		switch rng.Intn(5) {
		case 0:
			db.MustExec(fmt.Sprintf("UPDATE t SET id = %d WHERE id = %d", rng.Intn(50), rng.Intn(50)))
		case 1:
			if rng.Intn(3) == 0 {
				db.MustExec(fmt.Sprintf("DELETE FROM t WHERE id = %d", rng.Intn(50)))
			}
		default:
			idLit := fmt.Sprintf("%d", rng.Intn(50))
			if rng.Intn(10) == 0 {
				idLit = "NULL"
			}
			db.MustExec(fmt.Sprintf("INSERT INTO t (id, name) VALUES (%s, '%s')", idLit, strings.Repeat("x", rng.Intn(3))+fmt.Sprint(rng.Intn(9))))
		}
	}
	e := db.Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	frontier := e.frontier.Load()
	tbl := e.tables["t"]
	for ci, live := range tbl.indexes {
		rebuilt, _ := buildIndex(tbl.entries, ci)
		liveEff := canonicalBuckets(tbl, live, ci, frontier)
		rebuiltEff := canonicalBuckets(tbl, rebuilt, ci, frontier)
		if !reflect.DeepEqual(liveEff, rebuiltEff) {
			t.Fatalf("col %d: incremental index serves different pairs than a from-scratch build\nlive:    %v\nrebuilt: %v", ci, liveEff, rebuiltEff)
		}
		// Superset invariant, both structures: every visible row must be
		// findable under its visible key.
		for _, en := range tbl.entries {
			v := en.visible(frontier)
			if v == nil {
				continue
			}
			k := indexKey(v.vals[ci])
			for which, ix := range map[string]*orderedIndex{"live": live, "rebuilt": rebuilt} {
				found := false
				for _, id := range ix.m[k] {
					if id == en.id {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("col %d: %s index lost row %d under key %q", ci, which, en.id, k)
				}
			}
		}
	}
}
