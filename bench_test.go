package resin_test

// Benchmarks regenerating the RESIN paper's evaluation:
//
//   BenchmarkTable5_*     — the microbenchmark of Table 5 (one benchmark
//                           per operation × configuration).
//   BenchmarkSec71_*      — the §7.1 application experiment: HotCRP paper
//                           page generation, unmodified vs RESIN.
//   BenchmarkTable4_*     — the attack scenarios behind Table 4, runnable
//                           as benchmarks to measure assertion-checking
//                           cost on the attack paths.
//   BenchmarkAblation_*   — design-choice ablations from DESIGN.md:
//                           character-level vs whole-string tracking,
//                           span coalescing, SQL policy-column scaling,
//                           union vs custom merge.
//
// Run: go test -bench=. -benchmem .

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"resin/internal/apps/hotcrp"
	"resin/internal/core"
	"resin/internal/lineage"
	"resin/internal/microbench"
	"resin/internal/seceval"
	"resin/internal/sqldb"
)

// ---- Table 5 ----

func BenchmarkTable5(b *testing.B) {
	for _, op := range microbench.Ops() {
		for _, mode := range []microbench.Mode{
			microbench.Unmodified, microbench.NoPolicy, microbench.EmptyPolicy,
		} {
			op, mode := op, mode
			name := strings.ReplaceAll(op.Name, " ", "_")
			name = strings.ReplaceAll(name, ",", "")
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				op.Bench(b, mode)
			})
		}
	}
}

// ---- §7.1: HotCRP page generation ----

func BenchmarkSec71_HotCRPPageUnmodified(b *testing.B) {
	_, render := hotcrp.NewBenchInstance(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := render(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec71_HotCRPPageResin(b *testing.B) {
	_, render := hotcrp.NewBenchInstance(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := render(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSec71PageAllocCeiling pins the page's allocation count, tracked
// and untracked — the overhead ratio's numerator and denominator: 168
// tracked allocs/op while every tainted cell's annotation was copied to
// []byte for the compile-memo lookup, 164 (and 132 untracked) with the
// string-keyed lookup, 93 (80) once SQL ran bound plans, cells shared
// their annotation's span list and the export check stopped allocating,
// 48 (41) once a channel became one object with a map-free context, a
// response built only the channels it used, a statement execution
// allocated only its arguments and its result, and results were read
// from the row versions in place.
func TestSec71PageAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		resin bool
		max   float64
	}{{true, 50}, {false, 43}} {
		_, render := hotcrp.NewBenchInstance(c.resin)
		page := func() {
			if err := render(); err != nil {
				t.Fatal(err)
			}
		}
		page() // warm the plan cache and the annotation memo
		if allocs := testing.AllocsPerRun(200, page); allocs > c.max {
			t.Errorf("HotCRP page, RESIN %v: %.0f allocs/op, want ≤ %.0f", c.resin, allocs, c.max)
		}
	}
}

// ---- Table 4: attack scenarios as benchmarks ----

func BenchmarkTable4_AttackSuiteBlocked(b *testing.B) {
	_, scenarios, _ := seceval.Catalog()
	for i := 0; i < b.N; i++ {
		for _, sc := range scenarios {
			if ok, _ := sc.Attack(true); ok && sc.Kind != "depth" {
				b.Fatalf("%s: attack succeeded with assertions on", sc.Name)
			}
		}
	}
}

func BenchmarkTable4_PasswordAssertionPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		leaked, blockErr := hotcrp.AttackPasswordPreview(true)
		if leaked || blockErr == nil {
			b.Fatal("assertion must block")
		}
	}
}

// ---- Ablations ----

type ablationPolicy struct{ ID int }

func (p *ablationPolicy) ExportCheck(ctx *core.Context) error { return nil }

func init() {
	// The SQL ablation persists this policy into policy columns, so the
	// class must be registered for serialization.
	core.RegisterPolicyClass("bench.AblationPolicy", &ablationPolicy{})
}

// BenchmarkAblation_CharacterLevelConcat measures the cost of span-based
// (character-level) concatenation...
func BenchmarkAblation_CharacterLevelConcat(b *testing.B) {
	l := core.NewStringPolicy("left operand!", &ablationPolicy{ID: 1})
	r := core.NewStringPolicy("right operand", &ablationPolicy{ID: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.Concat(l, r)
		if s.Len() == 0 {
			b.Fatal("empty")
		}
	}
}

// ...versus the whole-string alternative, which must merge the two policy
// sets on every concat (what RESIN's character-level design avoids: "RESIN
// uses character-level tracking to avoid having to merge policies when
// individual data elements are propagated verbatim").
func BenchmarkAblation_WholeStringConcat(b *testing.B) {
	p1 := core.NewPolicySet(&ablationPolicy{ID: 1})
	p2 := core.NewPolicySet(&ablationPolicy{ID: 2})
	l, r := "left operand!", "right operand"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, err := core.MergePolicies(p1, p2)
		if err != nil {
			b.Fatal(err)
		}
		s := core.NewString(l + r).WithPolicy(merged.Policies()...)
		if s.Len() == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkAblation_InternedVsNaiveUnion compares repeated unions of the
// same two policy sets through the interned hot path (pointer-identity
// subset checks plus the memoized pairwise-union cache) against a naive
// member-wise union that re-deduplicates by object identity on every
// call — the cost every concat, slice, and boundary crossing used to
// pay before interning.
func BenchmarkAblation_InternedVsNaiveUnion(b *testing.B) {
	p1, p2, p3 := &ablationPolicy{ID: 1}, &ablationPolicy{ID: 2}, &ablationPolicy{ID: 3}
	a := core.NewPolicySet(p1, p2).Intern()
	c := core.NewPolicySet(p2, p3).Intern()

	b.Run("interned-union", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if u := a.Union(c); u.Len() != 3 {
				b.Fatalf("union len = %d", u.Len())
			}
		}
	})
	b.Run("naive-union", func(b *testing.B) {
		b.ReportAllocs()
		ap, cp := a.Policies(), c.Policies()
		for i := 0; i < b.N; i++ {
			// The pre-interning algorithm: collect members, dropping
			// duplicates by identity with a quadratic scan, and wrap
			// the result. (Identity here is plain interface equality,
			// cheaper than the seed's reflection-based compare, so this
			// arm slightly understates the true pre-interning cost.)
			out := make([]core.Policy, 0, len(ap)+len(cp))
			out = append(out, ap...)
			for _, p := range cp {
				dup := false
				for _, q := range out {
					if p == q {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, p)
				}
			}
			naiveUnionSink = out
			if len(out) != 3 {
				b.Fatalf("union len = %d", len(out))
			}
		}
	})
}

// naiveUnionSink defeats dead-code elimination of the naive-union arm.
var naiveUnionSink []core.Policy

// BenchmarkAblation_ConcatHeavyPageRender assembles an HTML page the way
// HotCRP's paper view does — hundreds of small tracked fragments
// (markup, tainted review text, author names under a policy)
// concatenated into one response body — exercising the span-arena
// builder and the pointer-fast coalescing path end to end.
func BenchmarkAblation_ConcatHeavyPageRender(b *testing.B) {
	author := core.NewStringPolicy("A. U. Thor", &ablationPolicy{ID: 11})
	review := core.NewStringPolicy("Strong accept: the interning design is sound.", &ablationPolicy{ID: 12})
	comment := core.NewStringPolicy("<i>meta</i> comment", &ablationPolicy{ID: 13})
	open := core.NewString("<tr><td>")
	mid := core.NewString("</td><td>")
	close_ := core.NewString("</td></tr>\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var page core.Builder
		page.AppendRaw("<html><body><table>\n")
		for row := 0; row < 50; row++ {
			page.Append(open)
			page.Append(author)
			page.Append(mid)
			page.Append(review)
			page.Append(mid)
			page.Append(comment)
			page.Append(close_)
		}
		page.AppendRaw("</table></body></html>\n")
		out := page.String()
		if out.Len() == 0 || !out.IsTainted() {
			b.Fatal("bad page")
		}
	}
}

// BenchmarkAblation_SpanCoalescing measures repeated same-policy appends:
// with coalescing the span list stays at one entry; the benchmark reports
// the resulting span count as a metric.
func BenchmarkAblation_SpanCoalescing(b *testing.B) {
	p := &ablationPolicy{ID: 1}
	chunk := core.NewStringPolicy("0123456789abcdef", p)
	b.ResetTimer()
	var spans int
	for i := 0; i < b.N; i++ {
		var bld core.Builder
		for j := 0; j < 64; j++ {
			bld.Append(chunk)
		}
		spans = bld.String().SpanCount()
		if spans != 1 {
			b.Fatalf("span count = %d, want 1 (coalescing broken)", spans)
		}
	}
	b.ReportMetric(float64(spans), "spans")
}

// ---- SQL execution layer: indexes and the plan cache ----

// newLargeSQLTable builds a policy-carrying table of n rows through the
// RESIN filter (so every name cell stores a serialized policy in its
// shadow column), optionally with hash indexes on the key columns.
func newLargeSQLTable(b *testing.B, n int, indexed bool) *sqldb.DB {
	b.Helper()
	rt := core.NewRuntime()
	db := sqldb.Open(rt)
	db.MustExec("CREATE TABLE users (id INT, name TEXT, bio TEXT)")
	if indexed {
		db.MustExec("CREATE INDEX ON users (id)")
	}
	pol := &ablationPolicy{ID: 42}
	for i := 0; i < n; i += 50 {
		var qb core.Builder
		qb.AppendRaw("INSERT INTO users (id, name, bio) VALUES ")
		for j := i; j < i+50 && j < n; j++ {
			if j > i {
				qb.AppendRaw(", ")
			}
			qb.AppendRaw(fmt.Sprintf("(%d, '", j))
			qb.Append(core.NewStringPolicy(fmt.Sprintf("name-%04d", j), pol))
			qb.AppendRaw(fmt.Sprintf("', 'bio for user %d')", j))
		}
		if _, err := db.Query(qb.String()); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkSQLIndexedLookup measures point lookups on a 5k-row table,
// indexed vs full scan, through the RESIN filter (policy columns
// fetched, annotations batch-decoded, policies re-attached) and against
// the bare engine. The indexed arms must beat the scan arms by ≥10×;
// the filter arms also exercise the plan cache (every iteration is a
// cache hit with a fresh literal).
func BenchmarkSQLIndexedLookup(b *testing.B) {
	const nrows = 5000
	for _, arm := range []struct {
		name    string
		indexed bool
	}{{"filter/indexed", true}, {"filter/scan", false}} {
		b.Run(arm.name, func(b *testing.B) {
			db := newLargeSQLTable(b, nrows, arm.indexed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := fmt.Sprintf("SELECT name, bio FROM users WHERE id = %d", i%nrows)
				res, err := db.QueryRaw(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 1 || !res.Get(0, "name").Str.IsTainted() {
					b.Fatalf("row %d: %d rows, tainted=%v", i%nrows, res.Len(), res.Get(0, "name").Str.IsTainted())
				}
			}
		})
	}
	for _, arm := range []struct {
		name    string
		indexed bool
	}{{"engine-raw/indexed", true}, {"engine-raw/scan", false}} {
		b.Run(arm.name, func(b *testing.B) {
			db := newLargeSQLTable(b, nrows, arm.indexed)
			eng := db.Engine()
			stmts := make([]sqldb.Statement, nrows)
			for i := range stmts {
				stmt, err := sqldb.Parse(core.NewString(fmt.Sprintf("SELECT name, bio FROM users WHERE id = %d", i)))
				if err != nil {
					b.Fatal(err)
				}
				stmts[i] = stmt
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.ExecuteRaw(stmts[i%nrows]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSQLConcurrentReadWrite measures read throughput while a
// writer churns the same table: the "readonly" arm is the uncontended
// reference, the "contended" arm runs the identical read workload with
// one background goroutine continuously applying indexed single-row
// UPDATEs. Each read is a 500-row range slice with an ORDER BY on an
// un-probed column, so the row-evaluation and sort work dominates; an
// engine that evaluates under the table lock convoys that work behind
// every writer turn, while snapshot readers pay only the candidate
// hand-off.
func BenchmarkSQLConcurrentReadWrite(b *testing.B) {
	const nrows = 5000
	read := func(b *testing.B, db *sqldb.DB, i int) {
		lo := (i * 37) % (nrows - 500)
		q := fmt.Sprintf("SELECT name FROM users WHERE id >= %d AND id < %d ORDER BY name LIMIT 10", lo, lo+500)
		res, err := db.QueryRaw(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 10 {
			b.Fatalf("lo %d: %d rows", lo, res.Len())
		}
	}
	b.Run("readonly", func(b *testing.B) {
		db := newLargeSQLTable(b, nrows, true)
		var ctr atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				read(b, db, int(ctr.Add(1)))
			}
		})
	})
	b.Run("contended", func(b *testing.B) {
		db := newLargeSQLTable(b, nrows, true)
		upd, err := db.PrepareRaw("UPDATE users SET bio = ? WHERE id = ?")
		if err != nil {
			b.Fatal(err)
		}
		del, err := db.PrepareRaw("DELETE FROM users WHERE id = ?")
		if err != nil {
			b.Fatal(err)
		}
		ins, err := db.PrepareRaw("INSERT INTO users (id, name, bio) VALUES (?, ?, ?)")
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % nrows
				if _, err := upd.Exec(fmt.Sprintf("rev %d", i), k); err != nil {
					b.Error(err)
					return
				}
				if _, err := del.Exec(k); err != nil {
					b.Error(err)
					return
				}
				if _, err := ins.Exec(k, fmt.Sprintf("name-%04d", k), "reborn"); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		var ctr atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				read(b, db, int(ctr.Add(1)))
			}
		})
		b.StopTimer()
		close(stop)
		<-done
	})
}

// BenchmarkSQLDeleteByKey measures single-row deletes located by
// indexed key (each op deletes one row and re-inserts it so the table
// holds steady at nrows): with positional row storage every DELETE
// rebuilds all of the table's indexes wholesale, so the per-op cost is
// O(table); tombstoned deletes under stable row ids pay O(1).
func BenchmarkSQLDeleteByKey(b *testing.B) {
	const nrows = 5000
	db := newLargeSQLTable(b, nrows, true)
	del, err := db.PrepareRaw("DELETE FROM users WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	ins, err := db.PrepareRaw("INSERT INTO users (id, name, bio) VALUES (?, ?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % nrows
		n, err := del.Exec(id)
		if err != nil {
			b.Fatal(err)
		}
		if n != 1 {
			b.Fatalf("id %d: deleted %d rows", id, n)
		}
		if _, err := ins.Exec(id, fmt.Sprintf("name-%04d", id), "reborn"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLUpdateByKey measures single-row updates located by key,
// indexed vs scan, through the filter (the policy column is rewritten
// alongside the data column).
func BenchmarkSQLUpdateByKey(b *testing.B) {
	const nrows = 5000
	for _, arm := range []struct {
		name    string
		indexed bool
	}{{"indexed", true}, {"scan", false}} {
		b.Run(arm.name, func(b *testing.B) {
			db := newLargeSQLTable(b, nrows, arm.indexed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := fmt.Sprintf("UPDATE users SET bio = 'rev %d' WHERE id = %d", i, i%nrows)
				res, err := db.QueryRaw(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Affected != 1 {
					b.Fatalf("affected %d rows", res.Affected)
				}
			}
		})
	}
}

// BenchmarkSQLPlanCache isolates what the plan cache saves: "warm" runs
// a repeated query shape entirely on cache hits (zero parses per op,
// reported as a metric); "cold" resets the cache every iteration, so
// each query re-parses its parameterized template.
func BenchmarkSQLPlanCache(b *testing.B) {
	const nrows = 500
	b.Run("warm", func(b *testing.B) {
		db := newLargeSQLTable(b, nrows, true)
		db.MustExec("SELECT name FROM users WHERE id = 0") // compile the plan
		start := sqldb.ParseCount()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryRaw(fmt.Sprintf("SELECT name FROM users WHERE id = %d", i%nrows)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(sqldb.ParseCount()-start)/float64(b.N), "parses/op")
	})
	b.Run("cold", func(b *testing.B) {
		db := newLargeSQLTable(b, nrows, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Filter().PlanCacheReset()
			if _, err := db.QueryRaw(fmt.Sprintf("SELECT name FROM users WHERE id = %d", i%nrows)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSQLPreparedLookup measures the prepared-statement execution
// path against the warm text path on the same indexed point lookup.
// "prepared" binds the key into the compiled plan — the parses/op and
// tokenizes/op metrics must both be 0 — while "text-warm" re-tokenizes
// every iteration and resolves through the plan cache (itself already
// parse-free when warm). Prepared execution must be no slower than the
// warm plan-cache path.
func BenchmarkSQLPreparedLookup(b *testing.B) {
	const nrows = 500
	b.Run("prepared", func(b *testing.B) {
		db := newLargeSQLTable(b, nrows, true)
		stmt, err := db.PrepareRaw("SELECT name, bio FROM users WHERE id = ?")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stmt.Query(0); err != nil { // warm the schema-derived plan state
			b.Fatal(err)
		}
		parse0, lex0 := sqldb.ParseCount(), sqldb.TokenizeCount()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := stmt.Query(i % nrows)
			if err != nil {
				b.Fatal(err)
			}
			if res.Len() != 1 || !res.Get(0, "name").Str.IsTainted() {
				b.Fatalf("row %d: %d rows", i%nrows, res.Len())
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(sqldb.ParseCount()-parse0)/float64(b.N), "parses/op")
		b.ReportMetric(float64(sqldb.TokenizeCount()-lex0)/float64(b.N), "tokenizes/op")
	})
	b.Run("text-warm", func(b *testing.B) {
		db := newLargeSQLTable(b, nrows, true)
		db.MustExec("SELECT name, bio FROM users WHERE id = 0") // compile the plan
		parse0, lex0 := sqldb.ParseCount(), sqldb.TokenizeCount()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.QueryRaw(fmt.Sprintf("SELECT name, bio FROM users WHERE id = %d", i%nrows))
			if err != nil {
				b.Fatal(err)
			}
			if res.Len() != 1 {
				b.Fatalf("row %d: %d rows", i%nrows, res.Len())
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(sqldb.ParseCount()-parse0)/float64(b.N), "parses/op")
		b.ReportMetric(float64(sqldb.TokenizeCount()-lex0)/float64(b.N), "tokenizes/op")
	})
}

// BenchmarkSQLRangeLookup measures a 10-row range slice out of a 5k-row
// table through the RESIN filter, key-range scan via the ordered index
// vs full scan. The indexed arm must beat the scan arm by ≥10× (the
// acceptance bar mirroring BenchmarkSQLIndexedLookup's for equality).
func BenchmarkSQLRangeLookup(b *testing.B) {
	const nrows = 5000
	for _, arm := range []struct {
		name    string
		indexed bool
	}{{"filter/indexed", true}, {"filter/scan", false}} {
		b.Run(arm.name, func(b *testing.B) {
			db := newLargeSQLTable(b, nrows, arm.indexed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * 37) % (nrows - 10)
				q := fmt.Sprintf("SELECT name, bio FROM users WHERE id >= %d AND id < %d", lo, lo+10)
				res, err := db.QueryRaw(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 10 || !res.Get(0, "name").Str.IsTainted() {
					b.Fatalf("lo %d: %d rows, tainted=%v", lo, res.Len(), res.Get(0, "name").Str.IsTainted())
				}
			}
		})
	}
}

// BenchmarkSQLOrderByPushdown measures the same range slice with ORDER
// BY on the probed column. The indexed arm emits rows in index order —
// the sorts/op metric (from sqldb.SortCount) must be 0 — while the scan
// arm pays the post-filter sort every iteration (sorts/op 1).
func BenchmarkSQLOrderByPushdown(b *testing.B) {
	const nrows = 5000
	for _, arm := range []struct {
		name    string
		indexed bool
	}{{"indexed", true}, {"scan", false}} {
		b.Run(arm.name, func(b *testing.B) {
			db := newLargeSQLTable(b, nrows, arm.indexed)
			sort0 := sqldb.SortCount()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * 37) % (nrows - 50)
				q := fmt.Sprintf("SELECT name FROM users WHERE id >= %d AND id < %d ORDER BY id DESC LIMIT 20", lo, lo+50)
				res, err := db.QueryRaw(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 20 {
					b.Fatalf("lo %d: %d rows", lo, res.Len())
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(sqldb.SortCount()-sort0)/float64(b.N), "sorts/op")
		})
	}
}

// BenchmarkSQLHashJoin measures a 5k×5k INNER JOIN at the engine: the
// planned hash join (equality-bucket build over the smaller input,
// chosen by the cardinality cost hook) against the nested-loop
// reference executor on the identical statement (ForceLoop — the same
// oracle the differential harness diffs against). The hash arm must
// beat the nested loop by ≥10× (the acceptance bar mirroring
// BenchmarkSQLIndexedLookup's for point lookups).
func BenchmarkSQLHashJoin(b *testing.B) {
	const nrows = 5000
	rt := core.NewRuntime()
	db := sqldb.Open(rt)
	db.MustExec("CREATE TABLE users (id INT, name TEXT)")
	db.MustExec("CREATE TABLE orders (uid INT, item TEXT)")
	pol := &ablationPolicy{ID: 43}
	for i := 0; i < nrows; i += 50 {
		var ub core.Builder
		ub.AppendRaw("INSERT INTO users (id, name) VALUES ")
		for j := i; j < i+50; j++ {
			if j > i {
				ub.AppendRaw(", ")
			}
			ub.AppendRaw(fmt.Sprintf("(%d, '", j))
			ub.Append(core.NewStringPolicy(fmt.Sprintf("name-%04d", j), pol))
			ub.AppendRaw("')")
		}
		if _, err := db.Query(ub.String()); err != nil {
			b.Fatal(err)
		}
		if _, err := db.QueryRaw("INSERT INTO orders (uid, item) VALUES " + ordersValues(i, nrows)); err != nil {
			b.Fatal(err)
		}
	}
	q := "SELECT users.name, orders.item FROM users INNER JOIN orders ON users.id = orders.uid"
	eng := db.Engine()
	for _, arm := range []struct {
		name string
		loop bool
	}{{"hash", false}, {"nested-loop", true}} {
		b.Run(arm.name, func(b *testing.B) {
			stmt, err := sqldb.Parse(core.NewString(q))
			if err != nil {
				b.Fatal(err)
			}
			sel := stmt.(*sqldb.Select)
			sel.ForceLoop = arm.loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _, err := eng.ExecuteRaw(sel)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != nrows {
					b.Fatalf("%d rows, want %d", res.Len(), nrows)
				}
			}
		})
	}
}

// ordersValues renders one 50-row VALUES batch for the join benchmark's
// orders table. gcd(7, nrows) = 1, so every user matches exactly one
// order and the join yields nrows rows.
func ordersValues(base, nrows int) string {
	var sb strings.Builder
	for j := base; j < base+50; j++ {
		if j > base {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'item-%04d')", (j*7)%nrows, j)
	}
	return sb.String()
}

// BenchmarkAblation_SQLPolicyColumns measures how the SQL filter's
// rewriting cost scales with column count (the paper: "RESIN's overhead
// is related to the size of the query, and the number of columns that
// have policies").
func BenchmarkAblation_SQLPolicyColumns(b *testing.B) {
	for _, ncols := range []int{2, 5, 10, 20} {
		b.Run(fmt.Sprintf("cols=%d", ncols), func(b *testing.B) {
			rt := core.NewRuntime()
			db := sqldb.Open(rt)
			cols := make([]string, ncols)
			names := make([]string, ncols)
			for i := range cols {
				cols[i] = fmt.Sprintf("c%d TEXT", i)
				names[i] = fmt.Sprintf("c%d", i)
			}
			db.MustExec("CREATE TABLE t (" + strings.Join(cols, ", ") + ")")
			p := &ablationPolicy{ID: 7}
			var qb core.Builder
			qb.AppendRaw("INSERT INTO t (" + strings.Join(names, ", ") + ") VALUES (")
			for i := 0; i < ncols; i++ {
				if i > 0 {
					qb.AppendRaw(", ")
				}
				qb.AppendRaw("'")
				qb.Append(core.NewStringPolicy("v", p))
				qb.AppendRaw("'")
			}
			qb.AppendRaw(")")
			q := qb.String()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MergeStrategies compares the default union merge with
// a custom Merger callback (§3.4.2).
func BenchmarkAblation_MergeStrategies(b *testing.B) {
	b.Run("default-union", func(b *testing.B) {
		x := core.NewIntPolicy(1, &ablationPolicy{ID: 1})
		y := core.NewIntPolicy(2, &ablationPolicy{ID: 2})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := x.Add(y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("custom-merger", func(b *testing.B) {
		x := core.NewIntPolicy(1, &mergerPolicy{})
		y := core.NewIntPolicy(2, &mergerPolicy{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := x.Add(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type mergerPolicy struct{}

func (p *mergerPolicy) ExportCheck(ctx *core.Context) error { return nil }
func (p *mergerPolicy) Merge(other *core.PolicySet) ([]core.Policy, error) {
	if other.Any(func(q core.Policy) bool { _, ok := q.(*mergerPolicy); return ok }) {
		return []core.Policy{p}, nil
	}
	return nil, nil
}

// BenchmarkAblation_TaintedStructureCheck measures the strategy-2 scan on
// a realistic query with and without tainted literals.
func BenchmarkAblation_TaintedStructureCheck(b *testing.B) {
	rt := core.NewRuntime()
	db := sqldb.Open(rt)
	db.Filter().RejectTaintedStructure(true)
	db.MustExec("CREATE TABLE t (a TEXT, n INT)")
	db.MustExec("INSERT INTO t (a, n) VALUES ('x', 1)")
	p := &ablationPolicy{ID: 9}
	clean := core.NewString("SELECT a, n FROM t WHERE a = 'x' ORDER BY n LIMIT 1")
	tainted := core.Concat(
		core.NewString("SELECT a, n FROM t WHERE a = '"),
		core.NewStringPolicy("x", p),
		core.NewString("' ORDER BY n LIMIT 1"),
	)
	b.Run("untainted-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(clean); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tainted-literal-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(tainted); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- SQL durability: the write-ahead log ----

// BenchmarkSQLWALAppend measures the durable-insert path (docs/SQL.md
// §8): "memory" is the no-WAL baseline, "sync" fsyncs every mutation
// before acknowledging it (the durability contract).
func BenchmarkSQLWALAppend(b *testing.B) {
	run := func(b *testing.B, path string) {
		rt := core.NewRuntime()
		db, err := sqldb.OpenDB(rt, path)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		db.MustExec("CREATE TABLE t (id INT, val TEXT)")
		ins, err := db.PrepareRaw("INSERT INTO t (id, val) VALUES (?, ?)")
		if err != nil {
			b.Fatal(err)
		}
		payload := core.NewStringPolicy("payload-bytes", &ablationPolicy{ID: 7})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ins.Exec(i, payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("memory", func(b *testing.B) { run(b, "") })
	b.Run("sync", func(b *testing.B) { run(b, b.TempDir()+"/sync.wal") })
}

// BenchmarkSQLWALReplay measures recovery: reopening a database whose
// log holds 1000 annotated inserts ("history"), against the same state
// after compaction ("compacted") — the snapshot's batched INSERTs make
// replay state-shaped instead of history-shaped.
func BenchmarkSQLWALReplay(b *testing.B) {
	build := func(b *testing.B, compact bool) string {
		path := b.TempDir() + "/replay.wal"
		rt := core.NewRuntime()
		db, err := sqldb.OpenDB(rt, path)
		if err != nil {
			b.Fatal(err)
		}
		db.MustExec("CREATE TABLE t (id INT, val TEXT)")
		db.MustExec("CREATE INDEX ON t (id)")
		payload := core.NewStringPolicy("payload-bytes", &ablationPolicy{ID: 7})
		ins, err := db.PrepareRaw("INSERT INTO t (id, val) VALUES (?, ?)")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if _, err := ins.Exec(i, payload); err != nil {
				b.Fatal(err)
			}
		}
		if compact {
			if err := db.Compact(); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		return path
	}
	for _, mode := range []struct {
		name    string
		compact bool
	}{{"history", false}, {"compacted", true}} {
		b.Run(mode.name, func(b *testing.B) {
			path := build(b, mode.compact)
			rt := core.NewRuntime()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := sqldb.OpenDB(rt, path)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				db.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkLineageOverhead measures the flow monitor's cost on the hot
// string-and-boundary path, recording off vs on (docs/LINEAGE.md §2).
// The "off" variant must match the pre-monitor profile — the gate is a
// single atomic load — and the "on" variant prices full provenance
// recording for a concat + serialize + decode round trip.
func BenchmarkLineageOverhead(b *testing.B) {
	run := func(b *testing.B) {
		left := core.NewStringPolicy("user-controlled ", &ablationPolicy{ID: 91})
		right := core.NewStringPolicy("suffix", &ablationPolicy{ID: 92})
		ann, err := core.EncodeSpans(left)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := core.Concat(left, right)
			if out.Len() == 0 {
				b.Fatal("empty concat")
			}
			if _, err := core.DecodeSpans("user-controlled ", ann); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		lineage.Disable()
		lineage.Reset()
		run(b)
	})
	b.Run("on", func(b *testing.B) {
		lineage.Reset()
		lineage.Enable()
		defer func() {
			lineage.Disable()
			lineage.Reset()
		}()
		run(b)
	})
}
