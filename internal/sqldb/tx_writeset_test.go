package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// The write-set harness: a transaction keeps only the rows it writes and
// reads every table it wrote as one merged row source — the base's rows
// at its snapshot that it did not write, plus its own, in id order. The
// oracle below runs one random program inside a transaction on one
// database and as direct statements on a twin with the same history, and
// requires every statement to answer alike.

func oracleTaint(s string) core.String {
	return core.NewStringPolicy(s, &sanitize.UntrustedData{Source: "oracle"})
}

// oracleDB builds the shared history: a table with two indexes and
// tainted cells, a join partner, and updates and deletes that leave
// chains of several versions (vacuum runs only every vacuumEvery
// mutations).
func oracleDB(t *testing.T) *DB {
	t.Helper()
	db := Open(core.NewRuntime())
	for _, q := range []string{
		"CREATE TABLE p (id INT, grp INT, name TEXT, body TEXT)",
		"CREATE INDEX ON p (grp)",
		"CREATE INDEX ON p (name)",
		"CREATE TABLE q (pid INT, tag TEXT)",
	} {
		db.MustExec(q)
	}
	exec := func(q string, args ...any) {
		t.Helper()
		if _, err := db.QueryRaw(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	rng := rand.New(rand.NewSource(7)) // every database gets this history
	for i := 0; i < 40; i++ {
		exec("INSERT INTO p (id, grp, name, body) VALUES (?, ?, ?, ?)",
			i, i%7, oracleTaint(oracleName(rng)), oracleTaint(fmt.Sprintf("body %d", i)))
	}
	for i := 0; i < 20; i++ {
		exec("INSERT INTO q (pid, tag) VALUES (?, ?)", rng.Intn(40), oracleTaint(fmt.Sprintf("tag %d", i)))
	}
	for i := 0; i < 30; i++ {
		exec("UPDATE p SET grp = ?, name = ? WHERE id = ?", rng.Intn(7), oracleTaint(oracleName(rng)), rng.Intn(40))
	}
	for i := 0; i < 6; i++ {
		exec("DELETE FROM p WHERE id = ?", rng.Intn(40))
	}
	return db
}

// oracleName draws a name: some share the 'p' prefix a LIKE probe scans.
func oracleName(rng *rand.Rand) string {
	return fmt.Sprintf("%c%d", "pqr"[rng.Intn(3)], rng.Intn(12))
}

// oracleSelects are the reads of a program: equality, ranges, a LIKE
// prefix, ORDER BY both ways with and without a probe, LIMIT, plain
// scans, joins and aggregates. %d takes a small integer.
var oracleSelects = []string{
	"SELECT id, grp, name, body FROM p WHERE grp = %d",
	"SELECT id, name, body FROM p WHERE grp >= %d AND grp < 5 ORDER BY grp DESC LIMIT 4",
	"SELECT id, name FROM p WHERE name LIKE 'p%%' AND id > %d ORDER BY name",
	"SELECT id, name, body FROM p WHERE id < %d ORDER BY name LIMIT 5",
	"SELECT id, grp, name FROM p WHERE grp != %d ORDER BY grp DESC",
	"SELECT id, grp FROM p WHERE grp > %d ORDER BY grp",
	"SELECT * FROM p WHERE id = %d",
	"SELECT * FROM p WHERE body LIKE 'body%%' ORDER BY id LIMIT %d",
	"SELECT name FROM p WHERE name > 'q%d' ORDER BY name DESC LIMIT 3",
	"SELECT p.id, p.name, q.tag FROM p JOIN q ON p.id = q.pid WHERE p.grp != %d ORDER BY p.id",
	"SELECT p.name, q.tag FROM q LEFT JOIN p ON q.pid = p.id WHERE q.pid > %d",
	"SELECT grp, COUNT(*), MAX(name) FROM p WHERE id != %d GROUP BY grp ORDER BY grp",
	"SELECT COUNT(*) FROM q WHERE pid > %d",
}

// oracleStmt draws one statement of a program; n numbers it.
func oracleStmt(rng *rand.Rand, n int) (string, []any) {
	cols := []string{"id", "grp", "name", "body"}
	switch rng.Intn(20) {
	case 0, 1:
		return "INSERT INTO p (id, grp, name, body) VALUES (?, ?, ?, ?)",
			[]any{100 + n, rng.Intn(7), oracleTaint(oracleName(rng)), oracleTaint(fmt.Sprintf("body tx %d", n))}
	case 2, 3:
		return "UPDATE p SET name = ?, grp = ? WHERE id = ?", []any{oracleTaint(oracleName(rng)), rng.Intn(7), rng.Intn(40)}
	case 4:
		return "UPDATE p SET body = ? WHERE grp = ?", []any{oracleTaint(fmt.Sprintf("rebody %d", n)), rng.Intn(7)}
	case 5:
		return "UPDATE p SET grp = ? WHERE name LIKE 'p%'", []any{rng.Intn(7)}
	case 6:
		return "DELETE FROM p WHERE id = ?", []any{rng.Intn(40)}
	case 7:
		return "DELETE FROM p WHERE grp > ? AND grp < ?", []any{rng.Intn(7), rng.Intn(7)}
	case 8:
		return "INSERT INTO q (pid, tag) VALUES (?, ?)", []any{rng.Intn(45), oracleTaint(fmt.Sprintf("tag tx %d", n))}
	case 9:
		return "DELETE FROM q WHERE pid = ?", []any{rng.Intn(40)}
	case 10:
		return fmt.Sprintf("CREATE INDEX ON p (%s)", cols[rng.Intn(len(cols))]), nil
	case 11:
		return fmt.Sprintf("DROP INDEX ON p (%s)", cols[rng.Intn(len(cols))]), nil
	default:
		return fmt.Sprintf(oracleSelects[rng.Intn(len(oracleSelects))], rng.Intn(8)), nil
	}
}

// oracleDirect draws a direct write to the transaction's database: DML
// only, which the transaction must never see.
func oracleDirect(rng *rand.Rand, n int) (string, []any) {
	switch rng.Intn(4) {
	case 0:
		return "UPDATE p SET name = 'p-direct', grp = 1 WHERE id = ?", []any{rng.Intn(40)}
	case 1:
		return "DELETE FROM p WHERE grp = ?", []any{rng.Intn(7)}
	case 2:
		return "INSERT INTO p (id, grp, name, body) VALUES (?, 2, 'p-direct', 'direct')", []any{200 + n}
	default:
		return "UPDATE q SET tag = 'direct' WHERE pid < ?", []any{rng.Intn(40)}
	}
}

func renderRaw(raw *rawResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%q %v", raw.cols, raw.rows)
}

// TestTxReadsMatchDirect is the oracle for reads inside a transaction.
// Two databases share one history; a transaction on A and direct
// statements on B run the same random program of writes and reads, and
// every statement must agree on rows and their order, every cell's
// EncodeSpans annotation, Affected, and error text. A single-table read
// also runs as its ForceScan twin on both engines. The program's index
// DDL must fail on the transaction with ErrTxDDL; it then runs directly
// on both databases, so the base indexes change under the open write
// set. On odd seeds direct writes land on A between statements, and the
// transaction must not see them; on even seeds the transaction commits
// and A must then equal B.
func TestTxReadsMatchDirect(t *testing.T) {
	seeds, steps := 60, 80
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := oracleDB(t), oracleDB(t)
		tx := a.Begin()
		for n := 0; n < steps; n++ {
			if seed%2 == 1 && rng.Intn(4) == 0 {
				q, args := oracleDirect(rng, n)
				if _, err := a.QueryRaw(q, args...); err != nil {
					t.Fatalf("seed %d step %d: direct %s: %v", seed, n, q, err)
				}
			}
			q, args := oracleStmt(rng, n)
			stmt, err := Parse(core.NewString(q))
			if err != nil {
				t.Fatal(err)
			}
			switch stmt.(type) {
			case *CreateIndex, *DropIndex:
				if _, err := tx.QueryRaw(q); !errors.Is(err, ErrTxDDL) {
					t.Fatalf("seed %d step %d: %s in tx: %v, want ErrTxDDL", seed, n, q, err)
				}
				ga, gerr := a.QueryRaw(q)
				wb, werr := b.QueryRaw(q)
				if g, w := renderResult(t, ga, gerr), renderResult(t, wb, werr); g != w {
					t.Fatalf("seed %d step %d: direct %s\n on A: %s\n on B: %s", seed, n, q, g, w)
				}
				continue
			}
			got, gerr := tx.QueryRaw(q, args...)
			want, werr := b.QueryRaw(q, args...)
			if g, w := renderResult(t, got, gerr), renderResult(t, want, werr); g != w {
				t.Fatalf("seed %d step %d: %s %v\n in tx: %s\ndirect: %s", seed, n, q, args, g, w)
			}
			if sel, ok := stmt.(*Select); ok && sel.Join == nil && !sel.grouped() {
				sel.ForceScan = true
				graw, _, gerr := tx.spec.ExecuteRaw(sel)
				wraw, _, werr := b.Engine().ExecuteRaw(sel)
				if g, w := renderRaw(graw, gerr), renderRaw(wraw, werr); g != w {
					t.Fatalf("seed %d step %d: ForceScan %s\n in tx: %s\ndirect: %s", seed, n, q, g, w)
				}
			}
		}
		if seed%2 == 1 {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("seed %d: commit: %v", seed, err)
		}
		for _, q := range []string{"SELECT * FROM p", "SELECT * FROM q"} {
			requireSameSnapshot(t, fmt.Sprintf("seed %d after commit: %s", seed, q), captureSorted(t, a, q), captureSorted(t, b, q))
		}
	}
}

// TestTxFirstWriteAllocs pins that a transaction's first write costs
// O(1) in the table's size: Begin, one INSERT and Rollback on a
// 10 000-row table with two indexes allocate at most what they do on a
// 10-row table, plus 4.
func TestTxFirstWriteAllocs(t *testing.T) {
	allocs := func(nrows int) float64 {
		db := Open(core.NewRuntime())
		db.MustExec("CREATE TABLE big (id INT, name TEXT, body TEXT)")
		db.MustExec("CREATE INDEX ON big (id)")
		db.MustExec("CREATE INDEX ON big (name)")
		ins, err := db.PrepareRaw("INSERT INTO big (id, name, body) VALUES (?, ?, 'body')")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nrows; i++ {
			if _, err := ins.Exec(i, fmt.Sprintf("name %d", i)); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		return testing.AllocsPerRun(50, func() {
			i++
			tx := db.Begin()
			if _, err := tx.QueryRaw("INSERT INTO big (id, name, body) VALUES (?, 'new', 'body')", -i); err != nil {
				t.Fatal(err)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(10), allocs(10000)
	if big > small+4 {
		t.Errorf("first write in a transaction: %.0f allocs on 10 000 rows, %.0f on 10; want at most 4 more", big, small)
	}
}

// TestCommitGroupAlloc pins that Tx.Commit frames its begin..commit
// group once, in a buffer sized for the bytes it writes: a 1000-row
// commit of tainted rows allocates at most 1.5 times the log bytes it
// writes. That covers the framed group, the id remap, and the rows'
// entries, versions and index pairs; a payload grown from one byte, a
// buffer sized for the annotations inline instead of as dictionary
// references, a group framed again, each statement's ops copied, or
// entries and index keys grown by doubling would not fit.
func TestCommitGroupAlloc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.wal")
	db := openWALDB(t, core.NewRuntime(), path)
	defer db.Close() //nolint:errcheck
	db.MustExec("CREATE TABLE t (id INT, author TEXT, body TEXT)")
	db.MustExec("CREATE INDEX ON t (id)")
	tx := db.Begin()
	ins, err := tx.PrepareRaw("INSERT INTO t (id, author, body) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("b", 160)
	for i := 0; i < 1000; i++ {
		author := core.NewStringPolicy(fmt.Sprintf("author %d", i%50), &sanitize.UntrustedData{Source: "commit"})
		if _, err := ins.Exec(i, author, body); err != nil {
			t.Fatal(err)
		}
	}
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	logBefore := size()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	logged, allocated := size()-logBefore, after.TotalAlloc-before.TotalAlloc
	t.Logf("a 1000-row commit logged %d bytes and allocated %d", logged, allocated)
	if limit := uint64(logged) * 3 / 2; allocated > limit {
		t.Errorf("a 1000-row commit logged %d bytes and allocated %d, want ≤ %d", logged, allocated, limit)
	}
}
