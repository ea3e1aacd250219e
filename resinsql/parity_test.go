package resinsql_test

import (
	"context"
	"database/sql"
	"fmt"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/resinsql"
)

// parityTrace records the outcome of each call a parity scenario makes:
// whether it failed, and what it returned (rows, annotations,
// RowsAffected). Error text is not recorded: over the wire a server-side
// error such as sqldb.ErrTxDDL arrives as a generic *wire.RemoteError.
type parityTrace struct {
	t     *testing.T
	steps []string
}

func (tr *parityTrace) add(step string, err error, detail ...any) {
	if err != nil {
		tr.steps = append(tr.steps, step+": failed")
		return
	}
	tr.steps = append(tr.steps, step+": ok "+fmt.Sprint(detail...))
}

func (tr *parityTrace) exec(ctx context.Context, q interface {
	ExecContext(context.Context, string, ...any) (sql.Result, error)
}, step, query string, args ...any) {
	res, err := q.ExecContext(ctx, query, args...)
	var n int64
	if err == nil {
		n, err = res.RowsAffected()
	}
	tr.add(step, err, "affected=", n)
}

// scan runs a one-row query and records the scanned cells; tracked
// cells are recorded with their EncodeSpans annotation.
func (tr *parityTrace) scan(ctx context.Context, q interface {
	QueryRowContext(context.Context, string, ...any) *sql.Row
}, step, query string, dest ...any) {
	err := q.QueryRowContext(ctx, query).Scan(dest...)
	var cells []string
	for _, d := range dest {
		switch v := d.(type) {
		case *resinsql.String:
			ann, aerr := core.EncodeSpans(v.V)
			if aerr != nil {
				tr.t.Fatal(aerr)
			}
			cells = append(cells, fmt.Sprintf("S(%q valid=%v spans=%s)", v.V.Raw(), v.Valid, ann))
		case *resinsql.Int:
			ann, aerr := core.EncodeSpans(v.V.ToString())
			if aerr != nil {
				tr.t.Fatal(aerr)
			}
			cells = append(cells, fmt.Sprintf("I(%d valid=%v spans=%s)", v.V.Value(), v.Valid, ann))
		case *int64:
			cells = append(cells, fmt.Sprint(*v))
		}
	}
	tr.add(step, err, cells)
}

// paritySteps drives one database through the driver's behaviours and
// returns the trace.
func paritySteps(t *testing.T, db *sql.DB) []string {
	tr := &parityTrace{t: t}
	ctx := context.Background()

	// Tainted TEXT and INT round trips.
	tr.exec(ctx, db, "create", "CREATE TABLE t (id INT, s TEXT, n INT)")
	name := sanitize.Taint(core.NewString("mallory"), "form:name")
	score := core.NewInt(91).WithPolicy(&sanitize.UntrustedData{Source: "form:score"})
	tr.exec(ctx, db, "insert tainted", "INSERT INTO t (id, s, n) VALUES (?, ?, ?)", 1, name, score)
	var s resinsql.String
	var n resinsql.Int
	tr.scan(ctx, db, "select tainted", "SELECT s, n FROM t WHERE id = 1", &s, &n)

	// NULL vs "" through String / Int, and arity refusal.
	tr.exec(ctx, db, "insert null", "INSERT INTO t (id, s, n) VALUES (?, ?, ?)", 2, nil, nil)
	tr.exec(ctx, db, "insert empty", "INSERT INTO t (id, s, n) VALUES (?, ?, ?)", 3, "", 0)
	tr.scan(ctx, db, "select null", "SELECT s, n FROM t WHERE id = 2", &s, &n)
	tr.scan(ctx, db, "select empty", "SELECT s, n FROM t WHERE id = 3", &s, &n)
	tr.exec(ctx, db, "too few args", "INSERT INTO t (id) VALUES (?)")
	tr.exec(ctx, db, "too many args", "INSERT INTO t (id) VALUES (?)", 4, 5)
	st, err := db.PrepareContext(ctx, "SELECT n FROM t WHERE id = ?")
	tr.add("prepare", err)
	if err == nil {
		_, err = st.QueryContext(ctx)
		tr.add("stmt too few args", err)
		var v int64
		err = st.QueryRowContext(ctx, 3).Scan(&v)
		tr.add("stmt query", err, v)
		tr.add("stmt close", st.Close())
	}

	// Commit and rollback visibility from outside the sql.Tx.
	var v int64
	tx, err := db.BeginTx(ctx, nil)
	tr.add("begin", err)
	if err == nil {
		tr.exec(ctx, tx, "tx update", "UPDATE t SET n = ? WHERE id = ?", 70, 3)
		tr.scan(ctx, db, "outside before commit", "SELECT n FROM t WHERE id = 3", &v)
		tr.add("commit", tx.Commit())
	}
	tr.scan(ctx, db, "outside after commit", "SELECT n FROM t WHERE id = 3", &v)
	tx, err = db.BeginTx(ctx, nil)
	tr.add("begin", err)
	if err == nil {
		tr.exec(ctx, tx, "tx update", "UPDATE t SET n = ? WHERE id = ?", 0, 3)
		tr.add("rollback", tx.Rollback())
	}
	tr.scan(ctx, db, "outside after rollback", "SELECT n FROM t WHERE id = 3", &v)

	// A second Begin on one connection, and the refused options.
	c, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx, err = c.BeginTx(ctx, nil)
	tr.add("conn begin", err)
	_, err2 := c.BeginTx(ctx, nil)
	tr.add("conn second begin", err2)
	if err == nil {
		tr.add("conn rollback", tx.Rollback())
	}
	tr.add("conn close", c.Close())
	_, err = db.BeginTx(ctx, &sql.TxOptions{Isolation: sql.LevelReadCommitted})
	tr.add("begin read committed", err)
	_, err = db.BeginTx(ctx, &sql.TxOptions{ReadOnly: true})
	tr.add("begin read only", err)

	// DDL refused inside a sql.Tx; the same sql.Tx then commits.
	tx, err = db.BeginTx(ctx, nil)
	tr.add("begin", err)
	if err == nil {
		tr.exec(ctx, tx, "tx ddl", "CREATE TABLE other (a INT)")
		tr.exec(ctx, tx, "tx insert after ddl", "INSERT INTO t (id, n) VALUES (?, ?)", 5, 55)
		tr.add("commit", tx.Commit())
	}
	tr.scan(ctx, db, "after ddl tx", "SELECT n FROM t WHERE id = 5", &v)

	// A canceled ctx.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	tr.exec(canceled, db, "canceled exec", "INSERT INTO t (id) VALUES (6)")
	tr.scan(ctx, db, "count after canceled", "SELECT COUNT(*) FROM t", &v)
	return tr.steps
}

// TestDriverParity runs the same behaviours through a Bind name and a
// net: DSN and requires the same outcomes: rows, annotations,
// RowsAffected, and which calls failed.
func TestDriverParity(t *testing.T) {
	localDB, _ := open(t, "parity")
	netDB, _ := openNet(t)
	local, remote := paritySteps(t, localDB), paritySteps(t, netDB)
	if len(local) != len(remote) {
		t.Fatalf("in-process ran %d steps, net: ran %d", len(local), len(remote))
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Errorf("step %d differs:\n  in-process %s\n  net:       %s", i, local[i], remote[i])
		}
	}
	if t.Failed() || testing.Verbose() {
		for _, s := range local {
			t.Log(s)
		}
	}
}
