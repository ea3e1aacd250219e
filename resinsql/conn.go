package resinsql

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"

	"resin/internal/core"
	"resin/internal/sqldb"
	"resin/internal/wire"
)

// session is where one connection's statements execute: in process
// against a *sqldb.DB (a Bind name or a file: DSN), or on a resin-server
// over a *wire.Conn (a net: DSN). Everything else about a connection —
// argument conversion, transaction rules, result adaptation — is shared
// by conn, stmt and tx.
type session interface {
	query(ctx context.Context, q string, args []any) (*sqldb.Result, error)
	prepare(ctx context.Context, q string) (prepared, error)
	begin(ctx context.Context) error
	commit() error
	rollback() error
	close() error
	valid() bool
}

// prepared is a compiled statement held by a session; *wire.Stmt is one
// as it stands, and localStmt makes *sqldb.Stmt one.
type prepared interface {
	NumArgs() int
	QueryContext(ctx context.Context, args ...any) (*sqldb.Result, error)
	Close() error
}

// local executes in process. The engine runs a statement synchronously
// in memory, so a context cannot interrupt one mid-flight: a done
// context is observed before execution starts. Inside a transaction
// statements run against its speculative state (sqldb.Tx).
type local struct {
	db *sqldb.DB
	tx *sqldb.Tx
}

func (l *local) query(ctx context.Context, q string, args []any) (*sqldb.Result, error) {
	// Prepared so named arguments bind as on the server.
	st, err := l.prepare(ctx, q)
	if err != nil {
		return nil, err
	}
	return st.QueryContext(ctx, args...)
}

func (l *local) prepare(ctx context.Context, q string) (prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var st *sqldb.Stmt
	var err error
	if l.tx != nil {
		st, err = l.tx.PrepareRaw(q)
	} else {
		st, err = l.db.PrepareRaw(q)
	}
	if err != nil {
		return nil, err
	}
	return localStmt{st}, nil
}

// begin opens a RESIN transaction (speculative copy, integrity
// assertions checked at commit — see sqldb.Tx).
func (l *local) begin(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.tx = l.db.Begin()
	return nil
}

func (l *local) commit() error   { return l.end((*sqldb.Tx).Commit) }
func (l *local) rollback() error { return l.end((*sqldb.Tx).Rollback) }

// end finishes the open transaction (conn's inTx guard ensures one).
func (l *local) end(f func(*sqldb.Tx) error) error {
	tx := l.tx
	l.tx = nil
	return f(tx)
}

func (*local) close() error { return nil }
func (*local) valid() bool  { return true }

// localStmt gives an in-process statement the prepared method set.
type localStmt struct{ *sqldb.Stmt }

func (s localStmt) QueryContext(ctx context.Context, args ...any) (*sqldb.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Query(args...)
}

func (localStmt) Close() error { return nil }

// remote executes on a resin-server: the ctx deadline becomes the
// socket deadline, and cancellation interrupts a blocked round trip. A
// one-shot query is one msgQuery round trip; a prepared statement is
// compiled and held server-side, scoped to this connection.
type remote struct{ *wire.Conn }

func (r remote) query(ctx context.Context, q string, args []any) (*sqldb.Result, error) {
	return r.QueryContext(ctx, core.NewString(q), args...)
}

func (r remote) prepare(ctx context.Context, q string) (prepared, error) {
	st, err := r.PrepareContext(ctx, core.NewString(q))
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (r remote) begin(ctx context.Context) error { return r.BeginContext(ctx) }
func (r remote) commit() error                   { return r.Commit() }
func (r remote) rollback() error                 { return r.Rollback() }
func (r remote) close() error                    { return r.Close() }
func (r remote) valid() bool                     { return !r.Closed() }

// conn is one database/sql connection over one session; it tracks the
// open transaction, as database/sql routes a sql.Tx's statements through
// the connection that began it. Over a net: DSN the pool maps 1:1 onto
// server sessions, and a poisoned wire connection surfaces as
// driver.ErrBadConn so the pool discards and redials.
type conn struct {
	s    session
	inTx bool
}

// badConn maps a poisoned-transport error onto driver.ErrBadConn. Every
// other error — a server-side *wire.RemoteError, any in-process error —
// passes through: the connection stays usable after those.
func badConn(err error) error {
	if errors.Is(err, wire.ErrConnClosed) {
		return driver.ErrBadConn
	}
	return err
}

func (c *conn) Close() error { return c.s.close() }

// IsValid implements driver.Validator: a poisoned connection never
// returns to the pool.
func (c *conn) IsValid() bool { return c.s.valid() }

// CheckNamedValue admits tracked values (core.String, core.Int) across
// the driver boundary unconverted — this is the inbound half of policy
// preservation — and defers everything else to the default converter.
// database/sql asks the connection for statements' arguments too.
func (c *conn) CheckNamedValue(nv *driver.NamedValue) error {
	switch nv.Value.(type) {
	case core.String, core.Int:
		return nil
	}
	v, err := driver.DefaultParameterConverter.ConvertValue(nv.Value)
	if err != nil {
		return err
	}
	nv.Value = v
	return nil
}

// QueryContext implements driver.QueryerContext: one-shot queries skip
// the driver.Stmt round trip.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	res, err := c.s.query(ctx, query, namedAnyArgs(args))
	if err != nil {
		return nil, badConn(err)
	}
	return &rows{res: res}, nil
}

// ExecContext implements driver.ExecerContext.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	res, err := c.s.query(ctx, query, namedAnyArgs(args))
	if err != nil {
		return nil, badConn(err)
	}
	return result(res.Affected), nil
}

// Prepare implements driver.Conn.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext: the query is
// compiled once by the session; inside a transaction the statement
// executes against the transaction's state.
func (c *conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	p, err := c.s.prepare(ctx, query)
	if err != nil {
		return nil, badConn(err)
	}
	return &stmt{p: p}, nil
}

// Begin implements driver.Conn.
func (c *conn) Begin() (driver.Tx, error) {
	return c.BeginTx(context.Background(), driver.TxOptions{})
}

// BeginTx implements driver.ConnBeginTx. The engine has one isolation
// level — serializable speculative copies — so any explicit weaker
// request is refused rather than silently upgraded; read-only
// transactions are not modeled (use plain queries, which read a
// consistent MVCC snapshot anyway).
func (c *conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if lvl := sql.IsolationLevel(opts.Isolation); lvl != sql.LevelDefault && lvl != sql.LevelSerializable {
		return nil, fmt.Errorf("resinsql: isolation level %s not supported (transactions are serializable)", lvl)
	}
	if opts.ReadOnly {
		return nil, errors.New("resinsql: read-only transactions are not supported")
	}
	if c.inTx {
		return nil, errors.New("resinsql: transaction already open on this connection")
	}
	if err := c.s.begin(ctx); err != nil {
		return nil, badConn(err)
	}
	c.inTx = true
	return tx{c}, nil
}

// tx adapts the connection's session transaction to driver.Tx.
type tx struct{ c *conn }

func (t tx) Commit() error {
	t.c.inTx = false
	return badConn(t.c.s.commit())
}

func (t tx) Rollback() error {
	t.c.inTx = false
	return badConn(t.c.s.rollback())
}

// stmt adapts a session's prepared statement to driver.Stmt.
type stmt struct{ p prepared }

func (s *stmt) Close() error { return badConn(s.p.Close()) }

// NumInput reports the placeholder count, letting database/sql enforce
// argument arity before the driver sees the call.
func (s *stmt) NumInput() int { return s.p.NumArgs() }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), valuesToNamed(args))
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), valuesToNamed(args))
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	res, err := s.p.QueryContext(ctx, namedAnyArgs(args)...)
	if err != nil {
		return nil, badConn(err)
	}
	return &rows{res: res}, nil
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	res, err := s.p.QueryContext(ctx, namedAnyArgs(args)...)
	if err != nil {
		return nil, badConn(err)
	}
	return result(res.Affected), nil
}

// namedAnyArgs converts driver named values to engine arguments:
// values with names become sqldb named bindings, the rest positional.
func namedAnyArgs(args []driver.NamedValue) []any {
	if len(args) == 0 {
		return nil
	}
	out := make([]any, len(args))
	for i, a := range args {
		if a.Name != "" {
			out[i] = sqldb.Named(a.Name, a.Value)
		} else {
			out[i] = a.Value
		}
	}
	return out
}

// valuesToNamed lifts contextless driver values into named values.
func valuesToNamed(args []driver.Value) []driver.NamedValue {
	if len(args) == 0 {
		return nil
	}
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

// result adapts an affected-row count to driver.Result.
type result int64

func (result) LastInsertId() (int64, error) {
	return 0, errors.New("resinsql: LastInsertId is not supported")
}

func (r result) RowsAffected() (int64, error) { return int64(r), nil }
