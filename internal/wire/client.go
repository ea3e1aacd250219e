package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// ErrConnClosed reports a request on a closed (or transport-broken)
// connection.
var ErrConnClosed = errors.New("wire: connection is closed")

// Conn is a client connection: one request in flight at a time
// (concurrent callers serialize on an internal mutex — open more
// connections for parallelism, as the load harness does). A transport
// or framing error poisons the connection: the request/response stream
// can no longer be trusted to be in sync, so every later call fails
// with ErrConnClosed and the caller should redial.
type Conn struct {
	mu     sync.Mutex
	nc     net.Conn
	closed bool
}

// Dial connects to a wire server.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a wire server, honoring ctx for the dial and
// the preamble exchange.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl) //nolint:errcheck
	} else {
		nc.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	}
	if err := sendPreamble(nc); err != nil {
		nc.Close()
		return nil, err
	}
	if err := expectPreamble(nc); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{}) //nolint:errcheck
	return &Conn{nc: nc}, nil
}

// Close closes the connection. Safe to call twice.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// Closed reports whether the connection has been closed or poisoned by
// a transport error.
func (c *Conn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// call sends req and decodes its response, which must be a want.
func (c *Conn) call(ctx context.Context, req request, want byte) (response, error) {
	p, err := req.encode()
	if err != nil {
		return response{}, err
	}
	r, err := c.roundTrip(ctx, p)
	if err == nil {
		err = r.want(want)
	}
	if err != nil {
		return response{}, err
	}
	return r, nil
}

// roundTrip sends one request frame and decodes one response frame,
// honoring ctx: its deadline becomes the socket deadline, and its
// cancellation interrupts a blocked read or write. Server-reported
// errors (msgError) return as *RemoteError and, like a response that
// does not decode, leave the connection usable; transport errors
// poison it.
func (c *Conn) roundTrip(ctx context.Context, payload []byte) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return response{}, ErrConnClosed
	}
	if err := ctx.Err(); err != nil {
		return response{}, err
	}
	if dl, ok := ctx.Deadline(); ok {
		c.nc.SetDeadline(dl) //nolint:errcheck
	} else {
		c.nc.SetDeadline(time.Time{}) //nolint:errcheck
	}
	// Cancellation watcher: force a deadline in the past to interrupt
	// blocked socket calls the moment ctx is canceled.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			c.nc.SetDeadline(time.Unix(1, 0)) //nolint:errcheck
		case <-watchDone:
		}
	}()

	fail := func(err error) (response, error) {
		c.closed = true
		c.nc.Close() //nolint:errcheck
		if cerr := ctx.Err(); cerr != nil {
			return response{}, cerr
		}
		return response{}, err
	}
	if err := writeFrame(c.nc, payload); err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			return response{}, err // refused before any byte hit the socket
		}
		return fail(err)
	}
	resp, err := readFrame(c.nc)
	if err != nil {
		return fail(err)
	}
	return decodeResponse(resp)
}

// QueryContext executes query text with bound args on the server and
// returns the tracked result: every cell's policy annotation crossed
// the wire and was re-interned, so taint is byte-identical to an
// in-process query.
func (c *Conn) QueryContext(ctx context.Context, q core.String, args ...any) (*sqldb.Result, error) {
	r, err := c.call(ctx, request{tag: msgQuery, text: q, args: args}, msgResult)
	return r.result, err
}

// Query is QueryContext with context.Background.
func (c *Conn) Query(q core.String, args ...any) (*sqldb.Result, error) {
	return c.QueryContext(context.Background(), q, args...)
}

// QueryRaw is Query for untracked query text.
func (c *Conn) QueryRaw(q string, args ...any) (*sqldb.Result, error) {
	return c.Query(core.NewString(q), args...)
}

// Stmt is a server-side prepared statement handle.
type Stmt struct {
	c     *Conn
	id    uint64
	nargs int
}

// PrepareContext compiles query text into a server-side prepared
// statement owned by this connection.
func (c *Conn) PrepareContext(ctx context.Context, q core.String) (*Stmt, error) {
	r, err := c.call(ctx, request{tag: msgPrepare, text: q}, msgPrepared)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: r.id, nargs: int(r.nargs)}, nil
}

// Prepare is PrepareContext with context.Background.
func (c *Conn) Prepare(q core.String) (*Stmt, error) {
	return c.PrepareContext(context.Background(), q)
}

// NumArgs returns the number of distinct binding ordinals.
func (st *Stmt) NumArgs() int { return st.nargs }

// QueryContext executes the prepared statement with bound args
// (positional values or sqldb.Named values).
func (st *Stmt) QueryContext(ctx context.Context, args ...any) (*sqldb.Result, error) {
	r, err := st.c.call(ctx, request{tag: msgExec, id: st.id, args: args}, msgResult)
	return r.result, err
}

// Query is QueryContext with context.Background.
func (st *Stmt) Query(args ...any) (*sqldb.Result, error) {
	return st.QueryContext(context.Background(), args...)
}

// ExecContext executes and returns the affected-row count.
func (st *Stmt) ExecContext(ctx context.Context, args ...any) (int, error) {
	res, err := st.QueryContext(ctx, args...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// Exec is ExecContext with context.Background.
func (st *Stmt) Exec(args ...any) (int, error) {
	return st.ExecContext(context.Background(), args...)
}

// Close releases the server-side statement.
func (st *Stmt) Close() error {
	_, err := st.c.call(context.Background(), request{tag: msgCloseStmt, id: st.id}, msgAck)
	return err
}

// ack sends a bodyless request expecting msgAck.
func (c *Conn) ack(ctx context.Context, tag byte) error {
	_, err := c.call(ctx, request{tag: tag}, msgAck)
	return err
}

// BeginContext opens the connection's transaction (at most one; it is
// connection state on the server).
func (c *Conn) BeginContext(ctx context.Context) error { return c.ack(ctx, msgBegin) }

// Begin is BeginContext with context.Background.
func (c *Conn) Begin() error { return c.BeginContext(context.Background()) }

// CommitContext commits the connection's transaction.
func (c *Conn) CommitContext(ctx context.Context) error { return c.ack(ctx, msgCommit) }

// Commit is CommitContext with context.Background.
func (c *Conn) Commit() error { return c.CommitContext(context.Background()) }

// RollbackContext rolls back the connection's transaction.
func (c *Conn) RollbackContext(ctx context.Context) error { return c.ack(ctx, msgRollback) }

// Rollback is RollbackContext with context.Background.
func (c *Conn) Rollback() error { return c.RollbackContext(context.Background()) }

// Status reports the server's role and replication position.
func (c *Conn) Status() (Status, error) {
	return c.StatusContext(context.Background())
}

// StatusContext is Status honoring ctx.
func (c *Conn) StatusContext(ctx context.Context) (Status, error) {
	r, err := c.call(ctx, request{tag: msgStatus}, msgStatusReply)
	return r.status, err
}
