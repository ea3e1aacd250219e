package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// Config tunes a Server. The zero value selects the default.
type Config struct {
	// MaxConns caps concurrent connections (default 2048); connections
	// over the cap are refused with a framed error before any query
	// state exists.
	MaxConns int
}

// idleTimeout bounds the wait for the next request on an idle
// connection. readTimeout bounds reading one request's frame once its
// header arrives and writeTimeout bounds writing one response. A client
// context deadline shorter than these wins on the client side — the
// client stops waiting and abandons the connection.
const (
	idleTimeout  = 5 * time.Minute
	readTimeout  = 30 * time.Second
	writeTimeout = 30 * time.Second
)

// shipChunk bounds one shipped log chunk; comfortably under MaxFrame
// with the chunk header.
const shipChunk = 1 << 20

// shipHeartbeat is the idle cadence of empty log chunks, which carry
// the primary's current log size so followers can bound their
// staleness even when nothing is being written.
const shipHeartbeat = time.Second

// Server serves a sqldb.DB over the wire protocol: queries and
// prepared statements per connection, transactions (one per
// connection), status, and — on a primary with a WAL — the replication
// stream. Connections are independent; per-connection state is one
// session (open statements, the open transaction).
type Server struct {
	maxConns int
	// readOnly refuses everything but SELECTs and status/replication
	// requests — the follower serving mode, set by NewFollowerServer.
	readOnly bool
	src      func() *sqldb.DB
	status   func() Status

	mu       sync.Mutex
	lis      net.Listener
	sessions map[*session]struct{}
	draining atomic.Bool
	done     chan struct{} // closed by the first Shutdown
	wg       sync.WaitGroup
}

func newServer(cfg Config, src func() *sqldb.DB, status func() Status) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 2048
	}
	return &Server{maxConns: cfg.MaxConns, src: src, status: status,
		sessions: make(map[*session]struct{}), done: make(chan struct{})}
}

// NewServer serves db as a primary.
func NewServer(db *sqldb.DB, cfg Config) *Server {
	status := func() Status {
		st := Status{Role: "primary", Frontier: db.Frontier()}
		if epoch, size, err := db.WALStatus(); err == nil {
			st.Epoch, st.WALSize = epoch, size
			st.Applied, st.Received, st.PrimarySize = size, size, size
		}
		return st
	}
	return newServer(cfg, func() *sqldb.DB { return db }, status)
}

// NewFollowerServer serves a replica's database read-only. The database
// is resolved per request, so a diverged-and-resynced replica serves
// its fresh state without restarting the server (open prepared
// statements from before the resync keep reading the pre-resync state;
// clients should reconnect after ErrDiverged).
func NewFollowerServer(r *Replica, cfg Config) *Server {
	s := newServer(cfg, r.DB, r.Status)
	s.readOnly = true
	return s
}

// Serve accepts connections on lis until Shutdown (which returns nil
// here) or a permanent accept error.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	sem := make(chan struct{}, s.maxConns)
	for {
		nc, err := lis.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		select {
		case sem <- struct{}{}:
		default:
			// Over the connection cap: refuse after the preamble so the
			// client gets a diagnosable framed error, not a reset.
			go refuseConn(nc, "server at connection limit")
			continue
		}
		if s.draining.Load() {
			<-sem
			go refuseConn(nc, "server is draining")
			continue
		}
		sess := &session{srv: s, nc: nc}
		s.mu.Lock()
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.sessions, sess)
				s.mu.Unlock()
				<-sem
				s.wg.Done()
			}()
			sess.run()
		}()
	}
}

func refuseConn(nc net.Conn, msg string) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
	if expectPreamble(nc) != nil {
		return
	}
	if sendPreamble(nc) != nil {
		return
	}
	writeFrame(nc, errorPayload(codeDraining, msg)) //nolint:errcheck
}

// Shutdown drains the server: stop accepting, let in-flight requests
// finish, close idle connections immediately and busy ones as they
// complete their current request. Connections still open when ctx
// expires are closed forcibly.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.done)
	}
	s.mu.Lock()
	if s.lis != nil {
		s.lis.Close() //nolint:errcheck
	}
	for sess := range s.sessions {
		if !sess.busy.Load() {
			sess.nc.Close() //nolint:errcheck
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.nc.Close() //nolint:errcheck
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// session is one connection's server-side state.
type session struct {
	srv  *Server
	nc   net.Conn
	busy atomic.Bool

	stmts  map[uint64]*sqldb.Stmt
	nextID uint64
	tx     *sqldb.Tx
}

func (s *session) run() {
	defer s.nc.Close() //nolint:errcheck
	defer func() {
		if s.tx != nil {
			s.tx.Rollback() //nolint:errcheck
		}
	}()
	s.nc.SetDeadline(time.Now().Add(readTimeout)) //nolint:errcheck
	if err := expectPreamble(s.nc); err != nil {
		return
	}
	if err := sendPreamble(s.nc); err != nil {
		return
	}
	for {
		s.nc.SetReadDeadline(time.Now().Add(idleTimeout)) //nolint:errcheck
		req, err := readFrame(s.nc)
		if err != nil {
			return // disconnect, idle timeout, or an unsyncable stream
		}
		s.busy.Store(true)
		if s.srv.draining.Load() {
			s.reply(errorPayload(codeDraining, "server is draining"))
			s.busy.Store(false)
			return
		}
		resp, ship := s.dispatch(req)
		if ship != nil {
			// The connection becomes a one-way replication stream; ship
			// never returns while the connection and log are healthy.
			s.busy.Store(false)
			ship()
			return
		}
		ok := s.reply(resp)
		s.busy.Store(false)
		// Recheck after clearing busy: a Shutdown that sampled this
		// session as busy left it open to finish, and nothing else would
		// close it before idleTimeout.
		if !ok || s.srv.draining.Load() {
			return
		}
	}
}

// reply writes one response frame; false means the connection is gone.
func (s *session) reply(payload []byte) bool {
	s.nc.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
	if err := writeFrame(s.nc, payload); err == nil {
		return true
	}
	// An oversized result must fail the request, not the connection:
	// the frame was refused before any byte hit the socket.
	if pay := payload; len(pay) > MaxFrame {
		return writeFrame(s.nc, errorPayload(codeTooLarge,
			fmt.Sprintf("result frame of %d bytes exceeds the %d-byte frame limit", len(pay), MaxFrame))) == nil
	}
	return false
}

// dispatch handles one request and returns the response payload, or a
// ship loop to hand the connection to. A request is decoded whole, and
// must end where its last field does, before anything runs: bytes past
// that fail it with ErrFrameCorrupt's code (docs/WIRE.md §2).
func (s *session) dispatch(p []byte) (resp []byte, ship func()) {
	q, err := decodeRequest(p)
	var r response
	if err == nil {
		r, ship, err = s.handle(q)
	}
	if err == nil && ship == nil {
		resp, err = r.encode()
	}
	if err != nil {
		return errorPayload(errCode(err), err.Error()), nil
	}
	return resp, ship
}

// handle runs one decoded request.
func (s *session) handle(q request) (response, func(), error) {
	db := s.srv.src()
	switch q.tag {
	case msgQuery:
		st, err := s.prepare(db, q.text)
		if err != nil {
			return response{}, nil, err
		}
		return resultOf(st.Query(q.args...))

	case msgPrepare:
		st, err := s.prepare(db, q.text)
		if err != nil {
			return response{}, nil, err
		}
		if s.stmts == nil {
			s.stmts = make(map[uint64]*sqldb.Stmt)
		}
		s.nextID++
		s.stmts[s.nextID] = st
		return response{tag: msgPrepared, id: s.nextID, nargs: uint64(st.NumArgs())}, nil, nil

	case msgExec:
		// prepare refused a mutating statement on a read-only server, so
		// every statement held here may run.
		st := s.stmts[q.id]
		if st == nil {
			return response{}, nil, fmt.Errorf("wire: unknown statement id %d", q.id)
		}
		return resultOf(st.Query(q.args...))

	case msgCloseStmt:
		delete(s.stmts, q.id)

	case msgBegin:
		if s.srv.readOnly {
			return response{}, nil, fmt.Errorf("%w: no transactions on a replica", ErrReadOnlyReplica)
		}
		if s.tx != nil {
			return response{}, nil, errors.New("wire: transaction already open on this connection")
		}
		s.tx = db.Begin()

	case msgCommit, msgRollback:
		tx := s.tx
		if tx == nil {
			return response{}, nil, errors.New("wire: no open transaction")
		}
		s.tx = nil
		end := tx.Commit
		if q.tag == msgRollback {
			end = tx.Rollback
		}
		if err := end(); err != nil {
			return response{}, nil, err
		}

	case msgStatus:
		return response{tag: msgStatusReply, status: s.srv.status()}, nil, nil

	case msgHandshake:
		if err := db.VerifyWALPrefix(int64(q.id), q.crc); err != nil {
			return response{}, nil, err
		}
		return response{}, func() { s.serveShip(db, int64(q.id)) }, nil
	}
	return response{tag: msgAck}, nil, nil
}

// resultOf answers a query with its result.
func resultOf(res *sqldb.Result, err error) (response, func(), error) {
	return response{tag: msgResult, result: res}, nil, err
}

// prepare compiles query text against the session's transaction (when
// one is open) or the database, enforcing the replica read-only rule.
func (s *session) prepare(db *sqldb.DB, q core.String) (*sqldb.Stmt, error) {
	var st *sqldb.Stmt
	var err error
	if s.tx != nil {
		st, err = s.tx.Prepare(q)
	} else {
		st, err = db.Prepare(q)
	}
	if err != nil {
		return nil, err
	}
	if s.srv.readOnly && !st.ReadOnly() {
		return nil, fmt.Errorf("%w: statement mutates", ErrReadOnlyReplica)
	}
	return st, nil
}

// serveShip turns the connection into the replication stream: msgShip-
// Accept, then msgLogChunk frames from offset `off` of db's log as
// bytes appear, with empty heartbeat chunks (carrying the current log
// size) every shipHeartbeat while idle. The loop ends with a framed
// error when the log's epoch changes (compaction rewrote it — offsets
// are void, the follower must re-handshake and will typically need a
// full resync) or the server drains, and silently when the connection
// or log dies. A chunk is the one buffer ReadWAL returns, framed behind
// its header without a copy (sendChunk); the stream keeps no buffer
// between chunks.
func (s *session) serveShip(db *sqldb.DB, off int64) {
	epoch0, size, err := db.WALStatus()
	if err != nil {
		s.reply(errorPayload(errCode(err), err.Error()))
		return
	}
	notify, err := db.WALNotify()
	if err != nil {
		s.reply(errorPayload(errCode(err), err.Error()))
		return
	}
	// Only a result's encode can fail.
	accept, _ := (&response{tag: msgShipAccept, epoch: epoch0, size: uint64(size)}).encode()
	if !s.reply(accept) {
		return
	}
	ticker := time.NewTicker(shipHeartbeat)
	defer ticker.Stop()
	for {
		if s.srv.draining.Load() {
			s.reply(errorPayload(codeDraining, "server is draining"))
			return
		}
		data, epoch, err := db.ReadWAL(off, shipChunk)
		if err != nil || epoch != epoch0 {
			if err == nil {
				err = fmt.Errorf("%w: log epoch changed (compaction); re-handshake", sqldb.ErrShipDiverged)
			}
			s.reply(errorPayload(errCode(err), err.Error()))
			return
		}
		_, size, _ := db.WALStatus()
		if len(data) > 0 {
			if !s.sendChunk(off, epoch, size, data) {
				return
			}
			off += int64(len(data))
			continue
		}
		select {
		case <-notify:
		case <-s.srv.done: // draining: the loop's first check ends the stream
		case <-ticker.C:
			// Idle heartbeat: no bytes, but the follower learns the
			// primary's size (its staleness bound) and the connection
			// proves itself alive.
			if !s.sendChunk(off, epoch, size, nil) {
				return
			}
		}
	}
}

// sendChunk frames one msgLogChunk: the chunk header, then data as read
// from the log, written behind it without a copy.
func (s *session) sendChunk(off int64, epoch uint64, primarySize int64, data []byte) bool {
	// Only a result's encode can fail.
	head, _ := (&response{tag: msgLogChunk, off: uint64(off), epoch: epoch, size: uint64(primarySize), data: data}).encode()
	s.nc.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
	return writeFrameBody(s.nc, head, data) == nil
}
