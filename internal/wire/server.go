package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// Config tunes a Server. Zero values select the defaults.
type Config struct {
	// MaxConns caps concurrent connections (default 2048); connections
	// over the cap are refused with a framed error before any query
	// state exists.
	MaxConns int
	// IdleTimeout bounds the wait for the next request on an idle
	// connection (default 5m). ReadTimeout bounds reading one request's
	// frame once its header arrives and WriteTimeout bounds writing one
	// response (default 30s each). A client context deadline shorter
	// than these wins on the client side — the client stops waiting and
	// abandons the connection.
	IdleTimeout  time.Duration
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// ReadOnly refuses everything but SELECTs and status/replication
	// requests — the follower serving mode. NewFollowerServer forces it.
	ReadOnly bool
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 2048
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	return c
}

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
	cfg    Config
	src    func() *sqldb.DB
	status func() Status

	mu       sync.Mutex
	lis      net.Listener
	sessions map[*session]struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
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
	return &Server{cfg: cfg.withDefaults(), src: func() *sqldb.DB { return db }, status: status, sessions: make(map[*session]struct{})}
}

// NewFollowerServer serves a replica's database read-only. The database
// is resolved per request, so a diverged-and-resynced replica serves
// its fresh state without restarting the server (open prepared
// statements from before the resync keep reading the pre-resync state;
// clients should reconnect after ErrDiverged).
func NewFollowerServer(r *Replica, cfg Config) *Server {
	cfg = cfg.withDefaults()
	cfg.ReadOnly = true
	return &Server{cfg: cfg, src: r.DB, status: r.Status, sessions: make(map[*session]struct{})}
}

// Serve accepts connections on lis until Shutdown (which returns nil
// here) or a permanent accept error.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	sem := make(chan struct{}, s.cfg.MaxConns)
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
			go refuseConn(nc, s.cfg.WriteTimeout, "server at connection limit")
			continue
		}
		if s.draining.Load() {
			<-sem
			go refuseConn(nc, s.cfg.WriteTimeout, "server is draining")
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

func refuseConn(nc net.Conn, timeout time.Duration, msg string) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
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
	s.draining.Store(true)
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
	cfg := s.srv.cfg
	s.nc.SetDeadline(time.Now().Add(cfg.ReadTimeout)) //nolint:errcheck
	if err := expectPreamble(s.nc); err != nil {
		return
	}
	if err := sendPreamble(s.nc); err != nil {
		return
	}
	for {
		s.nc.SetReadDeadline(time.Now().Add(cfg.IdleTimeout)) //nolint:errcheck
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
		// close it before IdleTimeout.
		if !ok || s.srv.draining.Load() {
			return
		}
	}
}

// reply writes one response frame; false means the connection is gone.
func (s *session) reply(payload []byte) bool {
	s.nc.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout)) //nolint:errcheck
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
// ship loop to hand the connection to.
func (s *session) dispatch(req []byte) (resp []byte, ship func()) {
	d := &decoder{data: req, off: 1}
	fail := func(err error) ([]byte, func()) {
		return errorPayload(errCode(err), err.Error()), nil
	}
	db := s.srv.src()
	switch req[0] {
	case msgQuery:
		q, err := d.readTracked()
		if err != nil {
			return fail(err)
		}
		args, err := d.readArgs()
		if err != nil {
			return fail(err)
		}
		res, err := s.execute(db, q, args)
		if err != nil {
			return fail(err)
		}
		p, err := resultPayload(res)
		if err != nil {
			return fail(err)
		}
		return p, nil

	case msgPrepare:
		q, err := d.readTracked()
		if err != nil {
			return fail(err)
		}
		st, err := s.prepare(db, q)
		if err != nil {
			return fail(err)
		}
		if s.stmts == nil {
			s.stmts = make(map[uint64]*sqldb.Stmt)
		}
		s.nextID++
		id := s.nextID
		s.stmts[id] = st
		p := []byte{msgPrepared}
		p = binary.AppendUvarint(p, id)
		p = binary.AppendUvarint(p, uint64(st.NumArgs()))
		return p, nil

	case msgExec:
		id, err := d.uvarint()
		if err != nil {
			return fail(err)
		}
		args, err := d.readArgs()
		if err != nil {
			return fail(err)
		}
		st := s.stmts[id]
		if st == nil {
			return fail(fmt.Errorf("wire: unknown statement id %d", id))
		}
		if s.srv.cfg.ReadOnly && !st.ReadOnly() {
			return fail(fmt.Errorf("%w: statement mutates", ErrReadOnlyReplica))
		}
		res, err := st.Query(args...)
		if err != nil {
			return fail(err)
		}
		p, err := resultPayload(res)
		if err != nil {
			return fail(err)
		}
		return p, nil

	case msgCloseStmt:
		id, err := d.uvarint()
		if err != nil {
			return fail(err)
		}
		delete(s.stmts, id)
		return []byte{msgAck}, nil

	case msgBegin:
		if s.srv.cfg.ReadOnly {
			return fail(fmt.Errorf("%w: no transactions on a replica", ErrReadOnlyReplica))
		}
		if s.tx != nil {
			return fail(errors.New("wire: transaction already open on this connection"))
		}
		s.tx = db.Begin()
		return []byte{msgAck}, nil

	case msgCommit:
		if s.tx == nil {
			return fail(errors.New("wire: no open transaction"))
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Commit(); err != nil {
			return fail(err)
		}
		return []byte{msgAck}, nil

	case msgRollback:
		if s.tx == nil {
			return fail(errors.New("wire: no open transaction"))
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Rollback(); err != nil {
			return fail(err)
		}
		return []byte{msgAck}, nil

	case msgStatus:
		return statusPayload(s.srv.status()), nil

	case msgHandshake:
		size, err := d.uvarint()
		if err != nil {
			return fail(err)
		}
		if len(d.data)-d.off != 4 {
			return fail(fmt.Errorf("%w: bad handshake CRC", ErrFrameCorrupt))
		}
		crc := binary.LittleEndian.Uint32(d.data[d.off:])
		if err := db.VerifyWALPrefix(int64(size), crc); err != nil {
			return fail(err)
		}
		return nil, func() { s.serveShip(db, int64(size)) }

	default:
		return errorPayload(codeBadRequest, fmt.Sprintf("wire: unknown request 0x%02x", req[0])), nil
	}
}

// execute runs a one-shot query through the prepared-statement layer —
// one compile against the plan cache, uniform named/positional binding,
// and the replica read-only check in one place.
func (s *session) execute(db *sqldb.DB, q core.String, args []any) (*sqldb.Result, error) {
	st, err := s.prepare(db, q)
	if err != nil {
		return nil, err
	}
	return st.Query(args...)
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
	if s.srv.cfg.ReadOnly && !st.ReadOnly() {
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
// or log dies.
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
	accept := []byte{msgShipAccept}
	accept = binary.AppendUvarint(accept, epoch0)
	accept = binary.AppendUvarint(accept, uint64(size))
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
			if !s.reply(logChunkPayload(off, epoch, size, data)) {
				return
			}
			off += int64(len(data))
			continue
		}
		select {
		case <-notify:
		case <-ticker.C:
			// Idle heartbeat: no bytes, but the follower learns the
			// primary's size (its staleness bound) and the connection
			// proves itself alive.
			if !s.reply(logChunkPayload(off, epoch, size, nil)) {
				return
			}
		}
	}
}

func logChunkPayload(off int64, epoch uint64, primarySize int64, data []byte) []byte {
	p := []byte{msgLogChunk}
	p = binary.AppendUvarint(p, uint64(off))
	p = binary.AppendUvarint(p, epoch)
	p = binary.AppendUvarint(p, uint64(primarySize))
	p = binary.AppendUvarint(p, uint64(len(data)))
	return append(p, data...)
}
