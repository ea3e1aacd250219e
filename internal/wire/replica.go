package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// Replica is a WAL-shipping read replica: it maintains a local database
// whose log is a byte-prefix copy of a primary's, replays shipped
// records continuously, and serves (via NewFollowerServer) read-only
// queries at its applied frontier. Run drives the shipping connection;
// crash recovery is plain sqldb.OpenDB on the local log — the replica
// resumes from its recovered offset, catching up over the same
// handshake as a fresh connection.
type Replica struct {
	rt   *core.Runtime
	addr string // primary's wire address
	path string // local log path

	mu  sync.RWMutex
	db  *sqldb.DB
	fol *sqldb.Follower

	primarySize atomic.Int64
	resyncs     atomic.Int64
	lastErr     atomic.Value // string
}

// NewReplica opens (or re-opens after a crash) the local replica
// database at path, positioned to ship from the primary at addr.
func NewReplica(rt *core.Runtime, addr, path string) (*Replica, error) {
	db, err := sqldb.OpenDB(rt, path)
	if err != nil {
		return nil, err
	}
	fol, err := sqldb.NewFollower(db)
	if err != nil {
		db.Close() //nolint:errcheck
		return nil, err
	}
	return &Replica{rt: rt, addr: addr, path: path, db: db, fol: fol}, nil
}

// DB returns the replica's current database (replaced on resync).
func (r *Replica) DB() *sqldb.DB {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.db
}

// Follower returns the replica's current follower state.
func (r *Replica) Follower() *sqldb.Follower {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fol
}

// Resyncs counts full resyncs (divergence recoveries) this process.
func (r *Replica) Resyncs() int64 { return r.resyncs.Load() }

// Status reports the replica's replication position, served by
// NewFollowerServer as this replica's msgStatus reply.
func (r *Replica) Status() Status {
	r.mu.RLock()
	db, fol := r.db, r.fol
	r.mu.RUnlock()
	st := Status{Role: "follower", Frontier: db.Frontier(), PrimarySize: r.primarySize.Load()}
	if epoch, size, err := db.WALStatus(); err == nil {
		st.Epoch, st.WALSize = epoch, size
	}
	st.Applied, st.Received = fol.Offsets()
	if st.PrimarySize < st.Received {
		st.PrimarySize = st.Received
	}
	return st
}

// Staleness reports how many primary log bytes the replica has yet to
// apply, by its last observation of the primary's size (heartbeats keep
// it fresh to ~1s even on an idle stream).
func (r *Replica) Staleness() int64 {
	st := r.Status()
	lag := st.PrimarySize - st.Applied
	if lag < 0 {
		lag = 0
	}
	return lag
}

// Run ships from the primary until ctx is done, reconnecting with
// backoff on connection loss, catching up from the local offset
// (ErrBehind restarts the handshake), and resyncing from scratch on
// divergence. It returns only when ctx ends.
func (r *Replica) Run(ctx context.Context) error {
	backoff := 50 * time.Millisecond
	for {
		err := r.stream(ctx)
		if ctx.Err() != nil {
			return nil
		}
		switch {
		case errors.Is(err, ErrDiverged) || errors.Is(err, sqldb.ErrWALCorrupt):
			if rerr := r.resync(); rerr != nil {
				r.lastErr.Store(rerr.Error())
			}
		case errors.Is(err, ErrBehind) || err == nil:
			// Re-handshake from the current offsets immediately.
			backoff = 50 * time.Millisecond
		}
		if err != nil {
			r.lastErr.Store(err.Error())
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// stream runs one shipping connection: dial, handshake at the local
// log's position, then apply chunks until the connection or ctx ends.
func (r *Replica) stream(ctx context.Context) error {
	r.mu.RLock()
	db, fol := r.db, r.fol
	r.mu.RUnlock()

	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return err
	}
	defer nc.Close() //nolint:errcheck
	// Interrupt blocked reads when ctx ends.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			nc.Close() //nolint:errcheck
		case <-watchDone:
		}
	}()

	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if err := sendPreamble(nc); err != nil {
		return err
	}
	if err := expectPreamble(nc); err != nil {
		return err
	}

	// Handshake at the local log's full byte length (applied prefix plus
	// any mirrored-but-uncommitted tail): the primary verifies it is a
	// byte-exact prefix and ships from there.
	_, size, err := db.WALStatus()
	if err != nil {
		return err
	}
	crc, err := db.WALPrefixCRC(size)
	if err != nil {
		return err
	}
	// Only a query's or an execute's encode can fail.
	p, _ := (&request{tag: msgHandshake, id: uint64(size), crc: crc}).encode()
	if err := writeFrame(nc, p); err != nil {
		return err
	}
	// recv reads and decodes one frame, which must be a want; an error
	// frame ends the stream with its error.
	recv := func(want byte) (response, error) {
		frame, err := readFrame(nc)
		if err != nil {
			return response{}, err
		}
		r, err := decodeResponse(frame)
		if err == nil {
			err = r.want(want)
		}
		return r, err
	}
	accept, err := recv(msgShipAccept)
	if err != nil {
		return err
	}
	r.primarySize.Store(int64(accept.size))

	// Receive loop: heartbeats arrive every shipHeartbeat, so a stalled
	// read means a dead primary — time out at several heartbeats.
	for {
		nc.SetReadDeadline(time.Now().Add(10 * shipHeartbeat)) //nolint:errcheck
		chunk, err := recv(msgLogChunk)
		if err != nil {
			return err
		}
		r.primarySize.Store(int64(chunk.size))
		if len(chunk.data) == 0 {
			continue // heartbeat
		}
		if err := fol.Apply(int64(chunk.off), chunk.data); err != nil {
			return err
		}
	}
}

// resync discards the replica's state and starts over: the primary's
// log is no longer a superset of ours (it compacted, or we forked), so
// byte shipping can never reconcile. Open statements served from the
// old database keep their pre-resync snapshot; new requests see the
// fresh database immediately.
func (r *Replica) resync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.db.Close() //nolint:errcheck
	if err := os.Remove(r.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wire: resync: %w", err)
	}
	db, err := sqldb.OpenDB(r.rt, r.path)
	if err != nil {
		return fmt.Errorf("wire: resync: %w", err)
	}
	fol, err := sqldb.NewFollower(db)
	if err != nil {
		db.Close() //nolint:errcheck
		return fmt.Errorf("wire: resync: %w", err)
	}
	r.db, r.fol = db, fol
	r.primarySize.Store(0)
	r.resyncs.Add(1)
	return nil
}
