package sqldb

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// WAL shipping: the replication substrate under the wire protocol's
// read replicas (docs/WIRE.md §4). The unit of replication is the log
// byte: a follower's local log is maintained as a byte-prefix copy of
// the primary's, so the primary ships raw framed record bytes from an
// offset and the follower appends them verbatim (wal.append — the same
// fsync-before-ack write the primary uses), then replays complete
// committed records into its own engine through the replayer crash
// recovery uses (recover.go). Because commitOps writes one B..C group
// per transaction and applyReplayGroup installs a group under one
// commit version, the follower's frontier counts the same versions in
// the same order as the primary's — "applied through version N" means
// the same N on both sides.
//
// Offsets are only meaningful within one log epoch. Compaction rewrites
// the whole file (wal.rewrite), after which old offsets name different
// bytes; the epoch counter increments and every shipping stream must
// re-handshake. The handshake is content-addressed: the follower
// presents (size, CRC-32 of its first size bytes) and the primary
// accepts iff that is a byte-exact prefix of its current log —
// ErrShipBehind then means "ship me bytes from size", while
// ErrShipDiverged means the follower's history is not a prefix (the
// primary compacted, or the follower forked) and the follower must
// resync from scratch.

// ErrShipBehind reports a resumable offset mismatch: the receiver is
// missing bytes before the chunk's offset (or the presented prefix is
// simply shorter than the primary's log). Recovery is to re-ship from
// the receiver's received offset — no state is lost.
var ErrShipBehind = errors.New("sqldb: follower is behind the shipped offset")

// ErrShipDiverged reports that a follower's log is not a byte prefix of
// the primary's — its history can never be reconciled by shipping more
// bytes. The follower must discard its state and resync from scratch.
var ErrShipDiverged = errors.New("sqldb: follower log diverged from the primary")

// Frontier returns the engine's current commit version. A primary and a
// follower that have applied the same committed log prefix report equal
// frontiers (pinned by TestFollowerFrontierMatchesPrimary).
func (db *DB) Frontier() uint64 {
	return db.Engine().frontier.Load()
}

// WALStatus reports the log's current epoch and byte size. It is the
// shipping source's positioning call: a follower at (epoch, size) with
// a verified prefix needs exactly the bytes [size, primarySize) of the
// same epoch.
func (db *DB) WALStatus() (epoch uint64, size int64, err error) {
	e := db.Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal == nil {
		return 0, 0, ErrNoWAL
	}
	return e.wal.epoch, e.wal.size, nil
}

// WALNotify returns a channel that receives a token after every
// size-changing log append (coalesced; capacity one). A shipping loop
// waits on it instead of polling WALStatus.
func (db *DB) WALNotify() (<-chan struct{}, error) {
	e := db.Engine()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return nil, ErrNoWAL
	}
	if e.wal.notify == nil {
		e.wal.notify = make(chan struct{}, 1)
	}
	return e.wal.notify, nil
}

// ReadWAL reads up to max log bytes starting at byte offset off, for
// shipping to a follower. The returned epoch identifies the log
// incarnation the bytes came from; a caller that saw a different epoch
// earlier must discard its stream state and re-handshake. Reading at
// the current end returns (nil, epoch, nil); reading past it returns
// ErrShipBehind (the offset outruns this log — after a compaction the
// new log can be shorter than the old offsets).
func (db *DB) ReadWAL(off int64, max int) (data []byte, epoch uint64, err error) {
	e := db.Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal == nil {
		return nil, 0, ErrNoWAL
	}
	w := e.wal
	if w.closed {
		return nil, w.epoch, ErrDBClosed
	}
	if off > w.size {
		return nil, w.epoch, fmt.Errorf("%w: offset %d beyond log size %d", ErrShipBehind, off, w.size)
	}
	n := w.size - off
	if n > int64(max) {
		n = int64(max)
	}
	if n == 0 {
		return nil, w.epoch, nil
	}
	buf := make([]byte, n)
	if _, err := w.f.ReadAt(buf, off); err != nil {
		return nil, w.epoch, fmt.Errorf("sqldb: WAL read at %d: %w", off, err)
	}
	return buf, w.epoch, nil
}

// VerifyWALPrefix checks a follower's position against this primary's
// log: size and the CRC-32 (IEEE) of the follower's first size bytes.
// It returns nil when that is a byte-exact prefix of the current log
// (ship from size onward), and ErrShipDiverged when it is not — the
// follower is longer than the log, or its bytes differ.
func (db *DB) VerifyWALPrefix(size int64, crc uint32) error {
	e := db.Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal == nil {
		return ErrNoWAL
	}
	if size > e.wal.size {
		return fmt.Errorf("%w: follower log (%d bytes) is longer than the primary's (%d)", ErrShipDiverged, size, e.wal.size)
	}
	ours, err := walPrefixCRC(e.wal, size)
	if err != nil {
		return err
	}
	if ours != crc {
		return fmt.Errorf("%w: prefix checksum mismatch over %d bytes", ErrShipDiverged, size)
	}
	return nil
}

// WALPrefixCRC computes the CRC-32 (IEEE) of the log's first n bytes —
// the follower's half of the shipping handshake.
func (db *DB) WALPrefixCRC(n int64) (uint32, error) {
	e := db.Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal == nil {
		return 0, ErrNoWAL
	}
	return walPrefixCRC(e.wal, n)
}

func walPrefixCRC(w *wal, n int64) (uint32, error) {
	if w.closed {
		return 0, ErrDBClosed
	}
	if n > w.size {
		return 0, fmt.Errorf("sqldb: prefix length %d beyond log size %d", n, w.size)
	}
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, io.NewSectionReader(w.f, 0, n)); err != nil {
		return 0, fmt.Errorf("sqldb: WAL prefix checksum: %w", err)
	}
	return h.Sum32(), nil
}

// Follower replays shipped primary log bytes into a local database. The
// database must have been opened with OpenDB on its own log path: every
// received byte is first appended (and fsynced) to that local log, then
// complete committed records are applied to the engine — so a follower
// that crashes recovers by plain OpenDB (which truncates any torn or
// uncommitted tail) and resumes shipping from its recovered size.
//
// The follower's database must not be mutated locally; serve it
// read-only (the wire server's replica mode enforces this). Reads are
// safe concurrently with Apply — they see the applied frontier, never a
// half-replayed transaction, because groups install atomically under
// the engine's write lock.
type Follower struct {
	db *DB

	mu sync.Mutex
	// buf holds received-but-unapplied bytes: everything from offset
	// `applied` onward. parseOff is how far into buf record scanning has
	// advanced (>0 only while buffering an open B..C group).
	buf      []byte
	parseOff int
	rep      replayer
	applied  int64 // bytes applied through (a committed record boundary)
	broken   error // sticky first corruption; the follower is fail-stop
}

// NewFollower wraps a freshly opened persistent database as a shipping
// target, resuming at its recovered log size.
func NewFollower(db *DB) (*Follower, error) {
	e := db.Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal == nil {
		return nil, ErrNoWAL
	}
	return &Follower{db: db, rep: replayer{engine: e}, applied: e.wal.size}, nil
}

// DB returns the follower's database, for serving read-only queries at
// its applied frontier.
func (f *Follower) DB() *DB { return f.db }

// Offsets reports the follower's replication position: applied is the
// byte offset of the last committed record boundary replayed into the
// engine (also its local log's durable committed prefix), received is
// applied plus buffered bytes of an open transaction group. A new
// handshake resumes from received... except after a crash, when the
// buffered tail is truncated by recovery and received equals applied.
func (f *Follower) Offsets() (applied, received int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied, f.applied + int64(len(f.buf))
}

// Frontier returns the follower engine's applied commit version.
func (f *Follower) Frontier() uint64 { return f.db.Frontier() }

// Apply ingests one shipped chunk of primary log bytes starting at byte
// offset off. Chunks must arrive in order: a chunk starting beyond the
// received offset fails with ErrShipBehind (the caller should
// re-handshake from Offsets), while bytes at or before it are
// de-duplicated. Undecodable records fail with a *WALCorruptionError
// (wrapping ErrWALCorrupt) and poison the follower — shipped bytes were
// checksummed end-to-end, so damage means the stream source is not the
// log the handshake verified, and the follower must resync.
func (f *Follower) Apply(off int64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken != nil {
		return f.broken
	}
	received := f.applied + int64(len(f.buf))
	if off > received {
		return fmt.Errorf("%w: chunk at %d, received only %d", ErrShipBehind, off, received)
	}
	if off+int64(len(data)) <= received {
		return nil // entirely duplicate
	}
	data = data[received-off:]
	// Mirror first, apply second: the local log is the durable copy, and
	// recovery tolerates a mirrored-but-unapplied tail (it replays it).
	e := f.db.Engine()
	e.mu.Lock()
	err := e.wal.append(data)
	e.mu.Unlock()
	if err != nil {
		return err
	}
	f.buf = append(f.buf, data...)
	return f.drain()
}

// drain applies every complete record in buf, holding incomplete tails
// (and open transaction groups) for the next chunk. Called with f.mu
// held.
func (f *Follower) drain() error {
	for {
		payload, end, ok := walNextRecord(f.buf, f.parseOff)
		if !ok {
			return nil // incomplete tail: wait for more bytes
		}
		boundary, damage := f.rep.apply(payload)
		if damage != nil {
			damage.Path, damage.Offset = "shipped stream", f.applied+int64(f.parseOff)
			f.broken = damage
			return damage
		}
		if boundary {
			f.commitTo(end)
		} else {
			f.parseOff = end
		}
	}
}

// commitTo advances the applied boundary to buf offset end, releasing
// the consumed bytes. Called with f.mu held.
func (f *Follower) commitTo(end int) {
	f.applied += int64(end)
	f.buf = append([]byte(nil), f.buf[end:]...)
	f.parseOff = 0
}
