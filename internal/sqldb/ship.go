package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
)

// WAL shipping: the replication substrate under the wire protocol's
// read replicas (docs/WIRE.md §5). The unit of replication is the log
// byte: a follower's local log is maintained as a byte-prefix copy of
// the primary's, so the primary ships raw framed record bytes from an
// offset and the follower appends them verbatim (wal.append — the same
// fsync-before-ack write the primary uses, once per chunk), then replays
// complete committed records into its own engine through the replayer
// crash recovery uses (recover.go), parsing them in place in the chunk.
// Because commitOps writes one B..C group per transaction and
// applyReplayGroup installs a group under one commit version, the
// follower's frontier counts the same versions in the same order as the
// primary's — "applied through version N" means the same N on both
// sides.
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
// new log can be shorter than the old offsets). The returned bytes are
// a fresh buffer of exactly their length, the caller's to frame or keep.
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
// Records are parsed where they lie in the shipped chunk. The follower
// keeps only the start of the one record a chunk ends inside, and
// completes it from the front of the next chunk; the records of an open
// B..C group are already decoded into the replayer, so only their count
// of bytes is kept.
//
// The follower's database must not be mutated locally; serve it
// read-only (the wire server's replica mode enforces this). Reads are
// safe concurrently with Apply — they see the applied frontier, never a
// half-replayed transaction, because groups install atomically under
// the engine's write lock.
type Follower struct {
	db *DB

	mu sync.Mutex
	// Received bytes are applied + pending + len(tail): pending counts
	// the bytes of whole records decoded into the open B..C group, and
	// tail holds the received start of the record the last chunk ended
	// inside.
	tail    []byte
	pending int64
	rep     replayer
	applied int64 // bytes applied through (a committed record boundary)
	broken  error // sticky first corruption; the follower is fail-stop
}

// NewFollower wraps a freshly opened persistent database as a shipping
// target, resuming at its recovered log size with the annotation
// dictionary its recovered log defines.
func NewFollower(db *DB) (*Follower, error) {
	e := db.Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal == nil {
		return nil, ErrNoWAL
	}
	rep := replayer{engine: e, dict: slices.Clone(e.wal.dict.names[:e.wal.dict.kept])}
	return &Follower{db: db, rep: rep, applied: e.wal.size}, nil
}

// DB returns the follower's database, for serving read-only queries at
// its applied frontier.
func (f *Follower) DB() *DB { return f.db }

// Offsets reports the follower's replication position: applied is the
// byte offset of the last committed record boundary replayed into the
// engine (also its local log's durable committed prefix), received is
// applied plus the mirrored bytes of an open transaction group and of a
// partial record. A new handshake resumes from received... except after
// a crash, when the unapplied tail is truncated by recovery and received
// equals applied.
func (f *Follower) Offsets() (applied, received int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied, f.received()
}

func (f *Follower) received() int64 { return f.applied + f.pending + int64(len(f.tail)) }

// Frontier returns the follower engine's applied commit version.
func (f *Follower) Frontier() uint64 { return f.db.Frontier() }

// Apply ingests one shipped chunk of primary log bytes starting at byte
// offset off. Chunks must arrive in order: a chunk starting beyond the
// received offset fails with ErrShipBehind (the caller should
// re-handshake from Offsets), while bytes at or before it are
// de-duplicated. Undecodable records fail with a *WALCorruptionError
// (wrapping ErrWALCorrupt) and poison the follower — shipped bytes were
// checksummed end-to-end, so damage means the stream source is not the
// log the handshake verified, and the follower must resync. Apply does
// not keep data.
func (f *Follower) Apply(off int64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken != nil {
		return f.broken
	}
	received := f.received()
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
	if err := f.replay(data); err != nil {
		f.broken, f.tail, f.pending = err, nil, received+int64(len(data))-f.applied
		f.rep.release()
		return err
	}
	if !f.rep.inTx {
		f.rep.release()
	}
	return nil
}

// replay applies every complete record in the tail and data, keeping the
// start of a record data ends inside for the next chunk. Called with
// f.mu held.
func (f *Follower) replay(data []byte) error {
	for len(f.tail) > 0 {
		need := f.tailNeed()
		if need == 0 || need > len(data) {
			f.tail = append(f.tail, data...)
			return nil
		}
		f.tail, data = append(f.tail, data[:need]...), data[need:]
		if payload, end, ok := walNextRecord(f.tail, 0); ok {
			f.tail = nil
			if err := f.record(payload, end); err != nil {
				return err
			}
		}
	}
	for off := 0; off < len(data); {
		payload, end, ok := walNextRecord(data, off)
		if !ok {
			f.holdTail(data[off:])
			return nil
		}
		if err := f.record(payload, end-off); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// tailNeed is how many more bytes the tail needs to hold its record's
// header, or else the whole record. It is 0 when no bytes can complete
// the tail: a zero length, or a whole record whose checksum failed — the
// point where recovery's torn-tail rule stops reading, so every later
// byte is only mirrored and kept.
func (f *Follower) tailNeed() int {
	if len(f.tail) < walRecHeaderSize {
		return walRecHeaderSize - len(f.tail)
	}
	ln := int(binary.LittleEndian.Uint32(f.tail))
	if ln == 0 {
		return 0
	}
	return max(0, walRecHeaderSize+ln-len(f.tail))
}

// holdTail keeps b, the start of the record a chunk ends inside, in a
// buffer sized for the whole record once its header says how long.
func (f *Follower) holdTail(b []byte) {
	size := len(b)
	if len(b) >= walRecHeaderSize {
		if ln := int(binary.LittleEndian.Uint32(b)); ln <= walMaxRecord {
			size = max(size, walRecHeaderSize+ln)
		}
	}
	f.tail = append(make([]byte, 0, size), b...)
}

// record applies one whole record of n framed bytes.
func (f *Follower) record(payload []byte, n int) error {
	boundary, damage := f.rep.apply(payload)
	if damage != nil {
		damage.Path, damage.Offset = "shipped stream", f.applied+f.pending
		return damage
	}
	f.pending += int64(n)
	if boundary {
		f.applied, f.pending = f.applied+f.pending, 0
	}
	return nil
}
