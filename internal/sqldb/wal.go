package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// The write-ahead log: durability for tables and their shadow policy
// columns (ROADMAP: "so policies survive process restarts the way the
// paper's MySQL-backed prototype did"). The engine stores plain values
// and the filter persists policies in shadow columns (docs/SQL.md §3),
// so one log of the *rewritten* statements the engine executes captures
// both: replaying the statement sequence rebuilds tables, rows, indexes,
// and the serialized policy annotations, and the existing batched decode
// (core.CompileAnnotation) re-interns the policy sets on first read.
//
// File format v2 (normative spec in docs/SQL.md §8, pinned byte-for-byte
// by testdata/wal_v2.golden):
//
//	header:  8-byte magic "RESINWAL" + 1 version byte (0x02)
//	record:  uint32 LE payload length | uint32 LE CRC-32 (IEEE) of the
//	         payload | payload bytes
//	payload: 1 type byte + data
//	types:   'S' statement (data = a DDL statement's dialect text, the
//	             form Engine executed — post filter rewrite)
//	         'R' row ops (data = the row-level redo of one DML
//	             statement: uvarint op count, then per op a kind byte
//	             'i'/'u'/'d', uvarint table-key length + bytes, uvarint
//	             stable row id, and for 'i'/'u' a uvarint column count
//	             followed by one value each: 'N' for NULL, 'I' + zigzag
//	             varint for integers, 'T' + uvarint length + bytes for
//	             text — so shadow policy columns persist byte-exactly
//	             with the row version that carries them)
//	         'B' transaction begin marker (no data)
//	         'C' transaction commit marker (no data)
//
// v2 logs rows by stable id instead of re-logging DML text: replay
// rebuilds the exact entries (ids, scan order, index buckets) the live
// engine had, which is what lets transactions merge per-row instead of
// swapping whole engines. Any other version byte — the retired v1
// statement format included — is refused as corruption, file untouched.
//
// The log is written in one place (wal.append: every acknowledged
// mutation is fsynced before its ack, unconditionally) and interpreted
// in one place (replayer, recover.go): crash recovery and replicas
// (ship.go) differ only in where the bytes come from.
//
// Records outside B..C markers apply on replay as they are read; a
// B..C group applies atomically at its commit marker, and a group whose
// commit marker never made it to disk is dropped entirely — recovery
// drops uncommitted suffixes. Torn tails (a partial record, a checksum
// mismatch, a zero length from a preallocated tail) truncate the log at
// the last applied boundary; damage that a crash cannot explain — bad
// magic, an unknown record type, an unparseable statement or undecodable
// row op *protected by a valid checksum* — is reported as a
// *WALCorruptionError instead of being silently dropped.
const (
	walMagic         = "RESINWAL"
	walVersion       = 0x02
	walHeader        = walMagic + string(rune(walVersion))
	walHeaderSize    = len(walHeader)
	walRecHeaderSize = 8
	// walMaxRecord bounds one record's payload, enforced symmetrically:
	// appends refuse a larger payload (ErrWALRecordTooLarge — the
	// statement is rejected before it mutates anything), and recovery
	// treats a larger length field as a torn tail, not an allocation
	// request. Without the append-side check an oversized statement
	// would be acked as durable and then silently truncated — along
	// with everything after it — on the next open.
	walMaxRecord = 64 << 20
)

// WALMaxRecord is the exported record-payload bound, so the wire
// protocol can pin its frame limit to the same value: a result or log
// chunk the server frames is never larger than what the log itself
// would have accepted, and neither side can ack bytes the other must
// then truncate.
const WALMaxRecord = walMaxRecord

// WAL record type bytes.
const (
	walRecStmt   = 'S'
	walRecOps    = 'R'
	walRecBegin  = 'B'
	walRecCommit = 'C'
)

// ErrDBClosed is returned for mutations against a closed persistent
// database (DB.Close syncs and closes the log; acknowledging a write
// afterwards would un-promise durability).
var ErrDBClosed = errors.New("sqldb: database is closed")

// ErrWALCorrupt is the sentinel matched by errors.Is for every
// *WALCorruptionError.
var ErrWALCorrupt = errors.New("sqldb: corrupt WAL")

// ErrWALRecordTooLarge rejects a single statement whose log record
// would exceed walMaxRecord; the statement is not applied.
var ErrWALRecordTooLarge = errors.New("sqldb: statement exceeds the WAL record size limit")

// ErrWALBusy reports that another process (or another DB handle in this
// one) holds the write lock on the log file.
var ErrWALBusy = errors.New("sqldb: WAL is locked by another database handle")

// WALCorruptionError reports log damage that the torn-tail rule cannot
// explain away: the bytes up to Offset were intact (checksums passed)
// but their content is not a valid record sequence.
type WALCorruptionError struct {
	Path   string
	Offset int64
	Reason string
	Err    error
}

func (e *WALCorruptionError) Error() string {
	msg := fmt.Sprintf("sqldb: corrupt WAL %s at offset %d: %s", e.Path, e.Offset, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *WALCorruptionError) Unwrap() error { return e.Err }

// Is matches the ErrWALCorrupt sentinel.
func (e *WALCorruptionError) Is(target error) bool { return target == ErrWALCorrupt }

// wal is the open write-ahead log of one persistent engine. All writer
// state is guarded by the owning Engine's write lock (appends happen
// inside ExecuteRaw's critical section — a mutation is durable before
// its ack leaves the engine) except during Tx.Commit, which detaches the
// wal from the engine before appending the commit group (see tx.go).
type wal struct {
	path string
	f    *os.File
	size int64

	closed bool
	broken error // sticky first write/sync failure; the wal is fail-stop

	// epoch counts whole-log rewrites (compaction). A shipped byte offset
	// is only meaningful within one epoch: after a rewrite the same
	// offsets name different bytes, so replication streams carry the
	// epoch and a follower that observes a change re-handshakes (ship.go).
	epoch uint64

	// notify, when non-nil (armed by DB.WALNotify), receives a
	// non-blocking token after every size-changing append so a shipping
	// loop can wait for new bytes without polling.
	notify chan struct{}
}

// signal wakes a WALNotify waiter, if any; never blocks.
func (w *wal) signal() {
	if w.notify == nil {
		return
	}
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// usable reports whether the log can accept an append.
func (w *wal) usable() error {
	if w.closed {
		return ErrDBClosed
	}
	if w.broken != nil {
		return fmt.Errorf("sqldb: WAL failed earlier and is write-disabled: %w", w.broken)
	}
	return nil
}

// appendRecord frames one payload into buf.
func appendRecord(buf []byte, payload []byte) []byte {
	var hdr [walRecHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// frameRecords frames payloads into buf as consecutive records. It is
// the one place the append side enforces walMaxRecord.
func frameRecords(buf []byte, payloads ...[]byte) ([]byte, error) {
	for _, p := range payloads {
		if len(p) > walMaxRecord {
			return nil, fmt.Errorf("%w (%d bytes)", ErrWALRecordTooLarge, len(p))
		}
		buf = appendRecord(buf, p)
	}
	return buf, nil
}

// stmtPayload builds the payload of a statement record.
func stmtPayload(text string) []byte {
	p := make([]byte, 0, 1+len(text))
	p = append(p, walRecStmt)
	return append(p, text...)
}

// appendValue encodes one stored value: NULL, zigzag-varint integer, or
// length-prefixed text.
func appendValue(p []byte, v value) []byte {
	switch {
	case v.null:
		return append(p, 'N')
	case v.isInt:
		p = append(p, 'I')
		return binary.AppendVarint(p, v.i)
	default:
		p = append(p, 'T')
		p = binary.AppendUvarint(p, uint64(len(v.s)))
		return append(p, v.s...)
	}
}

// opsPayload builds the payload of a row-ops record — the row-level
// redo of one DML statement.
func opsPayload(ops []rowOp) []byte {
	p := []byte{walRecOps}
	p = binary.AppendUvarint(p, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		p = append(p, op.kind)
		p = binary.AppendUvarint(p, uint64(len(op.table)))
		p = append(p, op.table...)
		p = binary.AppendUvarint(p, op.id)
		if op.kind == opInsert || op.kind == opUpdate {
			p = binary.AppendUvarint(p, uint64(len(op.vals)))
			for _, v := range op.vals {
				p = appendValue(p, v)
			}
		}
	}
	return p
}

// decodeOpsPayload parses a row-ops record body (the bytes after the
// 'R' type byte). Any structural damage is an error: the payload was
// checksum-protected, so it cannot be a torn tail.
func decodeOpsPayload(data []byte) ([]rowOp, error) {
	off := 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, errors.New("truncated varint")
		}
		off += n
		return v, nil
	}
	nops, err := uv()
	if err != nil {
		return nil, err
	}
	if nops > uint64(len(data)) { // each op is ≥ 1 byte; cheap sanity bound
		return nil, fmt.Errorf("op count %d exceeds payload", nops)
	}
	ops := make([]rowOp, 0, nops)
	for k := uint64(0); k < nops; k++ {
		if off >= len(data) {
			return nil, errors.New("truncated op")
		}
		kind := data[off]
		off++
		if kind != opInsert && kind != opUpdate && kind != opDelete {
			return nil, fmt.Errorf("unknown row op kind 0x%02x", kind)
		}
		tl, err := uv()
		if err != nil {
			return nil, err
		}
		if tl > uint64(len(data)-off) {
			return nil, errors.New("truncated table name")
		}
		tbl := string(data[off : off+int(tl)])
		off += int(tl)
		id, err := uv()
		if err != nil {
			return nil, err
		}
		op := rowOp{kind: kind, table: tbl, id: id}
		if kind == opInsert || kind == opUpdate {
			ncols, err := uv()
			if err != nil {
				return nil, err
			}
			if ncols > uint64(len(data)-off) {
				return nil, fmt.Errorf("column count %d exceeds payload", ncols)
			}
			op.vals = make([]value, 0, ncols)
			for c := uint64(0); c < ncols; c++ {
				if off >= len(data) {
					return nil, errors.New("truncated value")
				}
				tag := data[off]
				off++
				switch tag {
				case 'N':
					op.vals = append(op.vals, nullValue())
				case 'I':
					n, w := binary.Varint(data[off:])
					if w <= 0 {
						return nil, errors.New("truncated int value")
					}
					off += w
					op.vals = append(op.vals, intValue(n))
				case 'T':
					sl, err := uv()
					if err != nil {
						return nil, err
					}
					if sl > uint64(len(data)-off) {
						return nil, errors.New("truncated text value")
					}
					op.vals = append(op.vals, textValue(string(data[off:off+int(sl)])))
					off += int(sl)
				default:
					return nil, fmt.Errorf("unknown value tag 0x%02x", tag)
				}
			}
		}
		ops = append(ops, op)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after ops", len(data)-off)
	}
	return ops, nil
}

// append writes pre-framed record bytes to the log and fsyncs before
// returning: the only place the live log handle is written, and the
// whole durability contract — nothing is acknowledged unsynced. The
// frames are a statement's record, a transaction's B..C group (one
// write and one sync for the whole group, which is what lets recovery
// drop an uncommitted suffix), or a replica's mirrored chunk of primary
// bytes. On any write or sync failure the wal goes fail-stop: the error
// is sticky and every later append refuses, so a partially written tail
// can never be followed by more records (recovery would interleave
// garbage).
func (w *wal) append(frames []byte) error {
	if err := w.usable(); err != nil {
		return err
	}
	if _, err := w.f.Write(frames); err != nil {
		w.broken = err
		return fmt.Errorf("sqldb: WAL append: %w", err)
	}
	w.size += int64(len(frames))
	w.signal()
	if err := w.f.Sync(); err != nil {
		w.broken = err
		return fmt.Errorf("sqldb: WAL sync: %w", err)
	}
	return nil
}

// appendRecords frames payloads and appends them as one write.
func (w *wal) appendRecords(payloads ...[]byte) error {
	frames, err := frameRecords(nil, payloads...)
	if err != nil {
		return err
	}
	return w.append(frames)
}

// close closes the file (every append was already synced). The wal
// stays attached with closed set, so later mutations fail with
// ErrDBClosed instead of silently losing durability.
func (w *wal) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// writeWALFile writes a fresh v2 log containing the given record
// payloads to path (the compaction writer and the new-file path share
// it): header, one record per payload, fsynced before return.
func writeWALFile(path string, payloads [][]byte) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	// The advisory lock follows the inode through the compaction
	// rename, keeping the single-writer rule intact across the handle
	// swap (the old fd's lock dies with it).
	if err := lockWALFile(f); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, fmt.Errorf("%w: %s", ErrWALBusy, path)
	}
	buf, err := frameRecords([]byte(walHeader), payloads...)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	return f, int64(len(buf)), nil
}

// walNextRecord reads one record's framing (length + checksum) at off.
// ok is false at a torn tail: a partial record header, a zero or
// oversized length, a truncated payload, or a checksum mismatch. It is
// the single framing reader — recovery and the boundary scanner both
// use it, so the torn-tail rule cannot drift between them.
func walNextRecord(data []byte, off int) (payload []byte, end int, ok bool) {
	if len(data)-off < walRecHeaderSize {
		return nil, 0, false
	}
	ln := int(binary.LittleEndian.Uint32(data[off : off+4]))
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if ln == 0 || ln > walMaxRecord || off+walRecHeaderSize+ln > len(data) {
		return nil, 0, false
	}
	payload = data[off+walRecHeaderSize : off+walRecHeaderSize+ln]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, off + walRecHeaderSize + ln, true
}

// walRecordEnds scans framing only (no payload interpretation) and
// returns the end offset of every intact record — the truncation points
// the crash-recovery property test replays. A valid header contributes
// walHeaderSize as the first boundary.
func walRecordEnds(data []byte) []int64 {
	if len(data) < walHeaderSize || string(data[:len(walMagic)]) != walMagic {
		return nil
	}
	ends := []int64{int64(walHeaderSize)}
	off := walHeaderSize
	for off < len(data) {
		_, end, ok := walNextRecord(data, off)
		if !ok {
			break
		}
		off = end
		ends = append(ends, int64(off))
	}
	return ends
}
