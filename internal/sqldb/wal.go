package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"

	"resin/internal/core"
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
// File format v4 (normative spec in docs/SQL.md §8, pinned byte-for-byte
// by testdata/wal_v4.golden):
//
//	header:  8-byte magic "RESINWAL" + 1 version byte (0x04)
//	record:  uint32 LE payload length | uint32 LE CRC-32 (IEEE) of the
//	         payload | payload bytes
//	payload: 1 type byte + data
//	types:   'S' statement (data = a DDL statement's dialect text, the
//	             form Engine executed — post filter rewrite)
//	         'W' row ops (data = the row-level redo of one DML
//	             statement: uvarint op count, then per op a kind byte
//	             'i'/'u'/'d', the table key as a text value, uvarint
//	             stable row id, and for 'i'/'u' a uvarint column count,
//	             a presence bitmap of ceil(count/8) bytes (column c is
//	             bit c%8 of byte c/8), and one value per set bit: 'N'
//	             for NULL, 'I' + zigzag varint for integers, 'T' +
//	             uvarint length + bytes for text, 'D' + uvarint length +
//	             bytes for text that also defines the log's next
//	             dictionary entry, 'A' + uvarint entry id for a
//	             reference to one. An insert's absent cell is NULL; an
//	             update's is the cell of the row version it replaces)
//	         'R' row ops as v2 and v3 wrote them (the table key as a
//	             uvarint length + bytes, every cell present, no
//	             bitmap): read, never written
//	         'B' transaction begin marker (no data)
//	         'C' transaction commit marker (no data)
//
// Row ops carry stable ids instead of DML text: replay rebuilds the
// exact entries (ids, scan order, index buckets) the live engine had,
// which is what lets transactions merge per-row instead of swapping
// whole engines. An update logs only the cells it changes, against
// exactly the version replay of the log prefix produces: the row's head
// for a statement, or within a commit group the row as the group's
// earlier records left it. Each log has one dictionary (walDict): an
// entry's id is the count of 'D' values before it in the log, and the
// writer uses 'D'/'A' only for table keys and non-NULL text in policy
// columns, at most walDictCap entries per log, so shadow policy columns
// persist byte-exactly with the row version that carries them and each
// distinct annotation and table key is written once. v3 logs row ops
// as 'R' records and v2 is v3 without 'D'/'A'; OpenDB reads either and
// compacts it to v4. Any other version byte — the retired v1 statement
// format included — is refused as corruption, file untouched.
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
	walVersion       = 0x04
	walVersionV3     = 0x03
	walVersionV2     = 0x02
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
	// walDictCap bounds a log's dictionary (the house's memo size): past
	// it the writer logs new annotations and table keys inline ('T')
	// until compaction starts a fresh dictionary, and a reader refuses a
	// 'D'.
	// It bounds the dictionary's heap on every side, for hostile logs too.
	walDictCap = 4096
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
	walRecOps    = 'W'
	walRecRows   = 'R' // row ops in the v2/v3 layout: read, never written
	walRecBegin  = 'B'
	walRecCommit = 'C'
)

// Value tags inside a row-ops record.
const (
	walValNull = 'N'
	walValInt  = 'I'
	walValText = 'T'
	walValDef  = 'D' // text that also defines the next dictionary entry
	walValRef  = 'A' // uvarint id of a dictionary entry
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

	// dict is the log's dictionary of annotations and table keys, as of
	// its last appended record.
	dict walDict
}

// walDict is the writer's side of a log's dictionary: entry i is the
// text (an annotation or a table key) of the log's i-th 'D' value.
// Sizing a record (opsLen) stages the entries it will define, encoding
// it (appendOps) writes their definitions, and wal.append keeps them
// once their record is in the log; a refused or failed append drops
// them, so the dictionary always describes the log's bytes. The text →
// id index is built on first use: a replica's log, which never encodes,
// keeps only names.
type walDict struct {
	names   []string          // entry id → text
	ids     map[string]uint64 // text → entry id, for names[:indexed]
	indexed int
	written int // names[written:] are staged but not yet defined in encoded bytes
	kept    int // names[kept:] are staged
}

// loadedDict is the dictionary a replayed log prefix defines.
func loadedDict(names []string) walDict {
	return walDict{names: names, written: len(names), kept: len(names)}
}

// index returns the text → id index, brought up to date.
func (d *walDict) index() map[string]uint64 {
	if d.ids == nil {
		d.ids = make(map[string]uint64, len(d.names))
	}
	for ; d.indexed < len(d.names); d.indexed++ {
		d.ids[d.names[d.indexed]] = uint64(d.indexed)
	}
	return d.ids
}

// textLen is the encoded length of s as the next dictionary text of the
// bytes being sized: a reference if s has an entry, else a definition if
// the dictionary has room — staging the entry for appendText to define —
// else inline text. A nil dictionary sizes everything inline.
func (d *walDict) textLen(s string) int {
	if d != nil {
		ids := d.index()
		if id, ok := ids[s]; ok {
			return 1 + uvarintLen(id)
		}
		if len(d.names) < walDictCap {
			ids[s] = uint64(len(d.names))
			d.names = append(d.names, s)
			d.indexed++
		}
	}
	return 1 + uvarintLen(uint64(len(s))) + len(s)
}

// appendText encodes s as textLen sized it, in the same order: the
// definition of a staged entry at its first use, a reference after, and
// inline text for a text with no entry.
func (d *walDict) appendText(p []byte, s string) []byte {
	tag := byte(walValText)
	if d != nil {
		if id, ok := d.index()[s]; ok {
			if id < uint64(d.written) {
				return binary.AppendUvarint(append(p, walValRef), id)
			}
			d.written++ // sized in this order, so id == written
			tag = walValDef
		}
	}
	p = binary.AppendUvarint(append(p, tag), uint64(len(s)))
	return append(p, s...)
}

// keep commits the staged entries: their records are in the log.
func (d *walDict) keep() { d.kept = len(d.names) }

// drop forgets the staged entries: their records never reached the log.
func (d *walDict) drop() {
	for _, s := range d.names[d.kept:] {
		delete(d.ids, s)
	}
	clear(d.names[d.kept:])
	d.names = d.names[:d.kept]
	d.indexed = min(d.indexed, d.kept)
	d.written = min(d.written, d.kept)
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

// frameRecords frames payloads into buf as consecutive records. It and
// appendOpsRecord are where the append side enforces walMaxRecord.
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

// appendValue encodes one stored value inline: NULL, zigzag-varint
// integer, or length-prefixed text.
func appendValue(p []byte, v value) []byte {
	switch {
	case v.isNull():
		return append(p, walValNull)
	case v.isInt():
		p = append(p, walValInt)
		return binary.AppendVarint(p, v.num())
	default:
		s := v.text()
		p = append(p, walValText)
		p = binary.AppendUvarint(p, uint64(len(s)))
		return append(p, s...)
	}
}

// opsPayload builds the payload of a row-ops record — the row-level
// redo of one DML statement — encoding texts against d (nil: all
// inline), with the columns of each op's table read from tables.
func opsPayload(ops []rowOp, d *walDict, tables map[string]*table) []byte {
	return appendOps(make([]byte, 0, opsLen(ops, d, tables)), ops, d, tables)
}

// appendOpsRecord frames the row-ops record of ops into buf, encoding
// the payload straight behind its header against the log's dictionary,
// which opsLen has staged for ops. A refused record drops every staged
// entry, its group's included.
func (w *wal) appendOpsRecord(buf []byte, ops []rowOp, tables map[string]*table) ([]byte, error) {
	at := len(buf)
	buf = appendOps(append(buf, make([]byte, walRecHeaderSize)...), ops, &w.dict, tables)
	payload := buf[at+walRecHeaderSize:]
	if len(payload) > walMaxRecord {
		w.dict.drop()
		return nil, fmt.Errorf("%w (%d bytes)", ErrWALRecordTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// logs reports whether op's record carries v, its cell c: an insert
// leaves out a NULL, and an update a cell equal to the one it replaces.
func (op *rowOp) logs(c int, v value) bool {
	if op.old == nil {
		return op.kind != opInsert || !v.isNull()
	}
	return !v.eq(op.old[c])
}

// dictCell reports whether cell c of a row of a table with columns cols
// is encoded against the dictionary d: non-NULL text in a policy column.
func dictCell(d *walDict, cols []ColumnDef, c int, v value) bool {
	return d != nil && !v.marked() && IsPolicyColumn(cols[c].Name)
}

// appendOps appends the payload of ops' row-ops record to p, defining
// the dictionary entries opsLen staged for it.
func appendOps(p []byte, ops []rowOp, d *walDict, tables map[string]*table) []byte {
	p = append(p, walRecOps)
	p = binary.AppendUvarint(p, uint64(len(ops)))
	var cols []ColumnDef
	colsOf := ""
	for i := range ops {
		op := &ops[i]
		p = append(p, op.kind)
		p = d.appendText(p, op.table)
		p = binary.AppendUvarint(p, op.id)
		if op.kind == opDelete {
			continue
		}
		if d != nil && op.table != colsOf {
			cols, colsOf = tables[op.table].cols, op.table
		}
		p = binary.AppendUvarint(p, uint64(len(op.vals)))
		bitmap := len(p)
		for range (len(op.vals) + 7) / 8 {
			p = append(p, 0)
		}
		for c, v := range op.vals {
			if !op.logs(c, v) {
				continue
			}
			p[bitmap+c/8] |= 1 << (c % 8)
			if dictCell(d, cols, c, v) {
				p = d.appendText(p, v.text())
			} else {
				p = appendValue(p, v)
			}
		}
	}
	return p
}

// opsLen is the length of ops' row-ops payload against d (nil: all
// inline), staging in d the entries the payload will define, so that an
// encoder sizes its buffer once, exactly.
func opsLen(ops []rowOp, d *walDict, tables map[string]*table) int {
	n := 1 + uvarintLen(uint64(len(ops)))
	var cols []ColumnDef
	colsOf := ""
	for i := range ops {
		op := &ops[i]
		n += 1 + d.textLen(op.table) + uvarintLen(op.id)
		if op.kind == opDelete {
			continue
		}
		if d != nil && op.table != colsOf {
			cols, colsOf = tables[op.table].cols, op.table
		}
		n += uvarintLen(uint64(len(op.vals))) + (len(op.vals)+7)/8
		for c, v := range op.vals {
			switch {
			case !op.logs(c, v):
			case dictCell(d, cols, c, v):
				n += d.textLen(v.text())
			default:
				n += valueLen(v)
			}
		}
	}
	return n
}

// valueLen is the length of appendValue's encoding of v.
func valueLen(v value) int {
	switch {
	case v.isNull():
		return 1
	case v.isInt():
		ux := uint64(v.num()) << 1 // appendValue's zigzag
		if v.num() < 0 {
			ux = ^ux
		}
		return 1 + uvarintLen(ux)
	default:
		return 1 + uvarintLen(uint64(len(v.text()))) + len(v.text())
	}
}

// uvarintLen is the length of x as binary.AppendUvarint writes it.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// decodeOps parses a row-ops record payload ('W', or 'R' as v2 and v3
// wrote it) into ops appended to the group's op storage. Any structural
// damage is an error: the payload was checksum-protected, so it cannot
// be a torn tail. A run of ops on one table, within a record or across
// records, shares one name string; a shadow policy cell is the interned
// annotation (core.AnnotationString, as annotationFor stores it), read
// straight from the record bytes. A 'D' value becomes the dictionary's
// next entry — interned if it is a cell, a plain string if it is a
// table key — and an 'A' value is the entry it names, with no hashing.
// An insert's absent cell decodes to NULL and an update's to keepValue,
// which replay fills from the row the update replaces (checkOps). Which
// 'T' cells are policy cells is read from the table's columns at decode
// time, so a table created earlier in the same B..C group (only logs
// written when transactions could run DDL have one) replays with its
// inline annotations unshared.
func (r *replayer) decodeOps(payload []byte) ([]rowOp, error) {
	rows, data, off := payload[0] == walRecRows, payload[1:], 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, errors.New("truncated varint")
		}
		off += n
		return v, nil
	}
	text := func() ([]byte, error) {
		n, err := uv()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)-off) {
			return nil, errors.New("truncated text value")
		}
		off += int(n)
		return data[off-int(n) : off], nil
	}
	define := func(s string) error {
		if len(r.dict) >= walDictCap {
			return fmt.Errorf("dictionary entry past the cap of %d", walDictCap)
		}
		r.dict = append(r.dict, s)
		return nil
	}
	ref := func() (string, error) {
		id, err := uv()
		if err != nil {
			return "", err
		}
		if id >= uint64(len(r.dict)) {
			return "", fmt.Errorf("reference to undefined dictionary entry %d", id)
		}
		return r.dict[id], nil
	}
	// table reads an op's table key into r.table: a text value in a 'W'
	// record, a bare length-prefixed name in an 'R' one.
	table := func() error {
		tag := byte(walValText)
		if !rows {
			if off >= len(data) {
				return errors.New("truncated table key")
			}
			tag, off = data[off], off+1
		}
		name := r.table
		switch tag {
		case walValText, walValDef:
			raw, err := text()
			if err != nil {
				return err
			}
			if string(raw) != name {
				name = string(raw)
			}
		case walValRef:
			s, err := ref()
			if err != nil {
				return err
			}
			name = s
		default:
			return fmt.Errorf("unknown table key tag 0x%02x", tag)
		}
		if name != r.table {
			r.table, r.gen = name, 0
		}
		if tag == walValDef {
			return define(name)
		}
		return nil
	}
	// cell reads the value of column c.
	cell := func(c int) (value, error) {
		if off >= len(data) {
			return value{}, errors.New("truncated value")
		}
		tag := data[off]
		off++
		switch tag {
		case walValNull:
			return nullValue(), nil
		case walValInt:
			n, w := binary.Varint(data[off:])
			if w <= 0 {
				return value{}, errors.New("truncated int value")
			}
			off += w
			return intValue(n), nil
		case walValText, walValDef:
			raw, err := text()
			switch {
			case err != nil:
				return value{}, err
			case tag == walValDef:
				s := core.AnnotationString(raw)
				return textValue(s), define(s)
			case c < len(r.cols) && IsPolicyColumn(r.cols[c].Name):
				return textValue(core.AnnotationString(raw)), nil
			default:
				return textValue(string(raw)), nil
			}
		case walValRef:
			s, err := ref()
			return textValue(s), err
		default:
			return value{}, fmt.Errorf("unknown value tag 0x%02x", tag)
		}
	}

	nops, err := uv()
	if err != nil {
		return nil, err
	}
	if nops > uint64(len(data)) { // each op is ≥ 1 byte; cheap sanity bound
		return nil, fmt.Errorf("op count %d exceeds payload", nops)
	}
	start := len(r.ops)
	for k := uint64(0); k < nops; k++ {
		if off >= len(data) {
			return nil, errors.New("truncated op")
		}
		kind := data[off]
		off++
		if kind != opInsert && kind != opUpdate && kind != opDelete {
			return nil, fmt.Errorf("unknown row op kind 0x%02x", kind)
		}
		if err := table(); err != nil {
			return nil, err
		}
		if gen := r.engine.gen.Load(); gen != r.gen {
			r.cols, r.gen = r.engine.columnsOf(r.table), gen
		}
		id, err := uv()
		if err != nil {
			return nil, err
		}
		op := rowOp{kind: kind, table: r.table, id: id}
		if kind != opDelete {
			ncols, err := uv()
			if err != nil {
				return nil, err
			}
			// A 'W' op has exactly its table's columns, one bit each of
			// its bitmap. An 'R' op's cells are ≥ 1 byte each, and an op
			// on a table replay does not know (checkOps refuses it) is
			// held to that bound too.
			if !rows && r.cols != nil && ncols != uint64(len(r.cols)) {
				return nil, fmt.Errorf("column count %d != %d columns of %s", ncols, len(r.cols), r.table)
			}
			if (rows || r.cols == nil) && ncols > uint64(len(data)-off) {
				return nil, fmt.Errorf("column count %d exceeds payload", ncols)
			}
			var bitmap []byte
			if !rows {
				nb := int(ncols+7) / 8
				if nb > len(data)-off {
					return nil, errors.New("truncated presence bitmap")
				}
				bitmap, off = data[off:off+nb], off+nb
				if ncols%8 != 0 && bitmap[nb-1]>>(ncols%8) != 0 {
					return nil, fmt.Errorf("presence bitmap wider than %d columns", ncols)
				}
			}
			absent := nullValue()
			if kind == opUpdate {
				absent = keepValue()
			}
			op.vals = make([]value, ncols)
			for c := range op.vals {
				if bitmap != nil && bitmap[c/8]&(1<<(c%8)) == 0 {
					op.vals[c] = absent
				} else if op.vals[c], err = cell(c); err != nil {
					return nil, err
				}
			}
		}
		r.ops = append(r.ops, op)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after ops", len(data)-off)
	}
	return r.ops[start:len(r.ops):len(r.ops)], nil
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
// garbage). The dictionary entries the frames define are kept only once
// they are synced; any failure drops them.
func (w *wal) append(frames []byte) (err error) {
	defer func() {
		if err != nil {
			w.dict.drop()
		} else {
			w.dict.keep()
		}
	}()
	if err = w.usable(); err != nil {
		return err
	}
	if _, err = w.f.Write(frames); err != nil {
		w.broken = err
		return fmt.Errorf("sqldb: WAL append: %w", err)
	}
	w.size += int64(len(frames))
	w.signal()
	if err = w.f.Sync(); err != nil {
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

// writeWALFile writes a fresh v4 log containing the given record
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
