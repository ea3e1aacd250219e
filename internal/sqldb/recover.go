package sqldb

import (
	"fmt"
	"io"
	"os"
	"strings"

	"resin/internal/core"
)

// Recovery: OpenDB replays the log at path into a fresh engine, then
// truncates any torn tail and attaches the log for appending. Records
// are interpreted by the replayer below — the same state machine a
// replica runs over shipped bytes (ship.go), so both rebuild the shadow
// policy columns identically. DDL records parse and validate like live
// DDL; row-ops records are semantically validated (Engine.checkOps) and
// applied with their logged stable ids, so the recovered entries, scan
// order, ordered-index buckets, and shadow policy columns are
// bit-for-bit what the live engine held. The engine gets a fresh
// process-unique schema generation per replayed DDL, so plans cached
// against a previous incarnation recompile instead of reusing stale
// schema conclusions.

// OpenDB opens a database persisted in a write-ahead log at path,
// replaying the committed record prefix (see docs/SQL.md §8). An empty
// path returns an in-memory database, exactly like Open — existing
// callers and benchmarks pay nothing for the persistence layer. A log
// that is not format v2 fails with a *WALCorruptionError and is left
// byte-for-byte as found.
func OpenDB(rt *core.Runtime, path string) (*DB, error) {
	db := Open(rt)
	if path == "" {
		return db, nil
	}
	w, err := replayWAL(path, db.engine)
	if err != nil {
		return nil, err
	}
	db.engine.attachWAL(w)
	return db, nil
}

// SetWALAutoCompact arms background compaction: once the log exceeds
// bytes, the next mutation kicks off an asynchronous Compact (one at a
// time; failures leave the old, still-valid log). bytes <= 0 disables
// the policy (the default). Open snapshots stay correct: compaction
// rewrites only the file, and version reclamation respects every
// registered snapshot.
func (db *DB) SetWALAutoCompact(bytes int64) {
	db.Engine().autoCompact.Store(bytes)
}

// Close closes the write-ahead log. Later mutations fail with
// ErrDBClosed; reads keep working against the in-memory state. Closing
// an in-memory database (or closing twice) is a no-op.
func (db *DB) Close() error {
	db.txMu.Lock()
	defer db.txMu.Unlock()
	return db.engine.closeWAL()
}

// Compact rewrites the log as the minimal statement sequence that
// rebuilds the current state (snapshot + compaction, docs/SQL.md §8), so
// replay cost is bounded by live data instead of history length.
func (db *DB) Compact() error {
	return db.Engine().compactWAL()
}

// WALSize reports the log's current byte length (0 for an in-memory
// database). Tests and operators use it to decide when to Compact.
func (db *DB) WALSize() int64 {
	e := db.Engine()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.wal == nil {
		return 0
	}
	return e.wal.size
}

func (e *Engine) attachWAL(w *wal) {
	e.mu.Lock()
	e.wal = w
	e.mu.Unlock()
}

func (e *Engine) closeWAL() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return nil
	}
	return e.wal.close()
}

// walItem is one buffered replay unit: a DDL statement's text, or a
// DML statement's decoded row ops.
type walItem struct {
	stmt string
	ops  []rowOp
}

// replayer is the WAL record state machine, shared by crash recovery
// (replayWAL) and replicas (Follower.drain): it buffers records into a
// group and applies the group at its commit boundary — a standalone
// record is a one-item group; a B..C group applies at its commit marker
// under one commit version, exactly as commitOps installed it live, so
// replayed frontiers match the primary's numbering record for record.
type replayer struct {
	engine *Engine
	inTx   bool
	group  []walItem
}

// apply consumes one checksummed record payload. boundary reports that
// the record completed a group and the group is now applied to the
// engine; records inside an open B..C group only buffer. A non-nil
// damage is corruption the checksum vouched for; the caller fills in
// where the record came from (Path, Offset).
func (r *replayer) apply(payload []byte) (boundary bool, damage *WALCorruptionError) {
	bad := func(reason string, err error) (bool, *WALCorruptionError) {
		return false, &WALCorruptionError{Reason: reason, Err: err}
	}
	var failed string
	switch payload[0] {
	case walRecStmt:
		r.group = append(r.group, walItem{stmt: string(payload[1:])})
		failed = "statement replay failed"
	case walRecOps:
		ops, err := decodeOpsPayload(payload[1:])
		if err != nil {
			return bad("undecodable row-ops record", err)
		}
		r.group = append(r.group, walItem{ops: ops})
		failed = "row-ops replay failed"
	case walRecBegin:
		if len(payload) != 1 {
			return bad("begin marker with payload", nil)
		}
		if r.inTx {
			return bad("nested transaction begin marker", nil)
		}
		r.inTx = true
		return false, nil
	case walRecCommit:
		if len(payload) != 1 {
			return bad("commit marker with payload", nil)
		}
		if !r.inTx {
			return bad("commit marker without begin", nil)
		}
		r.inTx = false
		failed = "transaction replay failed"
	default:
		return bad(fmt.Sprintf("unknown record type 0x%02x", payload[0]), nil)
	}
	if r.inTx {
		return false, nil
	}
	err := r.engine.applyReplayGroup(r.group)
	r.group = nil
	if err != nil {
		return bad(failed, err)
	}
	return true, nil
}

// replayWAL opens (creating if absent) the log at path, applies its
// committed prefix to engine, truncates any torn tail, and returns the
// log positioned for appending.
func replayWAL(path string, engine *Engine) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// Single writer: two handles replaying and then appending to the
	// same log at independent offsets would interleave frames and
	// corrupt it. The lock is advisory, per-file, and released by
	// wal.close (or process exit).
	if err := lockWALFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrWALBusy, path)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}

	// Corruption leaves the file byte-for-byte as found.
	corrupt := func(off int64, reason string) (*wal, error) {
		f.Close()
		return nil, &WALCorruptionError{Path: path, Offset: off, Reason: reason}
	}

	if len(data) < walHeaderSize {
		// Shorter than a header: a crash while creating the file leaves a
		// prefix of the header (torn — start the log over); anything else
		// is not a RESIN WAL.
		if !strings.HasPrefix(walMagic, string(data)) && len(data) > 0 {
			return corrupt(0, "not a RESIN WAL (bad magic)")
		}
		return resetWAL(path, f)
	}
	if string(data[:len(walMagic)]) != walMagic {
		return corrupt(0, "not a RESIN WAL (bad magic)")
	}
	if version := data[len(walMagic)]; version != walVersion {
		return corrupt(int64(len(walMagic)), fmt.Sprintf("unsupported WAL version %d (want %d)", version, walVersion))
	}

	// goodEnd is the offset after the last applied boundary: a
	// standalone record, or a transaction's commit marker. A group whose
	// commit never hit the disk is dropped with the torn tail.
	goodEnd := int64(walHeaderSize)
	rep := replayer{engine: engine}
	for off := walHeaderSize; ; {
		payload, end, ok := walNextRecord(data, off)
		if !ok {
			break // torn tail: partial/zeroed framing or bad checksum
		}
		boundary, damage := rep.apply(payload)
		if damage != nil {
			f.Close()
			damage.Path, damage.Offset = path, int64(off)
			return nil, damage
		}
		if boundary {
			goodEnd = int64(end)
		}
		off = end
	}

	if goodEnd < int64(len(data)) {
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("sqldb: truncate torn WAL tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("sqldb: sync truncated WAL: %w", err)
		}
	}
	if _, err := f.Seek(goodEnd, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{path: path, f: f, size: goodEnd}, nil
}

// resetWAL starts the log over with a fresh header (new file, or a file
// torn inside the header before any record existed).
func resetWAL(path string, f *os.File) (*wal, error) {
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.WriteAt([]byte(walHeader), 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(walHeaderSize), 0); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{path: path, f: f, size: int64(walHeaderSize)}, nil
}
