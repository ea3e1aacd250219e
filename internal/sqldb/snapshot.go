package sqldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Snapshot + compaction: the log grows with every mutation, so replay
// cost is history-shaped until compaction rewrites it as the minimal
// record sequence that rebuilds the *current* state — one CREATE TABLE
// per table (shadow policy columns included, since they are ordinary
// columns by the time they reach the engine), batched row-ops records
// carrying the live rows *with their stable ids* (so scan order and
// index buckets rebuild identically), and one CREATE INDEX per index.
// The rewrite goes to a temp file first and renames over the log, so a
// crash during compaction leaves either the old log or the new one,
// never a mix. Compaction dumps only the newest committed versions;
// open snapshots are unaffected because they read the in-memory chains,
// which vacuum reclaims on its own registered-snapshot schedule.

// snapshotBatchRows and snapshotBatchBytes bound one dumped row-ops
// record — by row count and by approximate encoded size — so a large or
// wide table compacts into records comfortably inside walMaxRecord.
const (
	snapshotBatchRows  = 256
	snapshotBatchBytes = 1 << 20
)

// ErrNoWAL is returned by Compact on an in-memory database.
var ErrNoWAL = errors.New("sqldb: in-memory database has no WAL")

func (e *Engine) compactWAL() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return ErrNoWAL
	}
	if err := e.wal.usable(); err != nil {
		return err
	}
	// Compaction is a natural reclamation point: prune whatever no
	// registered snapshot still needs before dumping.
	e.vacuum()
	var dict walDict
	return e.wal.rewrite(e.dumpPayloads(&dict), dict)
}

// dumpPayloads serializes the engine's current state as replayable v4
// record payloads, in deterministic order (tables and index columns
// sorted; rows in ascending-id scan order), encoding policy cells
// and table keys against dict, the fresh dictionary of the log they
// will make up.
func (e *Engine) dumpPayloads(dict *walDict) [][]byte {
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	frontier := e.frontier.Load()
	var out [][]byte
	for _, key := range names {
		t := e.tables[key]
		out = append(out, stmtPayload((&CreateTable{Table: t.name, Cols: t.cols}).SQL()))
		var batch []rowOp
		batchBytes := 0
		flush := func() {
			if len(batch) > 0 {
				out = append(out, opsPayload(batch, dict, e.tables))
			}
			batch, batchBytes = nil, 0
		}
		for _, en := range t.entries {
			v := en.visible(frontier)
			if v == nil {
				continue
			}
			batch = append(batch, rowOp{kind: opInsert, table: key, id: en.id, vals: v.row()})
			for _, val := range v.row() {
				batchBytes += len(val.text()) + 16 // tag/varint framing slop
			}
			if len(batch) >= snapshotBatchRows || batchBytes >= snapshotBatchBytes {
				flush()
			}
		}
		flush()
		for _, c := range t.indexedCols() {
			out = append(out, stmtPayload((&CreateIndex{Table: t.name, Column: c}).SQL()))
		}
	}
	return out
}

// syncDir fsyncs the directory dir, persisting a rename in it; a
// filesystem without directory handles has nothing to sync. The one
// seam through which the log syncs a directory.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	return d.Sync()
}

// rewrite atomically replaces the log's contents with the given record
// payloads, encoded against dict: write a temp file, fsync it, rename
// over the log path, fsync the directory, then swap file handles and
// dictionaries. Called under the owning engine's write lock, so no
// append can interleave; a failure before the rename leaves the old log
// and dictionary. A failed directory sync leaves the rename's
// durability unknown — a crash may bring back the old log, which holds
// the same state but not a record appended to the new one — so the log
// swaps to the new file and goes fail-stop, like a failed append.
func (w *wal) rewrite(payloads [][]byte, dict walDict) error {
	tmp := w.path + ".compact"
	f, size, err := writeWALFile(tmp, payloads)
	if err != nil {
		return fmt.Errorf("sqldb: compact: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("sqldb: compact rename: %w", err)
	}
	// Persist the rename; the data itself is already fsynced.
	derr := syncDir(filepath.Dir(w.path))
	w.f.Close() //nolint:errcheck // old log fd; its inode is now unlinked
	w.f = f
	w.size = size
	dict.keep()
	w.dict = dict
	// Offsets into the old log are meaningless now; bump the epoch so
	// shipping streams re-handshake, and wake any waiter so it notices.
	w.epoch++
	w.signal()
	if derr != nil {
		w.broken = derr
		return fmt.Errorf("sqldb: compact: sync directory: %w", derr)
	}
	return nil
}
