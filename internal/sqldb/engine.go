package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"resin/internal/core"
)

// The engine executes parsed statements over in-memory tables holding
// plain (untracked) values — like the MySQL server behind the paper's PHP
// prototype, the database itself knows nothing about policies. Policy
// persistence happens one layer up, in the RESIN SQL filter, which
// rewrites queries to read and write shadow policy columns (Figure 4).
//
// Storage is multi-versioned (docs/ARCHITECTURE.md "Concurrency"):
// every row has a stable id and a chain of immutable versions stamped
// with the commit version that created them. SELECTs capture the commit
// frontier under a brief read lock, copy out their candidate set, and
// evaluate rows with no lock held — a concurrent writer can commit new
// versions mid-evaluation without the reader ever seeing them. DELETE
// appends a tombstone version instead of compacting row storage, so
// stable ids (and the indexes keyed by them) survive; superseded index
// pairs and dead versions are reclaimed by vacuum once no registered
// snapshot can reach them.

// Engine errors. Wrapped ErrNoColumn errors always name the table as
// well as the column ("table.column"), so a failing query over a
// multi-table schema pins down which schema it missed.
var (
	ErrNoTable      = errors.New("sqldb: no such table")
	ErrTableExists  = errors.New("sqldb: table already exists")
	ErrNoColumn     = errors.New("sqldb: no such column")
	ErrTypeMismatch = errors.New("sqldb: type mismatch")
	ErrIndexExists  = errors.New("sqldb: index already exists")
	ErrNoIndex      = errors.New("sqldb: no such index")
)

// value is one stored cell: NULL, an integer, or text.
type value struct {
	null  bool
	isInt bool
	i     int64
	s     string
}

func nullValue() value         { return value{null: true} }
func intValue(v int64) value   { return value{isInt: true, i: v} }
func textValue(s string) value { return value{s: s} }
func (v value) String() string {
	switch {
	case v.null:
		return "NULL"
	case v.isInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return v.s
	}
}

// rowVersion is one immutable version of a row. born is the commit
// version at which it became visible; a tombstone marks the row deleted
// from that version on. vals and born never change after the version is
// linked into a chain; prev is rewritten only by vacuum, and only on
// versions no registered snapshot can traverse past (see table.vacuum).
type rowVersion struct {
	born uint64
	tomb bool
	vals []value
	prev *rowVersion
}

// rowEntry is one row slot: a stable id plus the version chain, newest
// first. head is atomic because readers resolve visibility with no lock
// held while writers (under the engine write lock) prepend versions.
type rowEntry struct {
	id   uint64
	head atomic.Pointer[rowVersion]
}

// visible returns the version of the row a snapshot sees, or nil when
// the row did not exist (or was deleted) at snap. Chains are ordered by
// descending born, so the first version at or below snap decides.
func (en *rowEntry) visible(snap uint64) *rowVersion {
	for v := en.head.Load(); v != nil; v = v.prev {
		if v.born <= snap {
			if v.tomb {
				return nil
			}
			return v
		}
	}
	return nil
}

// staleRef is a deferred index removal: the pair (indexKey(v), id) in
// column ci's index may no longer be reachable by any snapshot. Vacuum
// drains these once the version chain proves the key gone.
type staleRef struct {
	ci int
	v  value
	id uint64
}

// table is one in-memory table. cols and colIdx are immutable after
// creation; entries (ascending id, append-only between vacuums), byID,
// indexes and stale are guarded by the engine's write lock. Readers
// copy the entries slice header (and candidate id lists) under the read
// lock and then work lock-free: appends only ever touch capacity their
// header does not cover, and vacuum swaps in a fresh slice rather than
// compacting in place.
type table struct {
	name    string
	cols    []ColumnDef
	colIdx  map[string]int // lower-cased column name → position
	entries []*rowEntry
	byID    map[uint64]*rowEntry
	indexes map[int]*orderedIndex // column position → ordered index (index.go)
	stale   []staleRef
}

func newTable(name string, cols []ColumnDef) *table {
	t := &table{
		name:   name,
		cols:   cols,
		colIdx: make(map[string]int, len(cols)),
		byID:   make(map[uint64]*rowEntry),
	}
	for i, c := range t.cols {
		t.colIdx[strings.ToLower(c.Name)] = i
	}
	return t
}

// colLookups counts colIndex calls — every column-name resolution of
// the package goes through it — so tests can pin that an execution of a
// bound plan resolves no name, mirroring SortCount.
var colLookups atomic.Uint64

// colIndex resolves a column name case-insensitively. The memoized map
// covers every ASCII spelling (column names are ASCII identifiers); the
// linear EqualFold walk remains only as a fallback for programmatically
// built statements with non-ASCII case variants.
func (t *table) colIndex(name string) int {
	colLookups.Add(1)
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	for i, c := range t.cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// scope resolves column references to positions in the row layout an
// expression evaluates against. A single table is a scope over its own
// columns; a join evaluates against concatenated left++right rows via
// joinScope (join.go). The binder resolves through this interface, so
// one bound evaluator serves both layouts.
type scope interface {
	resolveCol(name string) (int, error)
}

// splitQualifier splits a table-qualified column reference "t.c" into
// its qualifier and column. Names without a dot — or with an empty half,
// which no real qualification produces — return ok=false and resolve as
// plain column names.
func splitQualifier(name string) (qual, col string, ok bool) {
	i := strings.IndexByte(name, '.')
	if i <= 0 || i == len(name)-1 {
		return "", "", false
	}
	return name[:i], name[i+1:], true
}

// resolveCol resolves a (possibly table-qualified) column reference
// against this table. Exact column names win first — a column literally
// named "a.b" keeps resolving as it always has — then "t.c" resolves c
// when t names this table. The returned error always names the table(s)
// searched (the ErrNoColumn contract).
func (t *table) resolveCol(name string) (int, error) {
	if ci := t.colIndex(name); ci >= 0 {
		return ci, nil
	}
	if qual, col, ok := splitQualifier(name); ok {
		if !strings.EqualFold(qual, t.name) {
			return -1, fmt.Errorf("%w: %s (table %s is not in this query)", ErrNoColumn, name, qual)
		}
		if ci := t.colIndex(col); ci >= 0 {
			return ci, nil
		}
		return -1, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.name, col)
	}
	return -1, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.name, name)
}

// outColName names a projected column in a result: a reference that
// resolved through a table qualifier keeps its qualification (with the
// table and column canonically spelled), everything else keeps the
// column's declared name.
func (t *table) outColName(ref string, ci int) string {
	if t.colIndex(ref) < 0 {
		if _, _, ok := splitQualifier(ref); ok {
			return t.name + "." + t.cols[ci].Name
		}
	}
	return t.cols[ci].Name
}

// indexKey is the canonical equality key of a value: non-null values key
// by their rendered form, matching valueCompare's MySQL-ish coercion
// (int 1 and text '1' compare equal and share a key); NULL gets a
// reserved key that no `col = literal` lookup ever probes, since SQL
// equality with NULL never matches. The ordered-index structure itself
// lives in index.go.
func indexKey(v value) string {
	if v.null {
		return nullKey
	}
	var buf [32]byte
	return string(appendIndexKey(buf[:0], v))
}

const nullKey = "\x00null"

// appendIndexKey appends indexKey(v) to dst, so that a bucket lookup
// can key a map with the bytes and allocate nothing.
func appendIndexKey(dst []byte, v value) []byte {
	switch {
	case v.null:
		return append(dst, nullKey...)
	case v.isInt:
		return strconv.AppendInt(append(dst, '='), v.i, 10)
	default:
		return append(append(dst, '='), v.s...)
	}
}

// keyMatches reports indexKey(v) == key without materializing the key
// string. The visible-key rule runs this once per index candidate on
// the lock-free read path, where a per-row FormatInt+concat would
// dominate the profile. Ints render into a stack buffer (the
// byte-slice/string comparison below does not allocate), so a text key
// like "=01" still correctly differs from int 1's canonical "=1".
func keyMatches(v value, key string) bool {
	if v.null {
		return key == nullKey
	}
	if len(key) == 0 || key[0] != '=' {
		return false
	}
	if !v.isInt {
		return key[1:] == v.s
	}
	var buf [20]byte
	return string(strconv.AppendInt(buf[:0], v.i, 10)) == key[1:]
}

// buildIndex constructs an orderedIndex over column ci from the version
// chains. Every reachable (non-tombstone) version contributes its key,
// not just the newest: a snapshot older than the build may later probe
// this index, and the superset invariant must hold for the values *it*
// sees. Keys that only old versions carry come back as stale refs so
// vacuum reclaims them on the usual schedule.
func buildIndex(entries []*rowEntry, ci int) (*orderedIndex, []staleRef) {
	ix := newOrderedIndex()
	var stale []staleRef
	for _, en := range entries {
		head := en.head.Load()
		var headKey string
		haveHead := head != nil && !head.tomb
		if haveHead {
			headKey = indexKey(head.vals[ci])
		}
		seen := map[string]bool{}
		for v := head; v != nil; v = v.prev {
			if v.tomb {
				continue
			}
			k := indexKey(v.vals[ci])
			if seen[k] {
				continue
			}
			seen[k] = true
			ix.add(v.vals[ci], en.id)
			if !haveHead || k != headKey {
				stale = append(stale, staleRef{ci: ci, v: v.vals[ci], id: en.id})
			}
		}
	}
	return ix, stale
}

// schemaGenCounter issues process-unique schema generations: every DDL
// statement (CREATE/DROP TABLE or INDEX) stamps its engine with a fresh
// generation, and plan-cache entries compiled against an older (or other
// engine's) generation recompile instead of reusing stale schema
// conclusions. Uniqueness across engines matters because transactions
// execute against speculative engines.
var schemaGenCounter atomic.Uint64

// provisionalIDBase is where a transaction's speculative engine starts
// allocating row ids. Ids at or above it never collide with the base
// engine's (which would need 2^62 inserts); Commit remaps them onto
// fresh base ids in redo order.
const provisionalIDBase = uint64(1) << 62

// vacuumEvery is the mutation cadence of the background reclamation
// pass: every vacuumEvery applied mutations (and every Compact) the
// engine prunes version chains, drops dead entries, and drains stale
// index refs no registered snapshot can still need.
const vacuumEvery = 512

// rowOp kinds. A rowOp is the row-level effect of one validated DML
// statement: the exact versions a commit installs, keyed by stable row
// id — the unit the WAL logs (wal.go 'R' records) and Commit
// conflict-checks.
const (
	opInsert = 'i'
	opUpdate = 'u'
	opDelete = 'd'
)

type rowOp struct {
	kind  byte
	table string // lower-cased table key
	id    uint64
	vals  []value // full row for insert/update; nil for delete
}

// redoRec is one statement's worth of a transaction's redo: either a
// DDL statement (logged as dialect text) or the row ops of a DML
// statement. Commit replays them onto the base engine in order.
type redoRec struct {
	ddl Statement
	ops []rowOp
}

// Engine is the in-memory database engine. It is safe for concurrent
// use: SELECTs capture a snapshot under a brief read lock and evaluate
// rows lock-free against immutable versions, while writers (including
// index maintenance and vacuum) serialize under the write lock.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*table
	gen    atomic.Uint64

	// frontier is the newest committed version: a mutation installs its
	// versions with born = frontier+1 and then publishes them all at
	// once by storing the new frontier. Only the write lock moves it, so
	// a snapshot captured under the read lock is stable.
	frontier atomic.Uint64

	// nextID allocates stable row ids, monotonically; ids are never
	// reused, so ascending id order is insertion order — the scan order.
	// Guarded by mu.
	nextID uint64

	// muts counts mutations since the last vacuum. Guarded by mu.
	muts int

	// Registered snapshots, so vacuum reclaims only versions no active
	// reader, transaction, or mid-evaluation SELECT can reach: top is the
	// newest registered snapshot and topN its reader count — nearly every
	// SELECT reads at the frontier, so registering one is a field
	// update — and snaps counts (version → refcount) the older ones,
	// which the next registration after a commit demotes there from top.
	// A registration is counted in topN or in snaps, never both. Guarded
	// by snapMu (not mu: readers register while holding only the read
	// lock).
	snapMu sync.Mutex
	top    uint64
	topN   int
	snaps  map[uint64]int

	// wal, when non-nil, is the write-ahead log this engine appends every
	// successful mutation to — inside the write-lock critical section, so
	// a mutation is durable before its ack leaves the engine. See wal.go /
	// recover.go.
	wal *wal

	// autoCompact, when > 0, is the WAL size (bytes) past which a
	// mutation triggers a background Compact (DB.SetWALAutoCompact);
	// compacting debounces so only one runs at a time.
	autoCompact atomic.Int64
	compacting  atomic.Bool

	// Transaction speculation: a Tx's private engine has txBase set to
	// the engine it forked from and txSnap to the registered snapshot it
	// reads at. Its tables map starts as a shallow copy of the base
	// catalog; owned marks tables materialized (deep-copied at txSnap)
	// on first write, and beginTables remembers the base catalog as of
	// Begin for Commit's conflict check. redo records every mutation.
	// A speculative engine is confined to its transaction, so these
	// need no locking beyond the Tx's own mutex.
	txBase      *Engine
	txSnap      uint64
	owned       map[string]bool
	beginTables map[string]*table
	redo        []redoRec
}

// NewEngine returns an empty database engine.
func NewEngine() *Engine {
	e := &Engine{tables: make(map[string]*table), nextID: 1}
	e.gen.Store(schemaGenCounter.Add(1))
	return e
}

// SchemaGen returns the engine's current schema generation: a
// process-unique value that changes on every CREATE/DROP of a table or
// index. Cached query plans key their schema-derived state on it.
func (e *Engine) SchemaGen() uint64 { return e.gen.Load() }

func (e *Engine) bumpSchemaGen() { e.gen.Store(schemaGenCounter.Add(1)) }

// acquireSnap registers the current frontier as an active snapshot and
// returns it. Callers must hold e.mu (read or write): the frontier
// cannot move while any lock is held, so registration cannot race a
// commit, and vacuum (which runs under the write lock) will see the
// registration before it could reclaim anything the snapshot needs.
func (e *Engine) acquireSnap() uint64 {
	s := e.frontier.Load()
	e.snapMu.Lock()
	if s != e.top {
		// A commit moved the frontier: the old top's readers move to snaps.
		if e.topN > 0 {
			e.snapCount(e.top, e.topN)
		}
		e.top, e.topN = s, 0
	}
	e.topN++
	e.snapMu.Unlock()
	return s
}

func (e *Engine) releaseSnap(s uint64) {
	e.snapMu.Lock()
	if s == e.top && e.topN > 0 {
		e.topN--
	} else {
		e.snapCount(s, -1)
	}
	e.snapMu.Unlock()
}

// snapCount adds d readers to an older snapshot's count. Caller holds
// snapMu.
func (e *Engine) snapCount(s uint64, d int) {
	if e.snaps == nil {
		e.snaps = make(map[uint64]int)
	}
	if e.snaps[s] += d; e.snaps[s] <= 0 {
		delete(e.snaps, s)
	}
}

// minActiveSnap returns the oldest version any registered snapshot (or
// the frontier itself) can read. Caller holds the write lock.
func (e *Engine) minActiveSnap() uint64 {
	min := e.frontier.Load()
	e.snapMu.Lock()
	if e.topN > 0 && e.top < min {
		min = e.top
	}
	for s := range e.snaps {
		if s < min {
			min = s
		}
	}
	e.snapMu.Unlock()
	return min
}

// rawResult is the engine-level result of a SELECT: column names plus
// plain values. A single-table SELECT's rows are the matched versions'
// value slices themselves — immutable, so they are read in place — and
// pos holds the bound plan's positions: column j of a row is
// row[pos[j]]. Joins and aggregates build their rows, and pos is nil.
type rawResult struct {
	cols []string
	rows [][]value
	pos  []int
	buf  [8][]value // the rows of a short result, in the same allocation
}

// at returns column j of row.
func (r *rawResult) at(row []value, j int) value {
	if r.pos != nil {
		return row[r.pos[j]]
	}
	return row[j]
}

// materialize replaces rows read in place with their projected copies,
// all in one backing array, so that rows[i][j] is column j.
func (r *rawResult) materialize() {
	if r == nil || r.pos == nil {
		return
	}
	w := len(r.pos)
	vals := make([]value, len(r.rows)*w)
	for i, row := range r.rows {
		out := vals[i*w : (i+1)*w : (i+1)*w]
		for j, ci := range r.pos {
			out[j] = row[ci]
		}
		r.rows[i] = out
	}
	r.pos = nil
}

// Len reports the row count. Callers outside the package hold *rawResult
// values returned by ExecuteRaw; this lets them size-check results.
func (r *rawResult) Len() int {
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// ExecuteRaw runs a statement and returns the raw result (SELECT) or nil,
// its rows materialized. affected reports the number of rows touched by
// INSERT/UPDATE/DELETE. SELECTs evaluate against a snapshot with no lock
// held; all other statements serialize under the write lock. The
// statement is bound on the fly; a Param in it is unbound.
func (e *Engine) ExecuteRaw(stmt Statement) (res *rawResult, affected int, err error) {
	res, affected, _, err = e.execute(stmt, nil, nil)
	res.materialize()
	return res, affected, err
}

// execute runs stmt with its Param slots read from slots. b is a bound
// plan of stmt (or of the statement stmt was rewritten into), used when
// it was bound at the generation of the catalog the statement resolves
// against; otherwise the binder binds stmt under the lock. execute
// returns the bound plan it ran — nil for DDL, joins and aggregates.
func (e *Engine) execute(stmt Statement, slots []Expr, b *boundStmt) (*rawResult, int, *boundStmt, error) {
	if s, ok := stmt.(*Select); ok {
		r, b, err := e.execSelect(s, slots, b)
		return r, 0, b, err
	}
	// A speculative engine materializes the target table (a private copy
	// of the rows visible at its snapshot) before any write touches it.
	if e.txBase != nil {
		if key, ok := mutationTarget(stmt); ok {
			e.materialize(key)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		// Refuse up front rather than validate work the log cannot ack
		// (closed database, or a log that already failed a write).
		if werr := e.wal.usable(); werr != nil {
			return nil, 0, nil, werr
		}
	}
	switch stmt.(type) {
	case *CreateTable, *DropTable, *CreateIndex, *DropIndex:
		_, apply, err := e.validateDDL(stmt)
		if err != nil {
			// A statement that failed validation was never applied and must
			// leave the log byte-identical (tested by
			// TestRejectedStatementLeavesWALUntouched).
			return nil, 0, nil, err
		}
		// Write-ahead for real: the record is durable before the
		// infallible apply step mutates memory, so a failed append — disk
		// full, closed log — rejects the statement with both memory and
		// log unchanged.
		if e.wal != nil {
			if werr := e.wal.appendRecords(stmtPayload(stmt.SQL())); werr != nil {
				return nil, 0, nil, werr
			}
		}
		if e.txBase != nil {
			e.redo = append(e.redo, redoRec{ddl: stmt})
		}
		apply()
		return nil, 0, nil, nil
	default:
		n, ops, b, err := e.validateDML(stmt, slots, b)
		if err != nil {
			return nil, 0, nil, err
		}
		if len(ops) == 0 {
			// UPDATE/DELETE that matched nothing: replaying a no-op is
			// sound but would grow the log (and burn a version) for
			// nothing.
			return nil, n, b, nil
		}
		if e.wal != nil {
			if werr := e.wal.appendRecords(opsPayload(ops)); werr != nil {
				return nil, 0, nil, werr
			}
		}
		if e.txBase != nil {
			e.redo = append(e.redo, redoRec{ops: ops})
		}
		born := e.frontier.Load() + 1
		e.applyOps(ops, born)
		e.frontier.Store(born)
		e.afterMutate()
		return nil, n, b, nil
	}
}

// mutationTarget names the table a mutating statement writes. CREATE
// TABLE is excluded: it targets a table that must not exist yet.
func mutationTarget(stmt Statement) (string, bool) {
	switch s := stmt.(type) {
	case *DropTable:
		return strings.ToLower(s.Table), true
	case *CreateIndex:
		return strings.ToLower(s.Table), true
	case *DropIndex:
		return strings.ToLower(s.Table), true
	case *Insert:
		return strings.ToLower(s.Table), true
	case *Update:
		return strings.ToLower(s.Table), true
	case *Delete:
		return strings.ToLower(s.Table), true
	}
	return "", false
}

// validateDDL checks a schema statement and returns an apply step that
// cannot fail.
func (e *Engine) validateDDL(stmt Statement) (int, func(), error) {
	switch s := stmt.(type) {
	case *CreateTable:
		return e.createTable(s)
	case *DropTable:
		return e.dropTable(s)
	case *CreateIndex:
		return e.createIndex(s)
	case *DropIndex:
		return e.dropIndex(s)
	default:
		return 0, nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

// validateDML checks a row-mutating statement under the held write lock
// and returns the affected-row count plus the row ops to install: every
// error surfaces here, before the WAL logs the ops, so a logged record
// always replays. b is used when it fits the engine's generation; the
// bound plan the statement ran is returned.
func (e *Engine) validateDML(stmt Statement, slots []Expr, b *boundStmt) (int, []rowOp, *boundStmt, error) {
	var name string
	var targets int
	switch s := stmt.(type) {
	case *Insert:
		name, targets = s.Table, len(s.Columns)
	case *Update:
		name, targets = s.Table, len(s.Set)
	case *Delete:
		name = s.Table
	default:
		return 0, nil, nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
	key := strings.ToLower(name)
	t, ok := e.tables[key]
	if !ok {
		return 0, nil, nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	if gen := e.gen.Load(); !b.fits(gen, targets) {
		var err error
		if b, err = bindStmt(stmt, t, len(slots), gen); err != nil {
			return 0, nil, nil, err
		}
	}
	var n int
	var ops []rowOp
	var err error
	switch s := stmt.(type) {
	case *Insert:
		n, ops, err = e.insert(s, key, t, slots, b)
	case *Update:
		n, ops, err = e.update(s, key, t, slots, b)
	default:
		n, ops, err = e.delete(key, t, slots, b)
	}
	return n, ops, b, err
}

// applyOps installs validated row ops as versions born at the given
// commit version. It cannot fail: replay validates ops separately
// (checkOps) before calling it.
func (e *Engine) applyOps(ops []rowOp, born uint64) {
	for i := range ops {
		op := &ops[i]
		t := e.tables[op.table]
		switch op.kind {
		case opInsert:
			en := &rowEntry{id: op.id}
			en.head.Store(&rowVersion{born: born, vals: op.vals})
			t.entries = append(t.entries, en)
			t.byID[op.id] = en
			if op.id >= e.nextID {
				e.nextID = op.id + 1
			}
			for ci, ix := range t.indexes {
				ix.add(op.vals[ci], op.id)
			}
		case opUpdate:
			en := t.byID[op.id]
			old := en.head.Load()
			en.head.Store(&rowVersion{born: born, vals: op.vals, prev: old})
			for ci, ix := range t.indexes {
				if old.tomb || indexKey(old.vals[ci]) != indexKey(op.vals[ci]) {
					ix.add(op.vals[ci], op.id)
					if !old.tomb {
						t.stale = append(t.stale, staleRef{ci: ci, v: old.vals[ci], id: op.id})
					}
				}
			}
		case opDelete:
			en := t.byID[op.id]
			old := en.head.Load()
			en.head.Store(&rowVersion{born: born, tomb: true, prev: old})
			if !old.tomb {
				for ci := range t.indexes {
					t.stale = append(t.stale, staleRef{ci: ci, v: old.vals[ci], id: op.id})
				}
			}
		}
	}
	e.muts += len(ops)
}

// checkOps validates replayed row ops against the engine's current
// state — the semantic half of WAL integrity, catching checksummed-but-
// nonsensical records before the infallible apply.
func (e *Engine) checkOps(ops []rowOp) error {
	// Simulate id liveness within the batch: a later op may target a row
	// an earlier op of the same batch inserts or deletes.
	born := map[uint64]bool{}
	dead := map[uint64]bool{}
	for i := range ops {
		op := &ops[i]
		t := e.tables[op.table]
		if t == nil {
			return fmt.Errorf("%w: %s", ErrNoTable, op.table)
		}
		switch op.kind {
		case opInsert:
			if len(op.vals) != len(t.cols) {
				return fmt.Errorf("sqldb: row op arity %d != %d columns of %s", len(op.vals), len(t.cols), op.table)
			}
			if _, ok := t.byID[op.id]; ok || born[op.id] {
				return fmt.Errorf("sqldb: duplicate row id %d in %s", op.id, op.table)
			}
			born[op.id] = true
		case opUpdate, opDelete:
			if op.kind == opUpdate && len(op.vals) != len(t.cols) {
				return fmt.Errorf("sqldb: row op arity %d != %d columns of %s", len(op.vals), len(t.cols), op.table)
			}
			if dead[op.id] {
				return fmt.Errorf("sqldb: row op targets deleted id %d in %s", op.id, op.table)
			}
			if _, ok := t.byID[op.id]; !ok && !born[op.id] {
				return fmt.Errorf("sqldb: row op targets unknown id %d in %s", op.id, op.table)
			}
			if op.kind == opDelete {
				dead[op.id] = true
			}
		default:
			return fmt.Errorf("sqldb: unknown row op kind 0x%02x", op.kind)
		}
	}
	return nil
}

// applyReplayGroup validates and applies one committed WAL group under
// a single commit version — the replay mirror of commitOps, which logs
// a whole group and bumps the frontier exactly once. The replayer calls
// it for every B..C group and for standalone records (as one-item
// groups), on recovery and on replicas alike, which keeps replayed and
// shipped frontiers numerically identical to the primary's live
// frontier — what lets a replica report "applied through version N"
// meaningfully. DDL applies without a version bump and without
// re-appending to the log: the record's bytes are already in the log
// being replayed (recovery) or mirrored (follower shipping).
func (e *Engine) applyReplayGroup(items []walItem) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	born := e.frontier.Load() + 1
	bumped := false
	for _, it := range items {
		if it.ops != nil {
			if err := e.checkOps(it.ops); err != nil {
				return err
			}
			e.applyOps(it.ops, born)
			bumped = true
			continue
		}
		stmt, err := Parse(core.NewString(it.stmt))
		if err != nil {
			return err
		}
		// Only DDL is logged as text ('S'); DML is logged as row ops, so
		// any other statement here is damage the checksum vouched for.
		_, apply, err := e.validateDDL(stmt)
		if err != nil {
			return err
		}
		apply()
	}
	if bumped {
		e.frontier.Store(born)
	}
	return nil
}

// afterMutate runs the post-apply housekeeping a real engine does under
// its held write lock: vacuum on cadence, and the auto-compact trigger.
// Speculative engines skip both — their versions die with the Tx.
func (e *Engine) afterMutate() {
	if e.txBase != nil {
		return
	}
	if e.muts >= vacuumEvery {
		e.vacuum()
	}
	if limit := e.autoCompact.Load(); limit > 0 && e.wal != nil && e.wal.size > limit &&
		e.compacting.CompareAndSwap(false, true) {
		go func() {
			defer e.compacting.Store(false)
			// Best-effort: a failed compaction leaves the old (valid) log;
			// a broken WAL already refuses appends with its own error.
			e.compactWAL() //nolint:errcheck
		}()
	}
}

// vacuum reclaims what no registered snapshot can reach: it prunes
// version chains below the oldest active snapshot, drops entries whose
// newest version is an unreachable tombstone, and drains stale index
// refs whose keys no surviving version carries. Runs under the write
// lock; readers mid-evaluation are safe because they registered their
// snapshot (bounding minActiveSnap) and hold their own entries/bucket
// slice copies (vacuum replaces slices, never compacts them in place).
func (e *Engine) vacuum() {
	min := e.minActiveSnap()
	for _, t := range e.tables {
		t.vacuum(min)
	}
	e.muts = 0
}

func (t *table) vacuum(min uint64) {
	anyDead := false
	for _, en := range t.entries {
		head := en.head.Load()
		// Cut the chain below the newest version an active snapshot can
		// still pick: every snapshot ≥ min stops at or above it, so no
		// reader will ever load the severed prev pointer.
		for v := head; v != nil; v = v.prev {
			if v.born <= min {
				v.prev = nil
				break
			}
		}
		if head.born <= min && head.tomb {
			anyDead = true
		}
	}
	if anyDead {
		kept := make([]*rowEntry, 0, len(t.entries))
		for _, en := range t.entries {
			head := en.head.Load()
			if head.born <= min && head.tomb {
				delete(t.byID, en.id)
				continue
			}
			kept = append(kept, en)
		}
		t.entries = kept
	}
	if len(t.stale) == 0 {
		return
	}
	type staleKey struct {
		ci  int
		key string
		id  uint64
	}
	var remain []staleRef
	seen := make(map[staleKey]bool, len(t.stale))
	for _, sr := range t.stale {
		ix := t.indexes[sr.ci]
		if ix == nil {
			continue // index dropped; nothing to drain
		}
		k := indexKey(sr.v)
		if seen[staleKey{sr.ci, k, sr.id}] {
			continue
		}
		seen[staleKey{sr.ci, k, sr.id}] = true
		en := t.byID[sr.id]
		if en == nil {
			ix.remove(sr.v, sr.id)
			continue
		}
		carried := false
		for v := en.head.Load(); v != nil; v = v.prev {
			if !v.tomb && indexKey(v.vals[sr.ci]) == k {
				carried = true
				break
			}
		}
		if carried {
			// Some reachable version still holds this key (the row moved
			// back, or an old version survives for an active snapshot);
			// the pair must stay. Retry on a later vacuum.
			remain = append(remain, sr)
			continue
		}
		ix.remove(sr.v, sr.id)
	}
	t.stale = remain
}

// materialize gives a speculative engine its own copy of a base table —
// the rows visible at the transaction's snapshot, same ids, rebuilt
// indexes — so writes stay private. Reads of untouched tables keep
// going straight to the base at the snapshot (no copy).
func (e *Engine) materialize(key string) {
	if e.owned[key] {
		return
	}
	t := e.tables[key]
	if t == nil {
		return // validation will report ErrNoTable
	}
	b := e.txBase
	b.mu.RLock()
	nt := newTable(t.name, t.cols)
	for _, en := range t.entries {
		if v := en.visible(e.txSnap); v != nil {
			ne := &rowEntry{id: en.id}
			ne.head.Store(&rowVersion{vals: v.vals}) // born 0: visible to the whole Tx
			nt.entries = append(nt.entries, ne)
			nt.byID[en.id] = ne
		}
	}
	if len(t.indexes) > 0 {
		nt.indexes = make(map[int]*orderedIndex, len(t.indexes))
		for ci := range t.indexes {
			ix, _ := buildIndex(nt.entries, ci) // single-version chains: nothing stale
			nt.indexes[ci] = ix
		}
	}
	b.mu.RUnlock()
	e.tables[key] = nt
	e.owned[key] = true
}

// Schema returns the column definitions of a table.
func (e *Engine) Schema(name string) ([]ColumnDef, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return append([]ColumnDef(nil), t.cols...), nil
}

// Tables returns the sorted table names.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (e *Engine) createTable(s *CreateTable) (int, func(), error) {
	key := strings.ToLower(s.Table)
	if _, ok := e.tables[key]; ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrTableExists, s.Table)
	}
	seen := make(map[string]bool)
	for _, c := range s.Cols {
		k := strings.ToLower(c.Name)
		if seen[k] {
			return 0, nil, fmt.Errorf("sqldb: duplicate column %q", c.Name)
		}
		seen[k] = true
	}
	return 0, func() {
		e.tables[key] = newTable(s.Table, append([]ColumnDef(nil), s.Cols...))
		if e.txBase != nil {
			e.owned[key] = true
		}
		e.bumpSchemaGen()
	}, nil
}

func (e *Engine) dropTable(s *DropTable) (int, func(), error) {
	key := strings.ToLower(s.Table)
	if _, ok := e.tables[key]; !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrNoTable, s.Table)
	}
	return 0, func() {
		delete(e.tables, key)
		// A speculative engine keeps its owned marker: the transaction
		// touched this name, so Commit must still pointer-check the base
		// catalog entry it was dropped from.
		e.bumpSchemaGen()
	}, nil
}

func (e *Engine) createIndex(s *CreateIndex) (int, func(), error) {
	t, ok := e.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrNoTable, s.Table)
	}
	ci := t.colIndex(s.Column)
	if ci < 0 {
		return 0, nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, s.Column)
	}
	if _, ok := t.indexes[ci]; ok {
		return 0, nil, fmt.Errorf("%w: %s (%s)", ErrIndexExists, s.Table, s.Column)
	}
	return 0, func() {
		if t.indexes == nil {
			t.indexes = make(map[int]*orderedIndex, 1)
		}
		ix, stale := buildIndex(t.entries, ci)
		t.indexes[ci] = ix
		t.stale = append(t.stale, stale...)
		e.bumpSchemaGen()
	}, nil
}

func (e *Engine) dropIndex(s *DropIndex) (int, func(), error) {
	t, ok := e.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrNoTable, s.Table)
	}
	ci := t.colIndex(s.Column)
	if ci < 0 {
		return 0, nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, s.Column)
	}
	if _, ok := t.indexes[ci]; !ok {
		return 0, nil, fmt.Errorf("%w: %s (%s)", ErrNoIndex, s.Table, s.Column)
	}
	return 0, func() {
		delete(t.indexes, ci)
		e.bumpSchemaGen()
	}, nil
}

// Indexes returns the names of the indexed columns of a table, sorted.
// On a speculative engine an unmaterialized table delegates to the base
// (its index set may be changing under the base's lock, not ours).
func (e *Engine) Indexes(name string) ([]string, error) {
	key := strings.ToLower(name)
	if e.txBase != nil && !e.owned[key] {
		if _, ok := e.tables[key]; ok {
			return e.txBase.Indexes(name)
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	out := make([]string, 0, len(t.indexes))
	for ci := range t.indexes {
		out = append(out, t.cols[ci].Name)
	}
	sort.Strings(out)
	return out, nil
}

// literalValue converts a literal expression to a stored value, coercing
// to the column type.
func literalValue(ex Expr, typ ColType) (value, error) {
	switch v := ex.(type) {
	case *NullLit:
		return nullValue(), nil
	case *StringLit:
		if typ == ColInt {
			n, err := strconv.ParseInt(strings.TrimSpace(v.Val.Raw()), 10, 64)
			if err != nil {
				return value{}, fmt.Errorf("%w: %q is not an integer", ErrTypeMismatch, v.Val.Raw())
			}
			return intValue(n), nil
		}
		return textValue(v.Val.Raw()), nil
	case *IntLit:
		if typ == ColInt {
			return intValue(v.Val), nil
		}
		return textValue(strconv.FormatInt(v.Val, 10)), nil
	default:
		return value{}, fmt.Errorf("sqldb: expected literal, got %T", ex)
	}
}

// insert converts every row in the validate phase, so a bad value in any
// row rejects the whole INSERT before a single row (or WAL record) lands.
// Row ids are provisional against nextID; apply claims them.
func (e *Engine) insert(s *Insert, key string, t *table, slots []Expr, b *boundStmt) (int, []rowOp, error) {
	ops := make([]rowOp, 0, len(s.Rows))
	for k, exprs := range s.Rows {
		row := make([]value, len(t.cols))
		for i := range row {
			row[i] = nullValue()
		}
		for i, ex := range exprs {
			ci := b.cols[i]
			v, err := literalValue(slotExpr(ex, slots), t.cols[ci].Type)
			if err != nil {
				return 0, nil, err
			}
			row[ci] = v
		}
		ops = append(ops, rowOp{kind: opInsert, table: key, id: e.nextID + uint64(k), vals: row})
	}
	return len(s.Rows), ops, nil
}

// matchEntries returns the entries whose version visible at snap
// satisfies b's WHERE, with those versions, in ascending id (scan) order
// — via an index when the predicate analyzer finds a usable probe.
func (t *table) matchEntries(b *boundStmt, slots []Expr, snap uint64) ([]*rowEntry, []*rowVersion, error) {
	var ents []*rowEntry
	var vers []*rowVersion
	match := func(en *rowEntry, v *rowVersion) error {
		ok, err := b.where.test(v.vals, slots)
		if ok {
			ents = append(ents, en)
			vers = append(vers, v)
		}
		return err
	}
	if probe, ok := t.chooseProbe(b.conj, slots); ok {
		var buf [8]indexCand
		for _, c := range probe.rowOrderCandidates(buf[:0]) {
			en := t.byID[c.id]
			if en == nil {
				continue
			}
			v := en.visible(snap)
			if v == nil || (c.key != "" && !keyMatches(v.vals[probe.ci], c.key)) {
				continue
			}
			if err := match(en, v); err != nil {
				return nil, nil, err
			}
		}
		return ents, vers, nil
	}
	for _, en := range t.entries {
		if v := en.visible(snap); v != nil {
			if err := match(en, v); err != nil {
				return nil, nil, err
			}
		}
	}
	return ents, vers, nil
}

// selCand is one candidate row a SELECT's collection phase emitted: the
// entry plus, for index traversals, the bucket key it was found under.
// The key is empty where no visible-key check is due: for scans (every
// entry is its own candidate) and equality buckets (see
// indexProbe.candidates).
type selCand struct {
	en  *rowEntry
	key string
}

// execSelect runs a SELECT. On a speculative engine, reads of tables
// the transaction has not written go straight to the base engine at the
// transaction's snapshot — Begin pays no copy for them. A join whose
// sides straddle the two engines (one side written by the transaction,
// the other not) materializes the unwritten side first: both sides then
// read one engine at one snapshot, never a mix.
//
// The redirect resolves names against the transaction's catalog, so it
// hands the base that catalog's generation along with the table.
func (e *Engine) execSelect(s *Select, slots []Expr, b *boundStmt) (*rawResult, *boundStmt, error) {
	if e.txBase != nil {
		lkey := strings.ToLower(s.Table)
		lt, lok := e.tables[lkey]
		if s.Join == nil {
			if lok && !e.owned[lkey] {
				snap := e.txSnap
				return e.txBase.selectAt(lt, e.gen.Load(), s, slots, b, &snap)
			}
			return e.selectAt(nil, 0, s, slots, b, nil)
		}
		rkey := strings.ToLower(s.Join.Table)
		rt, rok := e.tables[rkey]
		if e.owned[lkey] || e.owned[rkey] {
			e.materialize(lkey)
			e.materialize(rkey)
			return e.selectAt(nil, 0, s, slots, b, nil)
		}
		if lok && rok {
			snap := e.txSnap
			raw, err := e.txBase.selectComplexAt(lt, rt, s, slots, &snap)
			return raw, nil, err
		}
	}
	return e.selectAt(nil, 0, s, slots, b, nil)
}

// selectAt executes a SELECT over e in two phases. Under the read lock
// it resolves the table (t may be pre-resolved by a speculative-engine
// redirect, with gen the generation of the catalog it came from — the
// pointer stays valid even if the base dropped the name), takes the
// bound plan b when it was bound at that generation or binds the
// statement afresh, captures the snapshot (pinned, or the current
// frontier — registered so vacuum keeps its versions), picks the access
// path, and copies out the candidate set. Then it releases the lock and
// evaluates WHERE, ordering and LIMIT against immutable versions — row
// evaluation never blocks a writer, and no writer can perturb it. The
// result keeps the matched versions' values and projects nothing. It
// returns the bound plan it ran (nil for joins and aggregates, which
// bind per execution).
func (e *Engine) selectAt(t *table, gen uint64, s *Select, slots []Expr, b *boundStmt, pinned *uint64) (*rawResult, *boundStmt, error) {
	if s.Join != nil || s.grouped() {
		raw, err := e.selectComplexAt(t, nil, s, slots, pinned)
		return raw, nil, err
	}
	limit, err := selectLimit(s, slots)
	if err != nil {
		return nil, nil, err
	}
	e.mu.RLock()
	locked := true
	unlock := func() {
		if locked {
			locked = false
			e.mu.RUnlock()
		}
	}
	defer unlock()

	if t == nil {
		var ok bool
		if t, ok = e.tables[strings.ToLower(s.Table)]; !ok {
			return nil, nil, fmt.Errorf("%w: %s", ErrNoTable, s.Table)
		}
		gen = e.gen.Load()
	}
	if !b.fits(gen, 0) {
		if b, err = bindStmt(s, t, len(slots), gen); err != nil {
			return nil, nil, err
		}
	}

	var snap uint64
	if pinned != nil {
		snap = *pinned
	} else {
		snap = e.acquireSnap()
		defer e.releaseSnap(snap)
	}

	// Pick the access path and copy out candidates. `ordered` records
	// that candidates already come in the requested ORDER BY order, so
	// the post-filter sort (counted by SortCount) can be skipped —
	// ORDER BY pushdown. Every path re-evaluates the full WHERE and the
	// visible-key rule, so the choice affects only cost and never
	// results (docs/SQL.md §4). The buffers keep a point lookup's
	// candidates off the heap.
	var icBuf [8]indexCand
	var scBuf [8]selCand
	var ics []indexCand
	cands := scBuf[:0]
	probeCI, ordered := -1, false
	probe, usable := indexProbe{}, false
	if !s.ForceScan {
		probe, usable = t.chooseProbe(b.conj, slots)
	}
	switch {
	case usable && b.order == probe.ci:
		// The probed conjunct is on the ORDER BY column: a key-ordered
		// traversal of the probe span is already sorted. (An equality
		// bucket is one key in ascending row order — exactly what the
		// stable sort would produce for either direction.)
		ics = probe.candidates(icBuf[:0], s.Desc)
		probeCI, ordered = probe.ci, true
	case usable:
		ics = probe.rowOrderCandidates(icBuf[:0])
		probeCI = probe.ci
	case b.order >= 0 && t.indexes[b.order] != nil && !s.ForceScan:
		// ORDER BY pushdown without a probe: traverse the whole ordered
		// index (NULL bucket first for ASC, last for DESC) and filter.
		ics = t.indexes[b.order].orderedCands(s.Desc)
		probeCI, ordered = b.order, true
	default:
		cands = slices.Grow(cands, len(t.entries))
		for _, en := range t.entries { // contents immutable for this snapshot
			cands = append(cands, selCand{en: en})
		}
	}
	cands = slices.Grow(cands, len(ics))
	for _, c := range ics {
		if en := t.byID[c.id]; en != nil {
			cands = append(cands, selCand{en: en, key: c.key})
		}
	}
	unlock()

	// Lock-free phase: resolve visibility, evaluate, order.
	// When candidates already arrive in final order — an ordered-index
	// traversal, or no ORDER BY at all (scan order is result order) —
	// the LIMIT short-circuits the walk after k visible matches instead
	// of collecting everything and truncating (top-k is O(k), not O(n)).
	canStop := limit >= 0 && (ordered || b.order < 0)
	var mBuf [8][]value
	matched := slices.Grow(mBuf[:0], len(cands))
	for _, c := range cands {
		if canStop && len(matched) >= limit {
			limitStops.Add(1)
			break
		}
		v := c.en.visible(snap)
		if v == nil {
			continue
		}
		if c.key != "" && !keyMatches(v.vals[probeCI], c.key) {
			continue // superseded pair: this row's visible value lives under another key
		}
		ok, err := b.where.test(v.vals, slots)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			matched = append(matched, v.vals)
		}
	}
	if b.order >= 0 && !ordered {
		sortCalls.Add(1)
		sortRows(matched, b.order, s.Desc)
	}
	if limit >= 0 && len(matched) > limit {
		matched = matched[:limit]
	}
	// A short result's rows move into the result's own block; matched
	// stays on the stack either way.
	out := &rawResult{cols: b.names, pos: b.cols}
	out.rows = append(out.buf[:0], matched...)
	return out, b, nil
}

// sortRows stably sorts rows by the value at position ci, NULLs first
// ascending (last descending).
func sortRows(rows [][]value, ci int, desc bool) {
	slices.SortStableFunc(rows, func(x, y []value) int {
		if desc {
			x, y = y, x
		}
		switch {
		case valueLess(x[ci], y[ci]):
			return -1
		case valueLess(y[ci], x[ci]):
			return 1
		}
		return 0
	})
}

// update resolves the SET values in assignment order — a missing column
// or a bad value, whichever comes first — then collects the matching
// rows.
func (e *Engine) update(s *Update, key string, t *table, slots []Expr, b *boundStmt) (int, []rowOp, error) {
	vals := make([]value, len(s.Set))
	for i, a := range s.Set {
		ci := b.cols[i]
		if ci < 0 {
			return 0, nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, a.Column)
		}
		v, err := literalValue(slotExpr(a.Value, slots), t.cols[ci].Type)
		if err != nil {
			return 0, nil, err
		}
		vals[i] = v
	}
	ents, vers, err := t.matchEntries(b, slots, e.frontier.Load())
	if err != nil {
		return 0, nil, err
	}
	ops := make([]rowOp, 0, len(ents))
	for i, en := range ents {
		row := append([]value(nil), vers[i].vals...)
		for j, v := range vals {
			row[b.cols[j]] = v
		}
		ops = append(ops, rowOp{kind: opUpdate, table: key, id: en.id, vals: row})
	}
	return len(ops), ops, nil
}

func (e *Engine) delete(key string, t *table, slots []Expr, b *boundStmt) (int, []rowOp, error) {
	ents, _, err := t.matchEntries(b, slots, e.frontier.Load())
	if err != nil {
		return 0, nil, err
	}
	ops := make([]rowOp, 0, len(ents))
	for _, en := range ents {
		ops = append(ops, rowOp{kind: opDelete, table: key, id: en.id})
	}
	return len(ops), ops, nil
}

// literalOf is the value of a literal expression — what a slot holds and
// what the binder folds a WHERE literal into.
func literalOf(ex Expr) (value, error) {
	switch v := ex.(type) {
	case *NullLit:
		return nullValue(), nil
	case *IntLit:
		return intValue(v.Val), nil
	case *StringLit:
		return textValue(v.Val.Raw()), nil
	default:
		return value{}, fmt.Errorf("sqldb: unsupported expression %T", ex)
	}
}

// test evaluates a WHERE expression against a row, reading Param slots
// from slots; a nil expression matches every row.
func (b *boundExpr) test(row []value, slots []Expr) (bool, error) {
	if b == nil {
		return true, nil
	}
	v, err := b.eval(row, slots)
	if err != nil || v.null {
		return false, err
	}
	if v.isInt {
		return v.i != 0, nil
	}
	return v.s != "", nil
}

// eval is the evaluator. Every name was resolved when the expression was
// bound; evaluating reads positions and slots only.
func (b *boundExpr) eval(row []value, slots []Expr) (value, error) {
	if b == nil {
		// An operand a hand-built statement left out.
		return value{}, fmt.Errorf("sqldb: unsupported expression %T", nil)
	}
	switch b.op {
	case exConst:
		return b.val, nil
	case exCol:
		return row[b.pos], nil
	case exSlot:
		return literalOf(slots[b.pos])
	case exNot:
		t, err := b.l.test(row, slots)
		return boolValue(!t), err
	case exAnd, exOr:
		// Short-circuit: AND stops at false, OR at true.
		l, err := b.l.test(row, slots)
		if err != nil || l == (b.op == exOr) {
			return boolValue(l), err
		}
		r, err := b.r.test(row, slots)
		return boolValue(r), err
	}
	l, err := b.l.eval(row, slots)
	if err != nil {
		return value{}, err
	}
	r, err := b.r.eval(row, slots)
	if err != nil {
		return value{}, err
	}
	if l.null || r.null {
		// SQL three-valued logic collapsed to false.
		return boolValue(false), nil
	}
	switch b.op {
	case exEq:
		return boolValue(valueCompare(l, r) == 0), nil
	case exNe:
		return boolValue(valueCompare(l, r) != 0), nil
	case exLt:
		return boolValue(valueCompare(l, r) < 0), nil
	case exLe:
		return boolValue(valueCompare(l, r) <= 0), nil
	case exGt:
		return boolValue(valueCompare(l, r) > 0), nil
	case exGe:
		return boolValue(valueCompare(l, r) >= 0), nil
	case exLike:
		return boolValue(likeMatch(l.String(), r.String())), nil
	default:
		return value{}, fmt.Errorf("sqldb: unsupported operator %q", b.name)
	}
}

func boolValue(b bool) value {
	if b {
		return intValue(1)
	}
	return intValue(0)
}

// valueCompare compares two non-null values: numerically when both are
// integers, else textually on rendered forms (MySQL-ish coercion).
func valueCompare(a, b value) int {
	if a.isInt && b.isInt {
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.String(), b.String())
}

// valueLess orders values for ORDER BY with NULLs first.
func valueLess(a, b value) bool {
	if a.null || b.null {
		return a.null && !b.null
	}
	return valueCompare(a, b) < 0
}

// likeMatch implements SQL LIKE with % (any run) and _ (any byte).
func likeMatch(s, pattern string) bool {
	// Dynamic programming over bytes.
	m, n := len(s), len(pattern)
	prev := make([]bool, m+1)
	cur := make([]bool, m+1)
	prev[0] = true
	for j := 1; j <= n; j++ {
		cur[0] = prev[0] && pattern[j-1] == '%'
		for i := 1; i <= m; i++ {
			switch pattern[j-1] {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == pattern[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[m]
}
