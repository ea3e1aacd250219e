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
	"unsafe"

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
// stable ids (and the index pairs pointing at the rows) survive;
// superseded index pairs and dead versions are reclaimed by vacuum once
// no registered snapshot can reach them.

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

// value is one stored cell: NULL, an integer, or text. It is one pointer
// and one word, 16 bytes, so a row's cells pack with no padding. The
// kind is a fixed encoding of the pair that only the constructors and
// accessors below know:
//
//   - TEXT t is (unsafe.StringData(t), len(t)), and the empty text is
//     the zero value;
//   - INT n is (&markInt, n);
//   - NULL is (&markNull, 0).
//
// No text's bytes live at either mark, so every value has exactly one
// kind. Two equal texts may sit at different addresses, so cells are
// compared with eq; the leading [0]func() makes == on a value (and a
// map keyed by one) fail to compile rather than compare addresses.
type value struct {
	_ [0]func()
	p *byte
	n int64
}

// markInt and markNull are the sentinels whose addresses tag INT and
// NULL cells; their contents are never read. markKeep tags the one cell
// no stored row holds: an update's cell its WAL record leaves out, from
// decodeOps until checkOps fills it from the row the update replaces.
var markInt, markNull, markKeep byte

func nullValue() value       { return value{p: &markNull} }
func intValue(n int64) value { return value{p: &markInt, n: n} }
func textValue(s string) value {
	if len(s) == 0 {
		return value{}
	}
	return value{p: unsafe.StringData(s), n: int64(len(s))}
}

func keepValue() value { return value{p: &markKeep} }

func (v value) isNull() bool { return v.p == &markNull }
func (v value) isInt() bool  { return v.p == &markInt }
func (v value) isKeep() bool { return v.p == &markKeep }

// marked reports whether v is INT or NULL, whose pointer is a mark.
func (v value) marked() bool { return v.isInt() || v.isNull() }

// num is an INT value's integer, 0 for any other kind.
func (v value) num() int64 {
	if v.p == &markInt {
		return v.n
	}
	return 0
}

// text is a TEXT value's string, "" for any other kind.
func (v value) text() string {
	if v.marked() {
		return ""
	}
	return unsafe.String(v.p, int(v.n))
}

// eq reports whether v and w are the same cell: of one kind and with
// equal content.
func (v value) eq(w value) bool {
	if v.n != w.n {
		return false
	}
	if v.p == w.p {
		return true
	}
	if v.marked() || w.marked() {
		return false
	}
	return v.text() == w.text()
}

func (v value) String() string {
	switch {
	case v.isNull():
		return "NULL"
	case v.isInt():
		return strconv.FormatInt(v.n, 10)
	default:
		return v.text()
	}
}

// rowVersion is one immutable version of a row. born is the commit
// version at which it became visible; a tombstone marks the row deleted
// from that version on. The cells and born never change after the
// version is linked into a chain; prev is rewritten only by vacuum, and
// only on versions no registered snapshot can traverse past (see
// table.vacuum). The cells are held as a pointer to the first and a
// count, so a version is 32 bytes with no padding and no capacity word;
// only newVersion and row know that layout.
type rowVersion struct {
	born  uint64
	prev  *rowVersion
	cells *value
	n     int32
	tomb  bool
}

// newVersion returns the version born at born over the cells vals (nil
// for a tombstone) in front of prev.
func newVersion(born uint64, vals []value, tomb bool, prev *rowVersion) *rowVersion {
	return &rowVersion{born: born, prev: prev, cells: unsafe.SliceData(vals), n: int32(len(vals)), tomb: tomb}
}

// row returns the version's cells. The slice's capacity is its length,
// so appending to it never writes into the version.
func (v *rowVersion) row() []value { return unsafe.Slice(v.cells, v.n) }

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

// staleRef is a deferred index removal: the pair (v, en) in column
// ci's index may no longer be reachable by any snapshot. Vacuum drains
// these once the version chain proves the key gone.
type staleRef struct {
	ci int
	v  value
	en *rowEntry
}

// staleKey is a staleRef as a map key, so vacuum drains each pair once:
// the cell by its content, with mark nil for TEXT and the cell's own
// sentinel for INT and NULL.
type staleKey struct {
	ci   int
	en   *rowEntry
	mark *byte
	s    string
	n    int64
}

func (sr staleRef) key() staleKey {
	k := staleKey{ci: sr.ci, en: sr.en, s: sr.v.text(), n: sr.v.num()}
	if sr.v.marked() {
		k.mark = sr.v.p
	}
	return k
}

// table is one in-memory table. cols and colIdx are immutable after
// creation; entries (ascending id, append-only between vacuums),
// indexes and stale are guarded by the engine's write lock. There is no
// map by id: an index pair holds its row's entry, and the few lookups
// by id binary-search entries (lookup). Readers copy the entries slice
// header (and candidate lists) under the read lock and then work
// lock-free: appends only ever touch capacity their header does not
// cover, and vacuum swaps in a fresh slice rather than compacting in
// place.
//
// A table with a base is a transaction's write set (see Engine): it holds
// only the rows the transaction inserted, updated or deleted, under their
// stable ids, with indexes over those rows alone, and overlays base as of
// the transaction's snapshot.
type table struct {
	name    string
	cols    []ColumnDef
	colIdx  map[string]int // lower-cased column name → position
	entries []*rowEntry
	indexes []*orderedIndex // by column position, nil where the column has none (index.go)
	stale   []staleRef
	base    *table
}

func newTable(name string, cols []ColumnDef) *table {
	t := &table{
		name:    name,
		cols:    cols,
		colIdx:  make(map[string]int, len(cols)),
		indexes: make([]*orderedIndex, len(cols)),
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
// expression evaluates against, and names and types those positions. A
// single table is a scope over its own columns; a join evaluates against
// concatenated left++right rows via joinScope (join.go). The binder
// resolves through this interface, so one bound evaluator serves both
// layouts.
type scope interface {
	resolveCol(name string) (int, error)
	outColName(ref string, ci int) string
	colDef(ci int) ColumnDef
	width() int
}

func (t *table) colDef(ci int) ColumnDef { return t.cols[ci] }
func (t *table) width() int              { return len(t.cols) }

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

// indexKey is the canonical equality key of a value for hash join and
// grouping (join.go): non-null values key by their rendered form,
// matching valueCompare's MySQL-ish coercion (int 1 and text '1'
// compare equal and share a key); NULL gets a reserved key, since SQL
// equality with NULL never matches. Ordered indexes key in the column's
// own type instead (index.go).
func indexKey(v value) string {
	switch {
	case v.isNull():
		return nullKey
	case v.isInt():
		var buf [32]byte
		return string(strconv.AppendInt(append(buf[:0], '='), v.num(), 10))
	default:
		return "=" + v.text()
	}
}

const nullKey = "\x00null"

// buildIndex constructs an orderedIndex over column ci from the version
// chains. Every reachable (non-tombstone) version contributes its key,
// not just the newest: a snapshot older than the build may later probe
// this index, and the superset invariant must hold for the values *it*
// sees. Keys that only old versions carry come back as stale refs so
// vacuum reclaims them on the usual schedule. A one-version chain adds
// its key directly; a longer one skips a key a newer version of the
// chain already added.
func buildIndex(entries []*rowEntry, ci int, typ ColType) (*orderedIndex, []staleRef) {
	ix := newOrderedIndex(typ)
	var stale []staleRef
	for _, en := range entries {
		head := en.head.Load()
		if head.prev == nil {
			if !head.tomb {
				ix.add(head.row()[ci], en)
			}
			continue
		}
	chain:
		for v := head; v != nil; v = v.prev {
			if v.tomb {
				continue
			}
			k := v.row()[ci]
			for w := head; w != v; w = w.prev {
				if !w.tomb && w.row()[ci].eq(k) {
					continue chain
				}
			}
			ix.add(k, en)
			if head.tomb || !k.eq(head.row()[ci]) {
				stale = append(stale, staleRef{ci: ci, v: k, en: en})
			}
		}
	}
	return ix, stale
}

// schemaGenCounter issues process-unique schema generations: every DDL
// statement (CREATE/DROP TABLE or INDEX) stamps its engine with a fresh
// generation, and bound plans built against an older (or other
// engine's) generation rebind instead of reusing stale schema
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
// id — the unit the WAL logs (wal.go 'W' records) and Commit
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
	// old is the row an update replaces, as the statement read it: the
	// WAL logs only the cells that differ from it (nil: every cell).
	old []value
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
	// catalog, and it runs no DDL (ErrTxDDL), so its catalog never
	// changes shape. A table's first write replaces its entry with a
	// write set, whose base field is the *table the catalog held at
	// Begin: the rows the transaction writes, over that table read at
	// txSnap. redo holds each DML statement's row ops, in order.
	// A speculative engine is confined to its transaction, so these
	// need no locking beyond the Tx's own mutex; the base tables it reads
	// are guarded by txBase.mu, always taken after e.mu, never before.
	txBase *Engine
	txSnap uint64
	redo   [][]rowOp
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
// plain values. An ungrouped SELECT's rows are the matched versions'
// value slices themselves — immutable, so they are read in place — or a
// join's combined rows, and pos holds the bound plan's positions: column
// j of a row is row[pos[j]]. Aggregates build their rows, and pos is
// nil.
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
// returns the bound plan it ran — nil for DDL.
func (e *Engine) execute(stmt Statement, slots []Expr, b *boundStmt) (*rawResult, int, *boundStmt, error) {
	if s, ok := stmt.(*Select); ok {
		r, b, err := e.selectAt(s, slots, b, nil)
		return r, 0, b, err
	}
	// A speculative engine refuses DDL and gives the target table its
	// write set before any write touches it.
	if e.txBase != nil {
		key, ok := mutationTarget(stmt)
		if !ok {
			return nil, 0, nil, ErrTxDDL
		}
		e.writeSet(key)
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
			size := walRecHeaderSize + opsLen(ops, &e.wal.dict, e.tables)
			frames, werr := e.wal.appendOpsRecord(make([]byte, 0, size), ops, e.tables)
			if werr == nil {
				werr = e.wal.append(frames)
			}
			if werr != nil {
				return nil, 0, nil, werr
			}
		}
		if e.txBase != nil {
			e.redo = append(e.redo, ops)
		}
		born := e.frontier.Load() + 1
		e.applyOps(ops, born)
		e.frontier.Store(born)
		e.afterMutate()
		return nil, n, b, nil
	}
}

// mutationTarget names the table whose rows a DML statement writes; it
// reports false for DDL.
func mutationTarget(stmt Statement) (string, bool) {
	switch s := stmt.(type) {
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
		if b, err = bindStmt(stmt, t, nil, len(slots), gen); err != nil {
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
		var en *rowEntry
		if op.kind != opInsert {
			en = t.lookup(op.id)
		}
		if en == nil {
			// An insert, or on a write set a base row's first update or
			// delete: the row enters t under its stable id.
			en = t.enter(op.id)
			if op.id >= e.nextID {
				e.nextID = op.id + 1
			}
		}
		old := en.head.Load() // nil for a row new to t
		en.head.Store(newVersion(born, op.vals, op.kind == opDelete, old))
		oldLive, newLive := old != nil && !old.tomb, op.kind != opDelete
		for ci, ix := range t.indexes {
			if ix == nil || oldLive && newLive && old.row()[ci].eq(op.vals[ci]) {
				continue // no index, or the row stays under its key
			}
			if newLive {
				ix.add(op.vals[ci], en)
			}
			if oldLive {
				t.stale = append(t.stale, staleRef{ci: ci, v: old.row()[ci], en: en})
			}
		}
	}
	e.muts += len(ops)
}

// enter adds an entry for a row new to t, keeping entries in ascending
// id order. On a base table ids only grow, so the entry appends; a write
// set takes base rows in the order the transaction writes them, and is
// its transaction's alone, so an entry may go in mid-slice.
func (t *table) enter(id uint64) *rowEntry {
	en := &rowEntry{id: id}
	if n := len(t.entries); n == 0 || t.entries[n-1].id < id {
		t.entries = append(t.entries, en)
	} else {
		i, _ := searchID(t.entries, id)
		t.entries = slices.Insert(t.entries, i, en)
	}
	return en
}

// reserve makes room in t's entries and index keys for n more rows.
func (t *table) reserve(n int) {
	t.entries = grow(t.entries, n)
	for _, ix := range t.indexes {
		if ix != nil {
			ix.reserve(n)
		}
	}
}

// grow returns s with room for n more elements, moved in one allocation
// if it has less — by at least a quarter, so that small growths
// amortize, and by no more, so that a large table keeps little slack.
// (slices.Grow, append's policy in one step, allocates twice under
// -race.)
func grow[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	g := make([]E, len(s), max(len(s)+n, cap(s)+cap(s)/4))
	copy(g, s)
	return g
}

// lookup returns t's entry for row id, or nil if t holds no such row.
func (t *table) lookup(id uint64) *rowEntry {
	if i, found := searchID(t.entries, id); found {
		return t.entries[i]
	}
	return nil
}

// checkOps validates replayed row ops against the engine's current
// state — the semantic half of WAL integrity, catching checksummed-but-
// nonsensical records before the infallible apply — and fills each
// update's absent cells from the live row it replaces: the row's head,
// or the row as an earlier op of the same batch left it.
func (e *Engine) checkOps(ops []rowOp) error {
	// Simulate the batch: a later op may target a row an earlier op of
	// the same batch wrote; batch holds the last such op per row. A
	// one-op batch, the common record, has no later op and needs no map.
	type rowKey struct {
		table string
		id    uint64
	}
	var batch map[rowKey]*rowOp
	if len(ops) > 1 {
		batch = map[rowKey]*rowOp{}
	}
	for i := range ops {
		op := &ops[i]
		t := e.tables[op.table]
		if t == nil {
			return fmt.Errorf("%w: %s", ErrNoTable, op.table)
		}
		if op.kind != opDelete && len(op.vals) != len(t.cols) {
			return fmt.Errorf("sqldb: row op arity %d != %d columns of %s", len(op.vals), len(t.cols), op.table)
		}
		// The row's cells before op, if it has a live version: as an
		// earlier op of the batch left them, else as its head holds them.
		var cur []value
		var en *rowEntry
		prev, seen := batch[rowKey{op.table, op.id}]
		live := seen && prev.kind != opDelete
		if live {
			cur = prev.vals
		} else if !seen {
			if en = t.lookup(op.id); en != nil && !en.head.Load().tomb {
				cur, live = en.head.Load().row(), true
			}
		}
		switch op.kind {
		case opInsert:
			if seen || en != nil {
				return fmt.Errorf("sqldb: duplicate row id %d in %s", op.id, op.table)
			}
		case opUpdate, opDelete:
			if !live {
				return fmt.Errorf("sqldb: row op targets id %d in %s, which has no live version", op.id, op.table)
			}
			for c, v := range op.vals {
				if v.isKeep() {
					op.vals[c] = cur[c]
				}
			}
		default:
			return fmt.Errorf("sqldb: unknown row op kind 0x%02x", op.kind)
		}
		if err := checkKinds(op, t); err != nil {
			return err
		}
		if batch != nil {
			batch[rowKey{op.table, op.id}] = op
		}
	}
	return nil
}

// checkKinds reports a replayed row value whose kind its column cannot
// hold: every write path coerces to the column type (literalValue), and
// an index keys in that type.
func checkKinds(op *rowOp, t *table) error {
	for ci, v := range op.vals {
		if !v.isNull() && v.isInt() != (t.cols[ci].Type == ColInt) {
			return fmt.Errorf("sqldb: row op value %s does not fit %s column %s.%s", v, t.cols[ci].Type, op.table, t.cols[ci].Name)
		}
	}
	return nil
}

// columnsOf returns the columns of the table under key, or nil if there
// is none; the replayer reads them to find a record's policy cells.
func (e *Engine) columnsOf(key string) []ColumnDef {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if t := e.tables[key]; t != nil {
		return t.cols
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
// being replayed (recovery) or mirrored (follower shipping). Commit
// logs only row ops inside a group, but logs written when transactions
// could run DDL hold 'S' records there, so those still apply. dict is
// the log's annotation dictionary through the group; a replica's log
// takes it, so that its dictionary describes the bytes it mirrored.
func (e *Engine) applyReplayGroup(items []walItem, dict []string) error {
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
	if e.wal != nil {
		e.wal.dict = loadedDict(dict[:len(dict):len(dict)])
	}
	e.vacuumDue()
	return nil
}

// afterMutate runs the post-apply housekeeping a real engine does under
// its held write lock: vacuum on cadence, and the auto-compact trigger.
// Speculative engines skip both — their versions die with the Tx.
func (e *Engine) afterMutate() {
	if e.txBase != nil {
		return
	}
	e.vacuumDue()
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

// vacuumDue is the one vacuum cadence, for live writes and replay alike;
// replay never auto-compacts (a replica's log mirrors its primary's).
func (e *Engine) vacuumDue() {
	if e.muts >= vacuumEvery {
		e.vacuum()
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
				continue
			}
			kept = append(kept, en)
		}
		t.entries = kept
	}
	if len(t.stale) == 0 {
		return
	}
	var remain []staleRef
	seen := make(map[staleKey]bool, len(t.stale))
	for _, sr := range t.stale {
		ix := t.indexes[sr.ci]
		if ix == nil {
			continue // index dropped; nothing to drain
		}
		k := sr.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		// A row vacuum dropped above has a tombstone alone left, which
		// carries no key.
		carried := false
		for v := sr.en.head.Load(); v != nil; v = v.prev {
			if !v.tomb && v.row()[sr.ci].eq(sr.v) {
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
		ix.remove(sr.v, sr.en)
	}
	t.stale = remain
}

// writeSet gives a speculative engine the write set of a base table on
// the transaction's first write to it: an empty table over the base,
// with empty indexes on the base's indexed columns. Rows enter it as the
// transaction writes them (applyOps), so the cost is independent of the
// table's size.
func (e *Engine) writeSet(key string) {
	t := e.tables[key]
	if t == nil || t.base != nil {
		return // validation will report ErrNoTable, or the set exists
	}
	ws := &table{name: t.name, cols: t.cols, colIdx: t.colIdx, indexes: make([]*orderedIndex, len(t.cols)), base: t}
	e.txBase.mu.RLock()
	for ci, ix := range t.indexes {
		if ix != nil {
			ws.indexes[ci] = newOrderedIndex(t.cols[ci].Type)
		}
	}
	e.txBase.mu.RUnlock()
	e.tables[key] = ws
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
	if t.indexes[ci] != nil {
		return 0, nil, fmt.Errorf("%w: %s (%s)", ErrIndexExists, s.Table, s.Column)
	}
	return 0, func() {
		ix, stale := buildIndex(t.entries, ci, t.cols[ci].Type)
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
	if t.indexes[ci] == nil {
		return 0, nil, fmt.Errorf("%w: %s (%s)", ErrNoIndex, s.Table, s.Column)
	}
	return 0, func() {
		t.indexes[ci] = nil
		e.bumpSchemaGen()
	}, nil
}

// indexedCols returns the names of t's indexed columns, sorted.
func (t *table) indexedCols() []string {
	var out []string
	for ci, ix := range t.indexes {
		if ix != nil {
			out = append(out, t.cols[ci].Name)
		}
	}
	sort.Strings(out)
	return out
}

// Indexes returns the names of the indexed columns of a table, sorted:
// on a speculative engine, a written table's are its write set's.
func (e *Engine) Indexes(name string) ([]string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.txBase != nil {
		// An unwritten table is the base's, its index set guarded there.
		e.txBase.mu.RLock()
		defer e.txBase.mu.RUnlock()
	}
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t.indexedCols(), nil
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

// matchEntries returns the rows of table t whose version the statement
// reads satisfies b's WHERE, with those versions, in ascending id (scan)
// order — via an index when the predicate analyzer finds a usable probe.
// Caller holds the write lock.
func (e *Engine) matchEntries(t *table, b *boundStmt, slots []Expr) ([]*rowEntry, []*rowVersion, error) {
	var ents []*rowEntry
	var vers []*rowVersion
	var rs rowSource
	rs.base.cands, _ = e.rowCands(&rs, t, nil, b, slots, false, false, e.frontier.Load())
	for en, v := rs.next(); en != nil; en, v = rs.next() {
		if v == nil {
			continue
		}
		ok, err := b.where.test(v.row(), slots)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			ents = append(ents, en)
			vers = append(vers, v)
		}
	}
	return ents, vers, nil
}

// candSet is the candidates one table yields for a statement, copied
// out under the lock that guards the table: a scan's entries (the
// entries slice itself) or an index traversal's, with the snapshot they
// are read at, the probed column of the visible-key rule (-1 for a
// scan), and the rows to pass over.
type candSet struct {
	ents    []*rowEntry
	cands   []indexCand
	snap    uint64
	probeCI int
	skip    []*rowEntry // a write set's entries, ascending by id, on the base part
	next    int
}

// peek returns the entry and key of the set's next candidate; the entry
// is nil when none is left, and a scan's candidates have no key.
func (cs *candSet) peek() (*rowEntry, value) {
	if cs.next < len(cs.ents) {
		return cs.ents[cs.next], value{}
	}
	if cs.next < len(cs.cands) {
		c := &cs.cands[cs.next]
		return c.en, c.key
	}
	return nil, value{}
}

// rowSource is the candidate rows of one table for a statement
// (Engine.rowCands): all in base, or on a table a transaction wrote, the
// base table's in base and the write set's in ws. Both parts come in
// ascending id order, unless ws is empty.
type rowSource struct {
	base, ws candSet
}

func (rs *rowSource) len() int {
	return len(rs.base.ents) + len(rs.base.cands) + len(rs.ws.ents) + len(rs.ws.cands)
}

// next consumes the next candidate, the smaller id of the two parts
// first, and returns its entry and the version visible at its part's
// snapshot. The version is nil when the row has none there or was found
// under a key that version no longer carries; the entry is nil once both
// parts are exhausted.
func (rs *rowSource) next() (*rowEntry, *rowVersion) {
	for {
		cs := &rs.base
		en, key := cs.peek()
		if wen, wkey := rs.ws.peek(); wen != nil && (en == nil || wen.id < en.id) {
			cs, en, key = &rs.ws, wen, wkey
		}
		if en == nil {
			return nil, nil
		}
		cs.next++
		if len(cs.skip) > 0 {
			if _, held := searchID(cs.skip, en.id); held {
				continue // the write set holds this row
			}
		}
		v := en.visible(cs.snap)
		if v == nil || (cs.probeCI >= 0 && !v.row()[cs.probeCI].eq(key)) {
			return en, nil
		}
		return en, v
	}
}

// collect picks t's access path for b and copies its candidates out to
// cs: every entry when scan is set or no path is usable, else an index
// probe's or an ordered traversal of the ORDER BY column's index, which
// go into dst and are returned as cands for the caller to store (dst may
// be the caller's stack buffer); an index pair holds its row's entry,
// so they need no lookup. They come in ascending id order, or,
// when mayOrder and the path allows it, already in ORDER BY order, which
// ordered reports (ORDER BY pushdown). Every path re-evaluates the full
// WHERE and the visible-key rule, so the choice affects only cost and
// never results (docs/SQL.md §4). Caller holds the lock that guards t.
func (t *table) collect(cs *candSet, dst []indexCand, b *boundStmt, slots []Expr, scan, desc, mayOrder bool) (cands []indexCand, ordered bool) {
	cs.probeCI = -1
	probe, usable := indexProbe{}, false
	if scan {
		mayOrder = false
	} else {
		probe, usable = t.chooseProbe(b.conj, slots)
		// A grouped statement's ORDER BY orders its groups, not its rows.
		mayOrder = mayOrder && b.aggs == nil
	}
	switch {
	case usable && mayOrder && b.order == probe.ci:
		// The probed conjunct is on the ORDER BY column: a key-ordered
		// traversal of the probe span is already sorted. (An equality
		// bucket is one key in ascending row order — exactly what the
		// stable sort would produce for either direction.)
		cs.probeCI = probe.ci
		return probe.candidates(dst, desc), true
	case usable:
		cs.probeCI = probe.ci
		return probe.rowOrderCandidates(dst), false
	case mayOrder && b.order >= 0 && t.indexes[b.order] != nil:
		// ORDER BY pushdown without a probe: traverse the whole ordered
		// index (NULL bucket first for ASC, last for DESC) and filter.
		cs.probeCI = b.order
		return t.indexes[b.order].orderedCands(dst, desc), true
	}
	cs.ents = t.entries // contents immutable for any registered snapshot
	return nil, false
}

// rowCands copies out to rs the candidates of table t for b
// (all of its rows when b is nil). On an engine's own table they are all
// in rs.base, read at snap. On a speculative engine, a table the
// transaction has not written is the base's, read at the transaction's
// snapshot; on a write set, rs.ws holds the write set's rows, read at
// their head (snap), and rs.base the base table's at the transaction's
// snapshot, passing over the rows the write set holds. The base part may
// come in ORDER BY order (ordered) only when the write set's is empty.
// Its index candidates go into dst and are returned as cands, as
// collect's are. Caller holds e.mu; base tables are read under
// txBase.mu, taken here — the lock order is speculative engine, then
// base.
func (e *Engine) rowCands(rs *rowSource, t *table, dst []indexCand, b *boundStmt, slots []Expr, scan, desc bool, snap uint64) (cands []indexCand, ordered bool) {
	scan = scan || b == nil
	bt := t.base
	if bt != nil {
		rs.ws.cands, _ = t.collect(&rs.ws, nil, b, slots, scan, desc, false)
		rs.ws.snap = snap
	} else if e.txBase != nil {
		bt = t
	}
	if bt == nil {
		rs.base.snap = snap
		return t.collect(&rs.base, dst, b, slots, scan, desc, true)
	}
	e.txBase.mu.RLock()
	cands, ordered = bt.collect(&rs.base, dst, b, slots, scan, desc, len(rs.ws.ents)+len(rs.ws.cands) == 0)
	e.txBase.mu.RUnlock()
	rs.base.snap = e.txSnap
	if bt != t {
		rs.base.skip = t.entries
	}
	return cands, ordered
}

// selectAt executes a SELECT over e in two phases. Under the read lock
// it resolves the table (and a join's right table), takes the bound plan
// b when it was bound at the engine's generation or binds the statement
// afresh, captures the snapshot (pinned, or the current frontier —
// registered so vacuum keeps its versions), picks the access path, and
// copies out the candidate set (rowCands: on a speculative engine, a
// table the transaction wrote is its write set merged over the base);
// both sides of a join are read by scan. Then it releases the lock and
// joins, evaluates WHERE, groups, orders and applies LIMIT against
// immutable versions — row evaluation never blocks a writer, and no
// writer can perturb it. An ungrouped result keeps the matched rows'
// values and projects nothing. It returns the bound plan it ran.
//
// selectAt has seven returns: with its two defers, more would stop the
// compiler from open-coding them (returns × defers ≤ 15), which costs a
// point SELECT a few percent.
func (e *Engine) selectAt(s *Select, slots []Expr, b *boundStmt, pinned *uint64) (*rawResult, *boundStmt, error) {
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

	t, ok := e.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoTable, s.Table)
	}
	if gen := e.gen.Load(); !b.fits(gen, 0) {
		if b, err = bindStmt(s, t, e.tables, len(slots), gen); err != nil {
			return nil, nil, err
		}
	}
	var rt *table
	if b.rkey != "" {
		if rt, ok = e.tables[b.rkey]; !ok {
			return nil, nil, fmt.Errorf("%w: %s", ErrNoTable, s.Join.Table)
		}
	}

	var snap uint64
	if pinned != nil {
		snap = *pinned
	} else {
		snap = e.acquireSnap()
		defer e.releaseSnap(snap)
	}

	// Copy out candidates. `ordered` records that they already come in
	// the requested ORDER BY order, so the post-filter sort (counted by
	// SortCount) can be skipped — ORDER BY pushdown. The buffers keep a
	// point lookup's candidates off the heap.
	var scBuf [8]indexCand
	var ls, rs rowSource
	var ordered bool
	if rt == nil {
		ls.base.cands, ordered = e.rowCands(&ls, t, scBuf[:0], b, slots, s.ForceScan, s.Desc, snap)
	} else {
		e.rowCands(&ls, t, nil, nil, slots, true, false, snap)
		e.rowCands(&rs, rt, nil, nil, slots, true, false, snap)
	}
	unlock()

	// Lock-free phase: resolve visibility, evaluate, group or order.
	var mBuf [8][]value
	var matched [][]value
	if rt == nil {
		// When candidates already arrive in final order — an
		// ordered-index traversal, or no ORDER BY at all (id order is
		// result order) — the LIMIT short-circuits the walk after k
		// visible matches instead of collecting everything and
		// truncating (top-k is O(k), not O(n)). Groups are not rows, so
		// a grouped statement walks every row.
		canStop := limit >= 0 && b.aggs == nil && (ordered || b.order < 0)
		matched = slices.Grow(mBuf[:0], ls.len())
		for en, v := ls.next(); en != nil; en, v = ls.next() {
			if canStop && len(matched) >= limit {
				limitStops.Add(1)
				break
			}
			if v == nil {
				continue
			}
			var ok bool
			if ok, err = b.where.test(v.row(), slots); err != nil {
				break
			}
			if ok {
				matched = append(matched, v.row())
			}
		}
	} else {
		matched, err = b.join(ls.visible(), rs.visible(), len(rt.cols), s.Join.Type == "LEFT", s.ForceLoop, slots)
	}
	if err != nil {
		return nil, nil, err
	}
	if b.aggs != nil {
		return b.aggregate(matched, s.Desc, limit), b, nil
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

// visible consumes rs and returns the rows visible at its snapshot, in
// id order.
func (rs *rowSource) visible() [][]value {
	rows := make([][]value, 0, rs.len())
	for en, v := rs.next(); en != nil; en, v = rs.next() {
		if v != nil {
			rows = append(rows, v.row())
		}
	}
	return rows
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
	ents, vers, err := e.matchEntries(t, b, slots)
	if err != nil {
		return 0, nil, err
	}
	ops := make([]rowOp, 0, len(ents))
	for i, en := range ents {
		row := append([]value(nil), vers[i].row()...)
		for j, v := range vals {
			row[b.cols[j]] = v
		}
		ops = append(ops, rowOp{kind: opUpdate, table: key, id: en.id, vals: row, old: vers[i].row()})
	}
	return len(ops), ops, nil
}

func (e *Engine) delete(key string, t *table, slots []Expr, b *boundStmt) (int, []rowOp, error) {
	ents, _, err := e.matchEntries(t, b, slots)
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
	if err != nil || v.isNull() {
		return false, err
	}
	if v.isInt() {
		return v.num() != 0, nil
	}
	return v.text() != "", nil
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
	if l.isNull() || r.isNull() {
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
	if a.isInt() && b.isInt() {
		switch {
		case a.num() < b.num():
			return -1
		case a.num() > b.num():
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.String(), b.String())
}

// valueLess orders values for ORDER BY with NULLs first.
func valueLess(a, b value) bool {
	if a.isNull() || b.isNull() {
		return a.isNull() && !b.isNull()
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
