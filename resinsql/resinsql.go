// Package resinsql is a database/sql driver facade over the RESIN
// tracked database (internal/sqldb): it lets code written against the
// standard library's database/sql API — sql.Open, Prepare, Query, Exec,
// transactions — run on a RESIN database while policy annotations
// survive the driver boundary in both directions.
//
//   - Inbound, bound arguments may be tracked values (resin.String /
//     resin.Int, i.e. core.String / core.Int): a NamedValueChecker
//     passes them through the driver untouched, so their policy sets
//     reach the SQL filter and persist into shadow policy columns
//     exactly as on the native API (paper §3.4.1, Figure 4).
//
//   - Outbound, result cells that carry policies surface as tracked
//     values; scan them with the String / Int scanner wrappers in this
//     package. Untainted cells surface as plain driver values, so
//     policy-oblivious code keeps working unchanged.
//
// The driver registers itself as "resin". Data source names resolve
// through an explicit registry: call Bind(name, db) with a *sqldb.DB,
// then sql.Open("resin", name). A DSN of the form "file:PATH" instead
// names a WAL-backed persistent database (docs/SQL.md §8): OpenFile
// opens one explicitly over a caller-supplied runtime, and an unbound
// file: DSN reaching sql.Open is opened lazily over a shared default
// runtime, so plain database/sql code gets durable policy annotations
// with nothing but a path. A DSN of the form "net:host:port" connects
// over TCP to a resin-server (docs/WIRE.md): annotations cross the
// socket in the canonical EncodeSpans form, so taint survives the
// network exactly as it survives the driver boundary. Statements use
// `?` or `:name` placeholders; see docs/SQL.md §6 for the binding
// semantics.
package resinsql

import (
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"resin/internal/core"
	"resin/internal/sqldb"
	"resin/internal/wire"
)

// DriverName is the name this package registers with database/sql.
const DriverName = "resin"

func init() { sql.Register(DriverName, &Driver{}) }

// registry maps data source names to bound RESIN databases.
var registry = struct {
	mu sync.RWMutex
	m  map[string]*sqldb.DB
}{m: make(map[string]*sqldb.DB)}

// Bind associates a data source name with a RESIN database, so
// sql.Open("resin", name) connects to it. Rebinding a name replaces the
// previous association; open connections keep their database.
func Bind(name string, db *sqldb.DB) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.m[name] = db
}

// Unbind removes a data source name from the registry.
func Unbind(name string) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	delete(registry.m, name)
}

// NewDB creates a fresh tracked database over rt (resin.NewRuntime()),
// binds it under name, and returns the native handle. Consumers outside
// this module cannot import internal/sqldb to build one themselves, but
// they can hold the returned handle and call its methods (Filter
// configuration, native Prepare/Query, transactions) — this constructor
// is their entry point, paired with sql.Open(DriverName, name) for the
// database/sql view of the same store.
func NewDB(name string, rt *core.Runtime) *sqldb.DB {
	db := sqldb.Open(rt)
	Bind(name, db)
	return db
}

// FilePrefix marks a data source name as a WAL file path rather than a
// registry key: "file:/var/data/app.db".
const FilePrefix = "file:"

// OpenFile opens (creating or recovering as needed) the WAL-backed
// database at the path of a "file:PATH" DSN over rt, binds it under the
// full DSN, and returns the native handle — the persistent counterpart
// of NewDB. Pair it with sql.Open(DriverName, dsn); when finished, Close
// the native handle and Unbind the DSN so a later OpenFile re-recovers
// from disk.
func OpenFile(dsn string, rt *core.Runtime) (*sqldb.DB, error) {
	path := strings.TrimPrefix(dsn, FilePrefix)
	if path == dsn || path == "" {
		return nil, fmt.Errorf("resinsql: OpenFile wants a %q DSN, got %q", FilePrefix+"PATH", dsn)
	}
	db, err := sqldb.OpenDB(rt, path)
	if err != nil {
		return nil, err
	}
	Bind(dsn, db)
	return db, nil
}

// CloseFile syncs and closes the WAL-backed database bound to dsn —
// whether it was opened explicitly (OpenFile) or lazily through
// sql.Open — and removes the binding, so a later open re-recovers from
// disk and can take the file lock. Closing the *sql.DB alone is not
// enough: database/sql never learns about the WAL, so every file: DSN
// should be paired with a CloseFile.
func CloseFile(dsn string) error {
	registry.mu.Lock()
	db := registry.m[dsn]
	delete(registry.m, dsn)
	registry.mu.Unlock()
	lazyOpens.mu.Lock()
	delete(lazyOpens.m, dsn) // a later sql.Open re-recovers from disk
	lazyOpens.mu.Unlock()
	if db == nil {
		return fmt.Errorf("resinsql: no database bound to %q", dsn)
	}
	return db.Close()
}

// NetPrefix marks a data source name as a wire-server address rather
// than a registry key or file path: "net:host:port" connects over TCP
// to a resin-server (or a follower), speaking the framed protocol in
// internal/wire. Policy annotations cross the socket in the canonical
// EncodeSpans form and are re-interned on arrival, so tracked scanning
// (the String / Int wrappers) works identically to the in-process DSNs.
const NetPrefix = "net:"

// defaultRuntime backs file: DSNs opened implicitly through sql.Open
// (no way to pass a runtime through database/sql): one shared tracked
// runtime for the process.
var defaultRuntime = struct {
	once sync.Once
	rt   *core.Runtime
}{}

// lazyOpens serializes implicit file: opens per DSN, so WAL replay — a
// full file read plus statement re-execution, possibly seconds for a
// long-history log — runs outside the global registry lock and never
// stalls connections to other data sources.
var lazyOpens = struct {
	mu sync.Mutex
	m  map[string]*lazyOpen
}{m: make(map[string]*lazyOpen)}

type lazyOpen struct {
	once sync.Once
	db   *sqldb.DB
	err  error
}

func openFileLazily(name string) (*sqldb.DB, error) {
	defaultRuntime.once.Do(func() { defaultRuntime.rt = core.NewRuntime() })
	lazyOpens.mu.Lock()
	o := lazyOpens.m[name]
	if o == nil {
		o = &lazyOpen{}
		lazyOpens.m[name] = o
	}
	lazyOpens.mu.Unlock()
	o.once.Do(func() {
		o.db, o.err = sqldb.OpenDB(defaultRuntime.rt, strings.TrimPrefix(name, FilePrefix))
		if o.err == nil {
			Bind(name, o.db)
		} else {
			// Leave the entry retryable: a transient failure (e.g. the
			// previous holder of the file lock still closing) must not
			// pin this DSN to an error forever.
			lazyOpens.mu.Lock()
			delete(lazyOpens.m, name)
			lazyOpens.mu.Unlock()
		}
	})
	return o.db, o.err
}

// Driver implements driver.Driver over the registry and the wire.
type Driver struct{}

// Open connects to the database bound to the given data source name. An
// unbound name with the file: prefix is opened (recovering the WAL at
// that path) over a shared default runtime and bound for later calls; a
// net: name dials the wire server at its address.
func (*Driver) Open(name string) (driver.Conn, error) {
	if strings.HasPrefix(name, NetPrefix) {
		addr := name[len(NetPrefix):]
		if addr == "" {
			return nil, fmt.Errorf("resinsql: %q DSN wants %q", name, NetPrefix+"host:port")
		}
		wc, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		return &conn{s: remote{wc}}, nil
	}
	registry.mu.RLock()
	db := registry.m[name]
	registry.mu.RUnlock()
	if db == nil && strings.HasPrefix(name, FilePrefix) {
		var err error
		if db, err = openFileLazily(name); err != nil {
			return nil, err
		}
	}
	if db == nil {
		return nil, fmt.Errorf("resinsql: no database bound to %q (call resinsql.Bind first)", name)
	}
	return &conn{s: &local{db: db}}, nil
}

// rows adapts a tracked sqldb.Result to driver.Rows. Cells with
// policies cross the boundary as tracked values (scan them with the
// String / Int wrappers below); untainted cells cross as plain values.
type rows struct {
	res *sqldb.Result
	i   int
}

func (r *rows) Columns() []string { return r.res.Columns }

func (r *rows) Close() error { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.i >= r.res.Len() {
		return io.EOF
	}
	for ci := range r.res.Columns {
		cell := r.res.Rows[r.i][ci]
		switch {
		case cell.Null:
			dest[ci] = nil
		case cell.IsInt:
			if cell.Int.IsTainted() {
				dest[ci] = cell.Int
			} else {
				dest[ci] = cell.Int.Value()
			}
		default:
			if cell.Str.IsTainted() {
				dest[ci] = cell.Str
			} else {
				dest[ci] = cell.Str.Raw()
			}
		}
	}
	r.i++
	return nil
}

// String is a sql.Scanner that preserves policy annotations: scanning a
// tracked cell keeps its core.String (policies included); scanning a
// plain value wraps it untainted. Valid follows the sql.NullString
// convention — false when the scanned cell was SQL NULL — so NULL is
// never conflated with a stored empty string.
type String struct {
	V     core.String
	Valid bool
}

// Scan implements sql.Scanner.
func (s *String) Scan(src any) error {
	s.Valid = src != nil
	switch v := src.(type) {
	case nil:
		s.V = core.String{}
	case core.String:
		s.V = v
	case core.Int:
		s.V = v.ToString()
	case string:
		s.V = core.NewString(v)
	case []byte:
		s.V = core.NewString(string(v))
	case int64:
		s.V = core.NewString(strconv.FormatInt(v, 10))
	default:
		return fmt.Errorf("resinsql: cannot scan %T into resinsql.String", src)
	}
	return nil
}

// Int is a sql.Scanner that preserves policy annotations on integer
// cells, mirroring String (including the NULL-distinguishing Valid
// flag).
type Int struct {
	V     core.Int
	Valid bool
}

// Scan implements sql.Scanner.
func (n *Int) Scan(src any) error {
	n.Valid = src != nil
	switch v := src.(type) {
	case nil:
		n.V = core.Int{}
	case core.Int:
		n.V = v
	case int64:
		n.V = core.NewInt(v)
	case core.String:
		parsed, err := v.ToInt()
		if err != nil {
			return fmt.Errorf("resinsql: cannot scan %q into resinsql.Int", v.Raw())
		}
		n.V = parsed
	case string:
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("resinsql: cannot scan %q into resinsql.Int", v)
		}
		n.V = core.NewInt(parsed)
	case []byte:
		return n.Scan(string(v))
	default:
		return fmt.Errorf("resinsql: cannot scan %T into resinsql.Int", src)
	}
	return nil
}
