package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
)

// wireTestPolicy is a marker policy for round-trip tests.
type wireTestPolicy struct {
	Tag string `json:"tag"`
}

func (p *wireTestPolicy) ExportCheck(ctx *core.Context) error { return nil }

func init() {
	core.RegisterPolicyClass("wiretest.Policy", &wireTestPolicy{})
}

// --- framing ---

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello, frames")
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q want %q", got, payload)
	}
}

// TestFrameBodyIsOneFrame: a frame written as a head and an uncopied
// body (a shipped log chunk) is the same bytes as the frame of their
// concatenation.
func TestFrameBodyIsOneFrame(t *testing.T) {
	head, body := []byte("chunk header"), bytes.Repeat([]byte("log bytes "), 1000)
	var split, whole bytes.Buffer
	if err := writeFrameBody(&split, head, body); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&whole, append(append([]byte(nil), head...), body...)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(split.Bytes(), whole.Bytes()) {
		t.Fatalf("head+body frame differs from the frame of their concatenation")
	}
}

func TestFrameChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[frameHeaderSize] ^= 0xff // flip a payload byte
	if _, err := readFrame(bytes.NewReader(b)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupted frame read: %v", err)
	}
}

// TestMaxFrameMatchesWAL pins the frame bound to the WAL record bound:
// the PR-4 symmetric-enforcement fix, applied to the socket. If either
// limit moves without the other, a log chunk or result could be
// acceptable on one side and refused on the other.
func TestMaxFrameMatchesWAL(t *testing.T) {
	if MaxFrame != sqldb.WALMaxRecord {
		t.Fatalf("MaxFrame %d != sqldb.WALMaxRecord %d", MaxFrame, sqldb.WALMaxRecord)
	}
}

// TestOversizeFrameTyped: both directions refuse an oversized frame
// with the typed error, before any byte is interpreted (encode) or
// allocated (decode).
func TestOversizeFrameTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize write: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize write left %d bytes on the stream", buf.Len())
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(MaxFrame+1))
	if _, err := readFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize read: %v", err)
	}
}

// --- one canonical policy serialization ---

// TestWireAnnotationIsEncodeSpans proves the wire protocol serializes a
// policy set as exactly core.EncodeSpans, byte for byte, and that the
// decoded string re-encodes to the same canonical bytes.
func TestWireAnnotationIsEncodeSpans(t *testing.T) {
	s := core.Concat(
		core.NewString("plain-"),
		core.NewStringPolicy("tainted", &wireTestPolicy{Tag: "interop"}).
			WithPolicy(&sanitize.UntrustedData{Source: "test"}),
		core.NewString("-tail"),
	)
	canonical, err := core.EncodeSpans(s)
	if err != nil {
		t.Fatal(err)
	}

	// Wire encoding embeds the canonical annotation verbatim.
	p, err := appendTracked(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	d := &decoder{data: p}
	raw, ann := d.bytes(), d.bytes()
	if err := d.end(); err != nil {
		t.Fatal(err)
	}
	if string(raw) != s.Raw() {
		t.Fatalf("wire raw %q != %q", raw, s.Raw())
	}
	if !bytes.Equal(ann, canonical) {
		t.Fatalf("wire annotation %s != canonical %s", ann, canonical)
	}

	// Decoding re-encodes to the same canonical bytes.
	d2 := &decoder{data: p}
	viaWire := d2.tracked()
	if err := d2.end(); err != nil {
		t.Fatal(err)
	}
	wireAnn, err := core.EncodeSpans(viaWire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireAnn, canonical) {
		t.Fatalf("decode not canonical:\n  wire %s\n  want %s", wireAnn, canonical)
	}
}

// --- server round trips ---

func startServer(t testing.TB, db *sqldb.DB, cfg Config) (addr string, srv *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(db, cfg)
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	return lis.Addr().String(), srv
}

func dialT(t testing.TB, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

// TestServerTaintRoundTrip: a tainted value written through the client
// comes back over the wire with its interned policy set equal to what
// the same query returns in-process — the acceptance criterion, pinned
// at EncodeSpans byte granularity.
func TestServerTaintRoundTrip(t *testing.T) {
	rt := core.NewRuntime()
	db := sqldb.Open(rt)
	db.MustExec("CREATE TABLE notes (id INT, body TEXT)")
	addr, _ := startServer(t, db, Config{})
	c := dialT(t, addr)

	tainted := core.NewStringPolicy("hello <script>", &wireTestPolicy{Tag: "rt"}).
		WithPolicy(&sanitize.UntrustedData{Source: "client"})
	if _, err := c.QueryRaw("INSERT INTO notes (id, body) VALUES (?, ?)", 7, tainted); err != nil {
		t.Fatal(err)
	}

	overWire, err := c.QueryRaw("SELECT id, body FROM notes")
	if err != nil {
		t.Fatal(err)
	}
	inProc, err := db.QueryRaw("SELECT id, body FROM notes")
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, overWire, inProc)

	cell := overWire.Get(0, "body")
	if !cell.Str.IsTainted() {
		t.Fatal("taint lost over the wire")
	}
	var saw bool
	for _, p := range cell.Str.Policies().Policies() {
		if wp, ok := p.(*wireTestPolicy); ok && wp.Tag == "rt" {
			saw = true
		}
	}
	if !saw {
		t.Fatal("wireTestPolicy lost over the wire")
	}
}

// TestAutoSanitizedBreakoutOverWire: the server's one-shot query is the
// same route as an in-process db.Query, so a server whose filter
// auto-sanitizes accepts a statement whose untrusted bytes would break
// out of their literal — as one inert value — instead of refusing it at
// prepare time with the standard parser's error.
func TestAutoSanitizedBreakoutOverWire(t *testing.T) {
	db := sqldb.Open(core.NewRuntime())
	db.Filter().AutoSanitizeUntrusted(true)
	db.MustExec("CREATE TABLE users (name TEXT, role TEXT, uid INT)")
	addr, _ := startServer(t, db, Config{})
	c := dialT(t, addr)

	evil := sanitize.Taint(core.NewString("x' OR role = 'admin"), "form")
	ins := core.Concat(
		core.NewString("INSERT INTO users (name, role, uid) VALUES ('"),
		evil, core.NewString("', 'weird', 9)"))
	if _, err := c.Query(ins); err != nil {
		t.Fatalf("breakout INSERT over the wire: %v", err)
	}
	res, err := c.QueryRaw("SELECT name, role FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "name").Str.Raw() != evil.Raw() || res.Get(0, "role").Str.Raw() != "weird" {
		t.Fatalf("payload should read back as a plain value: %+v", res)
	}
	inProc, err := db.QueryRaw("SELECT name, role FROM users")
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, res, inProc)
}

// assertResultsEqual compares two results byte-for-byte: columns, row
// order, raw values, and the EncodeSpans annotation of every cell.
func assertResultsEqual(t testing.TB, a, b *sqldb.Result) {
	t.Helper()
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", len(a.Rows), len(a.Columns), len(b.Rows), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			t.Fatalf("column %d: %q vs %q", i, a.Columns[i], b.Columns[i])
		}
	}
	for r := range a.Rows {
		for c := range a.Rows[r] {
			ca, cb := a.Rows[r][c], b.Rows[r][c]
			if ca.Null != cb.Null || ca.IsInt != cb.IsInt {
				t.Fatalf("row %d col %d: kind mismatch", r, c)
			}
			ta, tb := ca.Text(), cb.Text()
			if ta.Raw() != tb.Raw() {
				t.Fatalf("row %d col %d: %q vs %q", r, c, ta.Raw(), tb.Raw())
			}
			annA, errA := core.EncodeSpans(ta)
			annB, errB := core.EncodeSpans(tb)
			if errA != nil || errB != nil {
				t.Fatalf("encode spans: %v / %v", errA, errB)
			}
			if !bytes.Equal(annA, annB) {
				t.Fatalf("row %d col %d annotation mismatch:\n  %s\n  %s", r, c, annA, annB)
			}
		}
	}
}

func TestPreparedStatementsOverWire(t *testing.T) {
	rt := core.NewRuntime()
	db := sqldb.Open(rt)
	db.MustExec("CREATE TABLE kv (k TEXT, v INT)")
	addr, _ := startServer(t, db, Config{})
	c := dialT(t, addr)

	ins, err := c.Prepare(core.NewString("INSERT INTO kv (k, v) VALUES (:key, :val)"))
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumArgs() != 2 {
		t.Fatalf("NumArgs = %d, want 2", ins.NumArgs())
	}
	for i := 0; i < 5; i++ {
		if _, err := ins.Exec(sqldb.Named("val", i), sqldb.Named("key", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := c.Prepare(core.NewString("SELECT v FROM kv WHERE k = ? LIMIT ?"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sel.Query("k3", 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "v").Int.Value() != 3 {
		t.Fatalf("got %d rows, v=%v", res.Len(), res.Get(0, "v"))
	}
	if err := sel.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Query("k3", 10); err == nil {
		t.Fatal("closed statement executed")
	}
}

func TestTransactionOverWire(t *testing.T) {
	rt := core.NewRuntime()
	db := sqldb.Open(rt)
	db.MustExec("CREATE TABLE acct (id INT, bal INT)")
	db.MustExec("INSERT INTO acct (id, bal) VALUES (1, 100), (2, 0)")
	addr, _ := startServer(t, db, Config{})
	c := dialT(t, addr)

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryRaw("UPDATE acct SET bal = 50 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryRaw("UPDATE acct SET bal = 50 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: invisible outside the connection's transaction.
	res, _ := db.QueryRaw("SELECT bal FROM acct WHERE id = 2")
	if res.Get(0, "bal").Int.Value() != 0 {
		t.Fatal("transaction leaked before commit")
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	res, _ = db.QueryRaw("SELECT bal FROM acct WHERE id = 2")
	if res.Get(0, "bal").Int.Value() != 50 {
		t.Fatal("commit not visible")
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryRaw("UPDATE acct SET bal = 999 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, _ = db.QueryRaw("SELECT bal FROM acct WHERE id = 1")
	if res.Get(0, "bal").Int.Value() != 50 {
		t.Fatal("rollback did not discard")
	}
}

// TestTransactionRefusesDDLOverWire: a schema statement inside a
// connection's transaction fails with the engine's refusal as a
// *RemoteError, and the same transaction then writes and commits.
func TestTransactionRefusesDDLOverWire(t *testing.T) {
	for i, ddl := range []string{
		"CREATE TABLE other (a INT)",
		"DROP TABLE acct",
		"CREATE INDEX ON acct (bal)",
		"DROP INDEX ON acct (id)",
	} {
		t.Run(ddl, func(t *testing.T) {
			db := sqldb.Open(core.NewRuntime())
			db.MustExec("CREATE TABLE acct (id INT, bal INT)")
			db.MustExec("CREATE INDEX ON acct (id)")
			addr, _ := startServer(t, db, Config{})
			c := dialT(t, addr)
			if err := c.Begin(); err != nil {
				t.Fatal(err)
			}
			_, err := c.QueryRaw(ddl)
			var re *RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, sqldb.ErrTxDDL.Error()) {
				t.Fatalf("%s in a transaction: %v, want a *RemoteError naming the refusal", ddl, err)
			}
			if _, err := c.QueryRaw("INSERT INTO acct (id, bal) VALUES (?, 7)", i); err != nil {
				t.Fatal(err)
			}
			if err := c.Commit(); err != nil {
				t.Fatal(err)
			}
			if res, err := db.QueryRaw("SELECT bal FROM acct WHERE id = ?", i); err != nil || res.Len() != 1 {
				t.Fatalf("row written after the refusal did not commit: %v", err)
			}
		})
	}
}

// TestServerRefusesDeepNesting: a statement nested past the parser's
// bound comes back as a *RemoteError naming the bound, and the server
// keeps serving both that connection and a fresh one.
func TestServerRefusesDeepNesting(t *testing.T) {
	db := sqldb.Open(core.NewRuntime())
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t (a) VALUES (1)")
	addr, _ := startServer(t, db, Config{})
	c := dialT(t, addr)
	for _, q := range []string{
		"SELECT a FROM t WHERE " + strings.Repeat("(", 100000) + "a = 1" + strings.Repeat(")", 100000),
		"SELECT a FROM t WHERE " + strings.Repeat("NOT ", 100000) + "a = 1",
	} {
		_, err := c.QueryRaw(q)
		var re *RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "nested deeper than 256") {
			t.Fatalf("100000-deep statement: %v, want a *RemoteError naming the bound", err)
		}
	}
	for _, conn := range []*Conn{c, dialT(t, addr)} {
		if res, err := conn.QueryRaw("SELECT a FROM t"); err != nil || res.Len() != 1 {
			t.Fatalf("SELECT after the refusal: %v", err)
		}
	}
}

// TestServerRefusesTrailingBytes: each request kind, valid but for one
// byte past its last field, fails with ErrFrameCorrupt's code (an
// unknown tag with codeBadRequest) and runs nothing: the INSERTs add no
// row, and a refused commit or rollback leaves the transaction open.
// The session keeps serving after every refusal.
func TestServerRefusesTrailingBytes(t *testing.T) {
	db := sqldb.Open(core.NewRuntime())
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t (a) VALUES (1)")
	addr, _ := startServer(t, db, Config{})
	c := dialT(t, addr)
	ins, err := c.Prepare(core.NewString("INSERT INTO t (a) VALUES (2)"))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := c.Prepare(core.NewString("SELECT a FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	tracked := func(tag byte, q string) []byte {
		p, err := appendTracked([]byte{tag}, core.NewString(q))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	noArgs := func(p []byte) []byte { return binary.AppendUvarint(p, 0) }
	handshake := binary.LittleEndian.AppendUint32(binary.AppendUvarint([]byte{msgHandshake}, 0), 0)
	noTx := func() error {
		if err := c.Begin(); err != nil {
			return err
		}
		return c.Rollback()
	}
	corrupt := errCode(ErrFrameCorrupt)
	for _, tc := range []struct {
		name         string
		req          []byte
		before, then func() error
		code         byte
	}{
		{name: "Q", req: noArgs(tracked(msgQuery, "INSERT INTO t (a) VALUES (2)")), code: corrupt},
		{name: "P", req: tracked(msgPrepare, "SELECT a FROM t"), code: corrupt},
		{name: "E", req: noArgs(binary.AppendUvarint([]byte{msgExec}, ins.id)), code: corrupt},
		{name: "X", req: binary.AppendUvarint([]byte{msgCloseStmt}, sel.id), then: func() error { _, err := sel.Query(); return err }, code: corrupt},
		{name: "B", req: []byte{msgBegin}, then: noTx, code: corrupt},
		{name: "C", req: []byte{msgCommit}, before: c.Begin, then: c.Rollback, code: corrupt},
		{name: "R", req: []byte{msgRollback}, before: c.Begin, then: c.Rollback, code: corrupt},
		{name: "S", req: []byte{msgStatus}, code: corrupt},
		{name: "W", req: handshake, code: corrupt},
		{name: "unknown", req: []byte{0x00}, code: codeBadRequest},
	} {
		if tc.before != nil {
			if err := tc.before(); err != nil {
				t.Fatalf("%s: setup: %v", tc.name, err)
			}
		}
		_, err := c.roundTrip(context.Background(), append(tc.req, 0x00))
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != tc.code {
			t.Fatalf("%s with a trailing byte: %v, want a *RemoteError of code 0x%02x", tc.name, err, tc.code)
		}
		if tc.then != nil {
			if err := tc.then(); err != nil {
				t.Fatalf("%s: the refused request ran: %v", tc.name, err)
			}
		}
		if res, err := c.QueryRaw("SELECT a FROM t"); err != nil || res.Len() != 1 {
			t.Fatalf("%s: SELECT after the refusal: %v, %d rows", tc.name, err, res.Len())
		}
	}
}

func TestConnectionLimit(t *testing.T) {
	rt := core.NewRuntime()
	db := sqldb.Open(rt)
	addr, _ := startServer(t, db, Config{MaxConns: 1})
	c1 := dialT(t, addr)
	if _, err := c1.Status(); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr)
	if err == nil {
		_, err = c2.Status()
		c2.Close() //nolint:errcheck
	}
	if err == nil {
		t.Fatal("second connection served past MaxConns=1")
	}
}

func TestGracefulDrain(t *testing.T) {
	rt := core.NewRuntime()
	db := sqldb.Open(rt)
	db.MustExec("CREATE TABLE t (a INT)")
	addr, srv := startServer(t, db, Config{})
	c := dialT(t, addr)
	if _, err := c.QueryRaw("INSERT INTO t (a) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := c.QueryRaw("SELECT a FROM t"); err == nil {
		t.Fatal("query succeeded after drain")
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// --- replication ---

// startPrimary opens a WAL-backed primary and serves it.
func startPrimary(t testing.TB, rt *core.Runtime) (*sqldb.DB, string) {
	t.Helper()
	db, err := sqldb.OpenDB(rt, filepath.Join(t.TempDir(), "primary.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck
	addr, _ := startServer(t, db, Config{})
	return db, addr
}

// startReplica ships from primaryAddr into a fresh local log and serves
// it read-only; returns the replica and its serving address.
func startReplica(t testing.TB, rt *core.Runtime, primaryAddr, path string) (*Replica, string) {
	t.Helper()
	r, err := NewReplica(rt, primaryAddr, path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Run(ctx) //nolint:errcheck
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		r.DB().Close() //nolint:errcheck
	})

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fsrv := NewFollowerServer(r, Config{})
	go fsrv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		fsrv.Shutdown(sctx) //nolint:errcheck
	})
	return r, lis.Addr().String()
}

// waitCaughtUp polls until the replica has applied the primary's entire
// current log.
func waitCaughtUp(t testing.TB, r *Replica, db *sqldb.DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, size, err := db.WALStatus()
		if err != nil {
			t.Fatal(err)
		}
		applied, _ := r.Follower().Offsets()
		if applied == size && r.DB().Frontier() == db.Frontier() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	applied, received := r.Follower().Offsets()
	_, size, _ := db.WALStatus()
	t.Fatalf("replica never caught up: applied %d received %d, primary %d; frontiers %d vs %d",
		applied, received, size, r.DB().Frontier(), db.Frontier())
}

// TestReplicaServesReadsAtFrontier is the replication acceptance
// criterion: after catching up, a follower read at its reported
// frontier is byte-identical — rows, order, and EncodeSpans policy
// spans — to the primary's read at the same frontier, taint included.
func TestReplicaServesReadsAtFrontier(t *testing.T) {
	rt := core.NewRuntime()
	db, addr := startPrimary(t, rt)
	r, faddr := startReplica(t, rt, addr, filepath.Join(t.TempDir(), "replica.wal"))

	pc := dialT(t, addr)
	if _, err := pc.QueryRaw("CREATE TABLE posts (id INT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		body := core.NewStringPolicy(fmt.Sprintf("post %d", i), &wireTestPolicy{Tag: "repl"}).
			WithPolicy(&sanitize.UntrustedData{Source: "poster"})
		if _, err := pc.QueryRaw("INSERT INTO posts (id, body) VALUES (?, ?)", i, body); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, r, db)

	fc := dialT(t, faddr)
	st, err := fc.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "follower" {
		t.Fatalf("role %q", st.Role)
	}
	if st.Frontier != db.Frontier() {
		t.Fatalf("follower frontier %d != primary %d", st.Frontier, db.Frontier())
	}

	q := "SELECT id, body FROM posts ORDER BY id"
	onFollower, err := fc.QueryRaw(q)
	if err != nil {
		t.Fatal(err)
	}
	onPrimary, err := db.QueryRaw(q)
	if err != nil {
		t.Fatal(err)
	}
	if onFollower.Len() != 20 {
		t.Fatalf("follower rows: %d", onFollower.Len())
	}
	assertResultsEqual(t, onFollower, onPrimary)
	if !onFollower.Get(3, "body").Str.IsTainted() {
		t.Fatal("taint lost through replication")
	}
}

// TestReplicaReadOnly: writes and transactions on a follower fail with
// the typed error, across the wire.
func TestReplicaReadOnly(t *testing.T) {
	rt := core.NewRuntime()
	db, addr := startPrimary(t, rt)
	r, faddr := startReplica(t, rt, addr, filepath.Join(t.TempDir(), "replica.wal"))
	pc := dialT(t, addr)
	if _, err := pc.QueryRaw("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, r, db)

	fc := dialT(t, faddr)
	if _, err := fc.QueryRaw("INSERT INTO t (a) VALUES (1)"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("insert on replica: %v", err)
	}
	if err := fc.Begin(); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("begin on replica: %v", err)
	}
	if _, err := fc.QueryRaw("SELECT a FROM t"); err != nil {
		t.Fatalf("select on replica: %v", err)
	}
}

// TestReplicaKillAndResume: kill the replica mid-replay (ungraceful —
// goroutines torn down, local log left as-is, possibly mid-group),
// restart it on the same log, and require catch-up to frontier
// equality. Recovery is plain OpenDB: torn or uncommitted tails
// truncate, and the handshake resumes shipping from the recovered
// offset.
func TestReplicaKillAndResume(t *testing.T) {
	rt := core.NewRuntime()
	db, addr := startPrimary(t, rt)
	path := filepath.Join(t.TempDir(), "replica.wal")

	pc := dialT(t, addr)
	if _, err := pc.QueryRaw("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	ins, err := pc.Prepare(core.NewString("INSERT INTO t (a, b) VALUES (?, ?)"))
	if err != nil {
		t.Fatal(err)
	}
	write := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body := core.NewStringPolicy(fmt.Sprintf("row %d", i), &wireTestPolicy{Tag: "kill"})
			if _, err := ins.Exec(i, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 50)

	// Phase 1: replica ships some of the load, then dies abruptly.
	r1, err := NewReplica(rt, addr, path)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { defer close(done1); r1.Run(ctx1) }() //nolint:errcheck
	deadline := time.Now().Add(10 * time.Second)
	for {
		if applied, _ := r1.Follower().Offsets(); applied > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never applied anything")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel1()
	<-done1
	r1.DB().Close() //nolint:errcheck

	// More writes land while the replica is down.
	write(50, 100)

	// Phase 2: restart on the same log; it must catch up to byte and
	// frontier equality.
	r2, faddr := startReplica(t, rt, addr, path)
	waitCaughtUp(t, r2, db)
	if r2.Resyncs() != 0 {
		t.Fatalf("restart forced %d resync(s); want offset-based catch-up", r2.Resyncs())
	}

	fc := dialT(t, faddr)
	onFollower, err := fc.QueryRaw("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	onPrimary, err := db.QueryRaw("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if onFollower.Len() != 100 {
		t.Fatalf("follower rows: %d", onFollower.Len())
	}
	assertResultsEqual(t, onFollower, onPrimary)
}

// TestReplicaDivergedResync: a follower whose log is not a byte prefix
// of the primary's gets the typed divergence error and resyncs from
// scratch automatically.
func TestReplicaDivergedResync(t *testing.T) {
	rt := core.NewRuntime()
	db, addr := startPrimary(t, rt)
	pc := dialT(t, addr)
	if _, err := pc.QueryRaw("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.QueryRaw("INSERT INTO t (a) VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}

	// Fabricate a forked follower log: same length class, different
	// history (its own table).
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.wal")
	forked, err := sqldb.OpenDB(rt, path)
	if err != nil {
		t.Fatal(err)
	}
	forked.MustExec("CREATE TABLE other (x TEXT)")
	forked.MustExec("INSERT INTO other (x) VALUES ('fork')")
	if err := forked.Close(); err != nil {
		t.Fatal(err)
	}

	r, faddr := startReplica(t, rt, addr, path)
	waitCaughtUp(t, r, db)
	if r.Resyncs() == 0 {
		t.Fatal("diverged follower never resynced")
	}
	fc := dialT(t, faddr)
	res, err := fc.QueryRaw("SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("post-resync rows: %d", res.Len())
	}
	if _, err := fc.QueryRaw("SELECT x FROM other"); err == nil {
		t.Fatal("forked table survived resync")
	}
}

// TestVerifyWALPrefixTyped pins the behind/diverged distinction at the
// sqldb layer: a true prefix is accepted (behind = resumable), a forked
// prefix is ErrShipDiverged, and a too-long prefix is ErrShipDiverged.
func TestVerifyWALPrefixTyped(t *testing.T) {
	rt := core.NewRuntime()
	db, err := sqldb.OpenDB(rt, filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t (a) VALUES (1)")
	_, size, err := db.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	half := size / 2
	crc, err := db.WALPrefixCRC(half)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyWALPrefix(half, crc); err != nil {
		t.Fatalf("true prefix rejected: %v", err)
	}
	if err := db.VerifyWALPrefix(half, crc^0xdeadbeef); !errors.Is(err, sqldb.ErrShipDiverged) {
		t.Fatalf("forked prefix: %v", err)
	}
	if err := db.VerifyWALPrefix(size+100, crc); !errors.Is(err, sqldb.ErrShipDiverged) {
		t.Fatalf("over-long prefix: %v", err)
	}
}

// TestConcurrentClientsWithShipping exercises the -race coverage the
// issue asks for: many wire clients writing and reading the primary
// while the replication stream ships and the follower serves reads.
func TestConcurrentClientsWithShipping(t *testing.T) {
	rt := core.NewRuntime()
	db, addr := startPrimary(t, rt)
	r, faddr := startReplica(t, rt, addr, filepath.Join(t.TempDir(), "replica.wal"))
	pc := dialT(t, addr)
	if _, err := pc.QueryRaw("CREATE TABLE load (w INT, i INT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, r, db)

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close() //nolint:errcheck
			fcr, err := Dial(faddr)
			if err != nil {
				errs <- err
				return
			}
			defer fcr.Close() //nolint:errcheck
			for i := 0; i < perWorker; i++ {
				body := core.NewStringPolicy(fmt.Sprintf("w%d-%d", w, i), &wireTestPolicy{Tag: "load"})
				if _, err := c.QueryRaw("INSERT INTO load (w, i, body) VALUES (?, ?, ?)", w, i, body); err != nil {
					errs <- err
					return
				}
				if _, err := fcr.QueryRaw("SELECT COUNT(*) FROM load"); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitCaughtUp(t, r, db)
	res, err := r.DB().QueryRaw("SELECT COUNT(*) FROM load")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Get(0, "COUNT(*)").Int.Value(); n != workers*perWorker {
		t.Fatalf("replica row count %d, want %d", n, workers*perWorker)
	}
}

// TestFollowerLocalLogIsBytePrefix: the replica's on-disk log is a
// byte-exact prefix (here: byte-identical, once caught up) of the
// primary's — the invariant the CRC handshake relies on.
func TestFollowerLocalLogIsBytePrefix(t *testing.T) {
	rt := core.NewRuntime()
	pdir, rdir := t.TempDir(), t.TempDir()
	db, err := sqldb.OpenDB(rt, filepath.Join(pdir, "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	addr, _ := startServer(t, db, Config{})
	rpath := filepath.Join(rdir, "r.wal")
	r, _ := startReplica(t, rt, addr, rpath)

	db.MustExec("CREATE TABLE t (a TEXT)")
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t (a) VALUES ('v%d')", i))
	}
	waitCaughtUp(t, r, db)

	ppath := filepath.Join(pdir, "p.wal")
	pb, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, rb) {
		t.Fatalf("logs differ: primary %d bytes, replica %d bytes", len(pb), len(rb))
	}
}

// TestShutdownEndsIdleShipStream: stopping a primary whose caught-up
// replica sits on an idle ship stream ends that stream at once, without
// waiting for the stream's next heartbeat.
func TestShutdownEndsIdleShipStream(t *testing.T) {
	rt := core.NewRuntime()
	db, err := sqldb.OpenDB(rt, filepath.Join(t.TempDir(), "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	addr, srv := startServer(t, db, Config{})
	r, _ := startReplica(t, rt, addr, filepath.Join(t.TempDir(), "r.wal"))
	db.MustExec("CREATE TABLE t (a TEXT)")
	waitCaughtUp(t, r, db)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if took := time.Since(start); err != nil || took > 300*time.Millisecond {
		t.Errorf("Shutdown with an idle ship stream: %v after %v, want nil within 300ms", err, took)
	}
}

// TestReplicaCatchUpAcrossChunks: a fresh replica catches up over
// loopback on a log more than three ship chunks long, whose 1000-row
// B..C groups of tainted rows straddle the frame boundaries, so a record
// and an open group are carried from one frame to the next. The logs end
// byte-identical, the frontiers equal, and every row and its EncodeSpans
// annotation match the primary's.
func TestReplicaCatchUpAcrossChunks(t *testing.T) {
	rt := core.NewRuntime()
	pdir, rdir := t.TempDir(), t.TempDir()
	ppath, rpath := filepath.Join(pdir, "p.wal"), filepath.Join(rdir, "r.wal")
	db, err := sqldb.OpenDB(rt, ppath)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	// A fresh log is its header: the first frame starts there.
	header := db.WALSize()
	db.MustExec("CREATE TABLE docs (id INT, title TEXT, body TEXT)")
	type group struct{ from, to int64 }
	var groups []group
	pad := strings.Repeat("policies travel with the data ", 12)
	for g := 0; db.WALSize() < header+3*shipChunk+shipChunk/2; g++ {
		from := db.WALSize()
		tx := db.Begin()
		ins, err := tx.PrepareRaw("INSERT INTO docs (id, title, body) VALUES (?, ?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			id := g*1000 + i
			pol := &wireTestPolicy{Tag: fmt.Sprintf("doc-%d", id%8)}
			body := core.NewStringPolicy(fmt.Sprintf("%d %s", id, pad), pol).WithPolicy(&sanitize.UntrustedData{Source: "doc"})
			if _, err := ins.Exec(id, core.NewStringPolicy(fmt.Sprintf("doc %d", id), pol), body); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		groups = append(groups, group{from, db.WALSize()})
	}
	for k := int64(1); k <= 3; k++ {
		cut := header + k*shipChunk
		inside := false
		for _, g := range groups {
			inside = inside || g.from < cut && cut < g.to
		}
		if !inside {
			t.Fatalf("frame boundary %d falls between groups; the test wants every boundary inside one", cut)
		}
	}

	addr, _ := startServer(t, db, Config{})
	r, _ := startReplica(t, rt, addr, rpath)
	waitCaughtUp(t, r, db)

	pb, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, rb) {
		t.Fatalf("logs differ: primary %d bytes, replica %d bytes", len(pb), len(rb))
	}
	if got, want := r.DB().Frontier(), db.Frontier(); got != want {
		t.Fatalf("replica frontier %d, primary %d", got, want)
	}
	q := "SELECT id, title, body FROM docs ORDER BY id"
	onReplica, err := r.DB().QueryRaw(q)
	if err != nil {
		t.Fatal(err)
	}
	onPrimary, err := db.QueryRaw(q)
	if err != nil {
		t.Fatal(err)
	}
	if onPrimary.Len() != 1000*len(groups) {
		t.Fatalf("primary rows: %d, want %d", onPrimary.Len(), 1000*len(groups))
	}
	assertResultsEqual(t, onReplica, onPrimary)
}
