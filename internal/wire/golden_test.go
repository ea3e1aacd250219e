package wire

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"resin/internal/core"
	"resin/internal/sqldb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_bytes.golden from this run")

const goldenPath = "testdata/wire_bytes.golden"

// frameTap relays wire connections to an upstream server and records
// every frame that crosses it, labelled with the step in progress: ">"
// for what the client sent, "<" for what the server answered. A log
// chunk is recorded up to its data (the chunk head); the data is the
// primary's WAL bytes, pinned by the WAL's own tests.
type frameTap struct {
	upstream string
	shipped  chan struct{}

	mu     sync.Mutex
	label  string
	closed bool
	lines  []string
}

func (tp *frameTap) record(dir string, payload []byte) {
	if payload[0] == msgLogChunk {
		head := 1
		for i := 0; i < 4; i++ {
			_, n := binary.Uvarint(payload[head:])
			head += n
		}
		payload = payload[:head]
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if !tp.closed {
		tp.lines = append(tp.lines, fmt.Sprintf("%s %s %x", tp.label, dir, payload))
	}
}

func (tp *frameTap) serve(lis net.Listener) {
	for {
		cli, err := lis.Accept()
		if err != nil {
			return
		}
		go tp.relay(cli)
	}
}

// relay forwards one connection frame by frame. A request is answered
// by one response, except a replication handshake, whose ship-accept
// and first log chunk end the recording.
func (tp *frameTap) relay(cli net.Conn) {
	defer cli.Close() //nolint:errcheck
	srv, err := net.Dial("tcp", tp.upstream)
	if err != nil {
		return
	}
	defer srv.Close() //nolint:errcheck
	pre := make([]byte, len(Magic)+1)
	for _, hop := range [][2]net.Conn{{cli, srv}, {srv, cli}} {
		if _, err := io.ReadFull(hop[0], pre); err != nil {
			return
		}
		if _, err := hop[1].Write(pre); err != nil {
			return
		}
	}
	for {
		req, err := readFrame(cli)
		if err != nil {
			return
		}
		tp.record(">", req)
		if writeFrame(srv, req) != nil {
			return
		}
		replies := 1
		if req[0] == msgHandshake {
			replies = 2
		}
		for i := 0; i < replies; i++ {
			resp, err := readFrame(srv)
			if err != nil {
				return
			}
			tp.record("<", resp)
			if writeFrame(cli, resp) != nil {
				return
			}
		}
		if req[0] == msgHandshake {
			tp.mu.Lock()
			tp.closed = true
			tp.mu.Unlock()
			close(tp.shipped)
			return
		}
	}
}

// TestWireBytesGolden pins the exact bytes of every request and response
// kind as the client, the server and the replica put them on the
// socket, recorded through a relay between them: a query binding every
// argument kind the client accepts (NULL, plain and tainted core.Int,
// every Go integer type, bool, string, []byte, a tainted core.String, a
// named argument), results carrying every cell kind, prepare, execute,
// close, the transaction acks, status, an error frame, and the
// replication handshake's ship-accept and first log-chunk head.
// `go test -run TestWireBytesGolden -update` rewrites the golden file;
// a change to it is a change to the protocol (docs/WIRE.md).
func TestWireBytesGolden(t *testing.T) {
	rt := core.NewRuntime()
	db, addr := startPrimary(t, rt)
	db.MustExec("CREATE TABLE k (id INT, n INT, s TEXT)")
	db.MustExec("CREATE TABLE kinds (a INT, b INT, c INT, d INT, e INT, f INT, g INT, h INT, i INT, j INT, s TEXT, y TEXT, z TEXT)")

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close() //nolint:errcheck
	tp := &frameTap{upstream: addr, shipped: make(chan struct{})}
	go tp.serve(lis)
	c := dialT(t, lis.Addr().String())

	step := func(label string, run func() error) {
		t.Helper()
		tp.mu.Lock()
		tp.label = label
		tp.mu.Unlock()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	query := func(q string, args ...any) func() error {
		return func() error { _, err := c.QueryRaw(q, args...); return err }
	}
	taintedInt := core.NewIntPolicy(42, &wireTestPolicy{Tag: "n"})
	taintedStr := core.NewStringPolicy("<b>x</b>", &wireTestPolicy{Tag: "s"})

	step("query-tainted", query("INSERT INTO k (id, n, s) VALUES (?, ?, ?)", int64(1), taintedInt, taintedStr))
	step("query-plain", query("INSERT INTO k (id, n, s) VALUES (?, ?, ?)", core.NewInt(2), nil, "plain"))
	step("query-go-kinds", query("INSERT INTO kinds (a, b, c, d, e, f, g, h, i, j, s, y, z) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
		int(-1), int8(-8), int16(-16), int32(-32), int64(-64), uint8(8), uint16(16), uint32(32), true, false, "str", []byte("bytes"), nil))
	step("query-cells", query("SELECT a, b, c, d, e, f, g, h, i, j, s, y, z FROM kinds"))
	var st *Stmt
	step("prepare", func() (err error) {
		st, err = c.Prepare(core.NewString("SELECT id, n, s FROM k WHERE id >= :lo ORDER BY id"))
		return err
	})
	step("exec-named", func() error { _, err := st.Query(sqldb.Named("lo", int64(1))); return err })
	step("exec-unknown", func() error {
		if _, err := (&Stmt{c: c, id: 99}).Query(); err == nil {
			return fmt.Errorf("statement 99 ran")
		}
		return nil
	})
	step("close", st.Close)
	step("begin", c.Begin)
	step("commit", c.Commit)
	step("begin", c.Begin)
	step("rollback", c.Rollback)
	step("status", func() error { _, err := c.Status(); return err })

	tp.mu.Lock()
	tp.label = "ship"
	tp.mu.Unlock()
	r, err := NewReplica(core.NewRuntime(), lis.Addr().String(), filepath.Join(t.TempDir(), "replica.wal"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Run(ctx) //nolint:errcheck
	}()
	<-tp.shipped
	cancel()
	<-done
	r.DB().Close() //nolint:errcheck

	got := strings.Join(tp.lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wire bytes drifted from %s at line %d:\n  got  %s\n  want %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("wire bytes drifted from %s: %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}

// goldenPayloads returns the golden file's recorded payloads, keyed by
// direction: ">" requests and "<" responses.
func goldenPayloads(t testing.TB) map[string][][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		p, err := hex.DecodeString(f[2])
		if err != nil || len(p) == 0 {
			t.Fatalf("malformed golden payload %q: %v", line, err)
		}
		out[f[1]] = append(out[f[1]], p)
	}
	return out
}
