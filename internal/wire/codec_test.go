package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// answerWith serves one connection that answers every request with
// payload, as a misbehaving server would.
func answerWith(t *testing.T, payload []byte) *Conn {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() }) //nolint:errcheck
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close() //nolint:errcheck
		if expectPreamble(nc) != nil || sendPreamble(nc) != nil {
			return
		}
		for {
			if _, err := readFrame(nc); err != nil {
				return
			}
			if writeFrame(nc, payload) != nil {
				return
			}
		}
	}()
	return dialT(t, lis.Addr().String())
}

// TestDecodeRefusesImpossibleCounts: a count the bytes left cannot hold
// fails the message with ErrFrameCorrupt before anything is allocated
// for it. A result that declares zero columns and 2^22 rows is seven
// bytes; sqldb never returns rows without columns, so it is refused.
func TestDecodeRefusesImpossibleCounts(t *testing.T) {
	result := func(ncols, nrows uint64, body ...byte) []byte {
		p := binary.AppendUvarint([]byte{msgResult, 0}, ncols)
		return binary.AppendUvarint(append(p, body...), nrows)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"zero columns with rows", result(0, 1<<22)},
		{"column count past the payload", binary.AppendUvarint([]byte{msgResult, 0}, 1<<40)},
		{"row count past the payload", result(1, 1<<40, 1, 'a')},
	} {
		_, err := answerWith(t, tc.payload).QueryRaw("SELECT a FROM t")
		if !errors.Is(err, ErrFrameCorrupt) || !strings.Contains(err.Error(), "count") {
			t.Errorf("%s: %v, want ErrFrameCorrupt naming the count", tc.name, err)
		}
	}

	db := sqldb.Open(core.NewRuntime())
	addr, _ := startServer(t, db, Config{})
	c := dialT(t, addr)
	p, err := appendTracked([]byte{msgQuery}, core.NewString("SELECT 1"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.roundTrip(context.Background(), binary.AppendUvarint(p, 1<<40))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != errCode(ErrFrameCorrupt) || !strings.Contains(re.Msg, "argument count") {
		t.Errorf("argument count past the payload: %v, want ErrFrameCorrupt's code naming the count", err)
	}
}

// TestResponsesEndAtLastField: every response kind, valid but for one
// byte past its last field, fails with ErrFrameCorrupt — the rule the
// server holds requests to (TestServerRefusesTrailingBytes).
func TestResponsesEndAtLastField(t *testing.T) {
	res := &sqldb.Result{Columns: []string{"a"}, Rows: [][]sqldb.Cell{{{IsInt: true, Int: core.NewInt(7)}}}}
	for _, r := range []response{
		{tag: msgResult, result: res},
		{tag: msgPrepared, id: 3, nargs: 2},
		{tag: msgAck},
		{tag: msgStatusReply, status: Status{Role: "follower", Frontier: 4, WALSize: 9}},
		{tag: msgShipAccept, epoch: 1, size: 9},
		{tag: msgLogChunk, off: 9, epoch: 1, size: 12, data: []byte("abc")},
	} {
		p, err := r.encode()
		if err != nil {
			t.Fatal(err)
		}
		p = append(p, r.data...)
		if _, err := decodeResponse(p); err != nil {
			t.Fatalf("%c: %v", r.tag, err)
		}
		if _, err := decodeResponse(append(p, 0)); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("%c with a trailing byte: %v, want ErrFrameCorrupt", r.tag, err)
		}
	}
	var re *RemoteError
	if _, err := decodeResponse(errorPayload(codeBehind, "behind")); !errors.As(err, &re) || !errors.Is(err, ErrBehind) {
		t.Fatalf("error frame: %v", err)
	}
	if _, err := decodeResponse(append(errorPayload(codeBehind, "behind"), 0)); !errors.Is(err, ErrFrameCorrupt) || errors.As(err, &re) {
		t.Errorf("error frame with a trailing byte: %v, want ErrFrameCorrupt", err)
	}
}

// TestWireCodecAlloc pins the codec's allocation counts: a five-argument
// execute request and a one-row, five-cell result (two INT cells, three
// TEXT cells, one of them tainted), each encoded and decoded as the
// client and server do. Before the codec was one sticky decoder these
// took 8, 9, 9 and 12 allocations (Go 1.24, amd64): each payload grew
// from a one-byte slice, the result's untainted INT cells rendered their
// digits, and the client's decoder escaped to the heap.
func TestWireCodecAlloc(t *testing.T) {
	pol := &wireTestPolicy{Tag: "alloc"}
	req := request{tag: msgExec, id: 1, args: []any{int64(7), core.NewInt(8), "plain",
		core.NewString("core"), core.NewStringPolicy("taint", pol)}}
	res := &sqldb.Result{Columns: []string{"id", "n", "title", "body", "owner"}, Rows: [][]sqldb.Cell{{
		{IsInt: true, Int: core.NewInt(1)}, {IsInt: true, Int: core.NewInt(1234)},
		{Str: core.NewString("hello")}, {Str: core.NewString("world")}, {Str: core.NewStringPolicy("secret", pol)}}}}
	resp := response{tag: msgResult, result: res}
	reqP, err := req.encode()
	if err != nil {
		t.Fatal(err)
	}
	resP, err := resp.encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"execute request encode", 3, func() error { _, err := req.encode(); return err }},
		{"execute request decode", 9, func() error { _, err := decodeRequest(reqP); return err }},
		{"result encode", 4, func() error { _, err := resp.encode(); return err }},
		{"result decode", 11, func() error { _, err := decodeResponse(resP); return err }},
	} {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testing.AllocsPerRun(200, func() { tc.run() }); got > tc.ceiling { //nolint:errcheck
			t.Errorf("%s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %v allocations (ceiling %v)", tc.name, got, tc.ceiling)
		}
	}
}

// FuzzWireDecode runs arbitrary payloads through the server's request
// decode and the client's and replica's response decode. Nothing may
// panic, and whatever decodes re-encodes to a fixed point: the
// re-encoding decodes again and re-encodes to itself. (The input itself
// need not come back: varints and annotations have non-canonical forms.)
func FuzzWireDecode(f *testing.F) {
	for _, ps := range goldenPayloads(f) {
		for _, p := range ps {
			f.Add(p)
		}
	}
	f.Add(binary.AppendUvarint([]byte{msgResult, 0, 0}, 1<<22))
	f.Fuzz(func(t *testing.T, x []byte) {
		if q, err := decodeRequest(x); err == nil {
			fixedPoint(t, x, q, func(q request) ([]byte, error) { return q.encode() }, decodeRequest)
		}
		r, err := decodeResponse(x)
		var re *RemoteError
		switch {
		case err == nil:
			fixedPoint(t, x, r, encodeResponse, decodeResponse)
		case errors.As(err, &re):
			e1 := errorPayload(re.Code, re.Msg)
			if _, err := decodeResponse(e1); !errors.As(err, &re) || !bytes.Equal(errorPayload(re.Code, re.Msg), e1) {
				t.Fatalf("error frame %x re-encodes to %x, which decodes to %v", x, e1, err)
			}
		}
	})
}

// encodeResponse is a response's whole payload, a log chunk's data
// included.
func encodeResponse(r response) ([]byte, error) {
	p, err := r.encode()
	return append(p, r.data...), err
}

func fixedPoint[M any](t *testing.T, x []byte, m M, encode func(M) ([]byte, error), decode func([]byte) (M, error)) {
	t.Helper()
	e1, err := encode(m)
	if err != nil {
		t.Fatalf("%x decodes but does not re-encode: %v", x, err)
	}
	m2, err := decode(e1)
	if err != nil {
		t.Fatalf("%x re-encodes to %x, which does not decode: %v", x, e1, err)
	}
	e2, err := encode(m2)
	if err != nil || !bytes.Equal(e1, e2) {
		t.Fatalf("%x: re-encoding is no fixed point:\n  e1 %x\n  e2 %x (%v)", x, e1, e2, err)
	}
}
