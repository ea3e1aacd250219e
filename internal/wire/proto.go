package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// Message tags. A payload is one tag byte followed by the body
// documented in docs/WIRE.md §2–§3.
const (
	// client → server
	msgQuery     = 'Q' // tracked query text + args: one-shot execute
	msgPrepare   = 'P' // tracked query text → msgPrepared
	msgExec      = 'E' // stmt id + args: execute a prepared statement
	msgCloseStmt = 'X' // stmt id: release a prepared statement
	msgBegin     = 'B' // open the connection's transaction
	msgCommit    = 'C' // commit it
	msgRollback  = 'R' // roll it back
	msgStatus    = 'S' // → msgStatusReply
	msgHandshake = 'W' // follower position (size + CRC) → msgShipAccept

	// server → client
	msgResult      = 'r' // affected + columns + rows with annotations
	msgError       = 'e' // code byte + message text
	msgPrepared    = 'p' // stmt id + placeholder count
	msgAck         = 'k' // success with no result (tx ops, close)
	msgStatusReply = 's' // role + frontier + log position
	msgShipAccept  = 'w' // epoch + primary log size; 'L' chunks follow
	msgLogChunk    = 'L' // offset + epoch + primary size + raw log bytes
)

// Error codes carried by msgError. The code survives the wire so
// clients can errors.Is against the matching sentinel instead of
// string-matching messages.
const (
	codeGeneric    = 0x01
	codeReadOnly   = 0x02
	codeBehind     = 0x03
	codeDiverged   = 0x04
	codeTooLarge   = 0x05
	codeDraining   = 0x06
	codeBadRequest = 0x07
)

// Typed error sentinels, matched by errors.Is on *RemoteError.
var (
	// ErrReadOnlyReplica rejects writes (and transactions) on a
	// follower: replicas serve reads at their applied frontier only.
	ErrReadOnlyReplica = errors.New("wire: replica is read-only")
	// ErrBehind is the resumable replication mismatch: the stream needs
	// to restart from the follower's actual received offset.
	ErrBehind = errors.New("wire: follower is behind the shipped offset")
	// ErrDiverged is the non-resumable replication mismatch: the
	// follower's log is not a byte prefix of the primary's (it forked,
	// or the primary compacted) and it must resync from scratch.
	ErrDiverged = errors.New("wire: follower log diverged from the primary")
	// ErrDraining rejects new requests while the server shuts down.
	ErrDraining = errors.New("wire: server is draining")
)

// errUnknownRequest refuses a request tag the server does not know.
var errUnknownRequest = errors.New("wire: unknown request")

// RemoteError is a server-reported failure, carrying the wire error
// code and the server's message.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string { return "wire: server error: " + e.Msg }

// Is maps wire error codes to their sentinels (and ErrFrameTooLarge to
// the oversize code), so errors.Is works across the connection.
func (e *RemoteError) Is(target error) bool {
	switch target {
	case ErrReadOnlyReplica:
		return e.Code == codeReadOnly
	case ErrBehind:
		return e.Code == codeBehind
	case ErrDiverged:
		return e.Code == codeDiverged
	case ErrFrameTooLarge:
		return e.Code == codeTooLarge
	case ErrDraining:
		return e.Code == codeDraining
	}
	return false
}

// errCode classifies a server-side error for the wire.
func errCode(err error) byte {
	switch {
	case errors.Is(err, ErrReadOnlyReplica):
		return codeReadOnly
	case errors.Is(err, sqldb.ErrShipBehind) || errors.Is(err, ErrBehind):
		return codeBehind
	case errors.Is(err, sqldb.ErrShipDiverged) || errors.Is(err, ErrDiverged):
		return codeDiverged
	case errors.Is(err, ErrFrameTooLarge):
		return codeTooLarge
	case errors.Is(err, ErrDraining):
		return codeDraining
	case errors.Is(err, errUnknownRequest):
		return codeBadRequest
	}
	return codeGeneric
}

// errorPayload frames an error message.
func errorPayload(code byte, msg string) []byte {
	p := []byte{msgError, code}
	p = binary.AppendUvarint(p, uint64(len(msg)))
	return append(p, msg...)
}

// decoder walks one message payload. It keeps the first error it meets,
// as bufio.Scanner does, and every read after it returns a zero value:
// a message decodes as straight-line reads and one closing end().
type decoder struct {
	data []byte
	off  int
	err  error
}

var errTruncated = fmt.Errorf("%w: truncated message", ErrFrameCorrupt)

// fail keeps err if it is the first, and ends the payload so that every
// later read comes back zero.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.data)
}

// end returns the kept error, or ErrFrameCorrupt if bytes follow the
// message's last field (docs/WIRE.md §2).
func (d *decoder) end() error {
	if d.err == nil && d.off != len(d.data) {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrFrameCorrupt, len(d.data)-d.off)
	}
	return d.err
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.off >= len(d.data) {
		d.fail(errTruncated)
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *decoder) uint32() uint32 {
	if len(d.data)-d.off < 4 {
		d.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.data)-d.off) {
		d.fail(errTruncated)
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// count reads an element count and refuses one the bytes left cannot
// hold, each element taking at least size bytes. An element of size 0
// cannot repeat: a result without columns has no rows, as sqldb
// produces none.
func (d *decoder) count(what string, size uint64) int {
	n := d.uvarint()
	if n > 0 && (size == 0 || n > uint64(len(d.data)-d.off)/size) {
		d.fail(fmt.Errorf("%w: %s count %d exceeds payload", ErrFrameCorrupt, what, n))
		return 0
	}
	return int(n)
}

// Tracked-value codec. THE serialization of a tracked string is its raw
// bytes plus the core.EncodeSpans annotation — the same canonical bytes
// the SQL shadow columns persist, so policy identity cannot drift
// between the in-process and network paths. A tracked integer rides as
// its value plus the annotation of its digit string (ToString renders
// the digits carrying the integer's whole-value policy set).

// appendTracked encodes a tracked string: uvarint raw length + raw
// bytes, then its annotation (appendAnn).
func appendTracked(p []byte, s core.String) ([]byte, error) {
	p = binary.AppendUvarint(p, uint64(len(s.Raw())))
	return appendAnn(append(p, s.Raw()...), s)
}

// appendAnn encodes s's annotation: uvarint length + annotation bytes
// (empty when untainted). The annotation is encoded straight into p and
// then moved up past its length, once that is known.
func appendAnn(p []byte, s core.String) ([]byte, error) {
	if !s.IsTainted() {
		return append(p, 0), nil
	}
	at := len(p)
	p, err := core.AppendSpans(p, s)
	if err != nil {
		return nil, fmt.Errorf("wire: encode policy spans: %w", err)
	}
	core.LineageRecordValue(s, "wire-send", "wire.frame")
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(len(p)-at))
	p = append(p, hdr[:k]...)
	copy(p[at+k:], p[at:len(p)-k])
	copy(p[at:], hdr[:k])
	return p, nil
}

// tracked decodes a tracked string, re-interning its policy sets.
func (d *decoder) tracked() core.String {
	raw, ann := d.bytes(), d.bytes()
	return d.spans(string(raw), ann)
}

// spans rebuilds raw with its annotation's policy sets.
func (d *decoder) spans(raw string, ann []byte) core.String {
	if len(ann) == 0 {
		return core.NewString(raw)
	}
	s, err := core.DecodeSpans(raw, ann)
	if err != nil {
		d.fail(fmt.Errorf("wire: decode policy spans: %w", err))
		return core.String{}
	}
	core.LineageRecordValue(s, "wire-recv", "wire.frame")
	return s
}

// Cell codec, shared by bound arguments and result cells: 'N' NULL, 'I'
// zigzag varint + the annotation of its digit string, 'T' tracked
// string — annotations byte-identical to what EncodeSpans produced from
// the in-process values.
const (
	valNull = 'N'
	valInt  = 'I'
	valText = 'T'
)

// appendCell encodes one value.
func appendCell(p []byte, c sqldb.Cell) ([]byte, error) {
	switch {
	case c.Null:
		return append(p, valNull), nil
	case c.IsInt:
		p = binary.AppendVarint(append(p, valInt), c.Int.Value())
		if c.Int.Policies().IsEmpty() {
			return append(p, 0), nil
		}
		return appendAnn(p, c.Int.ToString())
	default:
		return appendTracked(append(p, valText), c.Str)
	}
}

// cell decodes one value. An integer's decoded digit policies become its
// whole-value set, as the SQL filter's makeCell does.
func (d *decoder) cell() sqldb.Cell {
	switch tag := d.byte(); tag {
	case valNull:
		return sqldb.Cell{Null: true}
	case valInt:
		iv, ann := core.NewInt(d.varint()), d.bytes()
		if len(ann) > 0 {
			iv = iv.WithPolicy(d.spans(iv.ToString().Raw(), ann).Policies().Policies()...)
		}
		return sqldb.Cell{IsInt: true, Int: iv}
	case valText:
		return sqldb.Cell{Str: d.tracked()}
	default:
		d.fail(fmt.Errorf("%w: unknown value tag 0x%02x", ErrFrameCorrupt, tag))
		return sqldb.Cell{}
	}
}

// Argument codec. Each argument is uvarint name length + name bytes
// (length 0 = positional), then its cell.

// argCell normalizes a bound argument to the cell it travels as: plain
// Go values are untainted, so the server sees one representation.
func argCell(a any) (sqldb.Cell, error) {
	var n int64
	switch v := a.(type) {
	case nil:
		return sqldb.Cell{Null: true}, nil
	case core.String:
		return sqldb.Cell{Str: v}, nil
	case string:
		return sqldb.Cell{Str: core.NewString(v)}, nil
	case []byte:
		return sqldb.Cell{Str: core.NewString(string(v))}, nil
	case core.Int:
		return sqldb.Cell{IsInt: true, Int: v}, nil
	case int:
		n = int64(v)
	case int64:
		n = v
	case int32:
		n = int64(v)
	case int16:
		n = int64(v)
	case int8:
		n = int64(v)
	case uint8:
		n = int64(v)
	case uint16:
		n = int64(v)
	case uint32:
		n = int64(v)
	case bool:
		if v {
			n = 1
		}
	default:
		return sqldb.Cell{}, fmt.Errorf("wire: cannot bind %T (want core.String, core.Int, string, []byte, integer, bool, or nil)", a)
	}
	return sqldb.Cell{IsInt: true, Int: core.NewInt(n)}, nil
}

// appendArgs encodes a bound-argument list.
func appendArgs(p []byte, args []any) ([]byte, error) {
	p = binary.AppendUvarint(p, uint64(len(args)))
	for _, a := range args {
		name := ""
		if na, ok := a.(sqldb.NamedArg); ok {
			name, a = na.Name, na.Value
		}
		c, err := argCell(a)
		if err != nil {
			return nil, err
		}
		p = binary.AppendUvarint(p, uint64(len(name)))
		if p, err = appendCell(append(p, name...), c); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// args decodes a bound-argument list into the values the sqldb layer
// binds: nil, core.String, core.Int, or sqldb.NamedArg wrapping one.
func (d *decoder) args() []any {
	n := d.count("argument", 2) // a name length and a value tag at least
	args := make([]any, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.bytes()
		var v any
		switch c := d.cell(); {
		case c.IsInt:
			v = c.Int
		case !c.Null:
			v = c.Str
		}
		if len(name) > 0 {
			v = sqldb.Named(string(name), v)
		}
		args = append(args, v)
	}
	return args
}

// newPayload starts a payload with room for a short message, so that
// encoding one does not regrow the buffer through the smallest sizes.
func newPayload(tag byte) []byte { return append(make([]byte, 0, 64), tag) }

// request is one client → server message; which fields its tag uses is
// in docs/WIRE.md §2.
type request struct {
	tag  byte
	text core.String // Q, P: the query text
	args []any       // Q, E: bound arguments
	id   uint64      // E, X: the statement id; W: the follower's log size
	crc  uint32      // W: CRC-32 (IEEE) of that log prefix
}

// encode returns q's payload; it fails only on an argument it cannot
// bind or a policy EncodeSpans refuses.
func (q *request) encode() ([]byte, error) {
	p := newPayload(q.tag)
	switch q.tag {
	case msgQuery:
		p, err := appendTracked(p, q.text)
		if err != nil {
			return nil, err
		}
		return appendArgs(p, q.args)
	case msgPrepare:
		return appendTracked(p, q.text)
	case msgExec:
		return appendArgs(binary.AppendUvarint(p, q.id), q.args)
	case msgCloseStmt:
		return binary.AppendUvarint(p, q.id), nil
	case msgHandshake:
		return binary.LittleEndian.AppendUint32(binary.AppendUvarint(p, q.id), q.crc), nil
	}
	return p, nil
}

// decodeRequest decodes one request whole: it ends where its last field
// does, or it fails before anything runs.
func decodeRequest(p []byte) (request, error) {
	d := decoder{data: p}
	q := request{tag: d.byte()}
	switch q.tag {
	case msgQuery:
		q.text, q.args = d.tracked(), d.args()
	case msgPrepare:
		q.text = d.tracked()
	case msgExec:
		q.id, q.args = d.uvarint(), d.args()
	case msgCloseStmt:
		q.id = d.uvarint()
	case msgHandshake:
		q.id, q.crc = d.uvarint(), d.uint32()
	case msgBegin, msgCommit, msgRollback, msgStatus:
	default:
		return request{}, fmt.Errorf("%w 0x%02x", errUnknownRequest, q.tag)
	}
	if err := d.end(); err != nil {
		return request{}, err
	}
	return q, nil
}

// Status is a server's replication position, from Conn.Status.
type Status struct {
	// Role is "primary" or "follower".
	Role string
	// Frontier is the engine's applied commit version.
	Frontier uint64
	// Epoch and WALSize describe the server's own log.
	Epoch   uint64
	WALSize int64
	// Applied and Received are the follower's shipping offsets into the
	// primary's log (equal to WALSize on a primary). PrimarySize is the
	// follower's last-observed primary log size (its staleness bound:
	// PrimarySize - Applied bytes behind); equal to WALSize on a
	// primary.
	Applied     int64
	Received    int64
	PrimarySize int64
}

// response is one server → client message other than an error frame;
// which fields its tag uses is in docs/WIRE.md §2.
type response struct {
	tag       byte
	result    *sqldb.Result // r
	status    Status        // s
	id, nargs uint64        // p: the statement id and its placeholder count
	off       uint64        // L: the chunk's offset in the primary's log
	epoch     uint64        // w, L: the primary's log epoch
	size      uint64        // w, L: the primary's log size
	data      []byte        // L: the log bytes
}

// encode returns r's payload. A result fails only on a policy
// EncodeSpans refuses. A log chunk's payload ends with its data's
// length; the data follows it uncopied (sendChunk).
func (r *response) encode() ([]byte, error) {
	p := newPayload(r.tag)
	switch r.tag {
	case msgResult:
		res := r.result
		p = binary.AppendUvarint(p, uint64(res.Affected))
		p = binary.AppendUvarint(p, uint64(len(res.Columns)))
		for _, c := range res.Columns {
			p = binary.AppendUvarint(p, uint64(len(c)))
			p = append(p, c...)
		}
		p = binary.AppendUvarint(p, uint64(len(res.Rows)))
		var err error
		for _, row := range res.Rows {
			for _, c := range row {
				if p, err = appendCell(p, c); err != nil {
					return nil, err
				}
			}
		}
	case msgPrepared:
		p = binary.AppendUvarint(binary.AppendUvarint(p, r.id), r.nargs)
	case msgStatusReply:
		role := byte('P')
		if r.status.Role == "follower" {
			role = 'F'
		}
		p = append(p, role)
		for _, v := range [...]uint64{r.status.Frontier, r.status.Epoch, uint64(r.status.WALSize),
			uint64(r.status.Applied), uint64(r.status.Received), uint64(r.status.PrimarySize)} {
			p = binary.AppendUvarint(p, v)
		}
	case msgShipAccept:
		p = binary.AppendUvarint(binary.AppendUvarint(p, r.epoch), r.size)
	case msgLogChunk:
		for _, v := range [...]uint64{r.off, r.epoch, r.size, uint64(len(r.data))} {
			p = binary.AppendUvarint(p, v)
		}
	}
	return p, nil
}

// decodeResponse decodes one response whole, to its last field. An
// error frame returns as its *RemoteError.
func decodeResponse(p []byte) (response, error) {
	d := decoder{data: p}
	r := response{tag: d.byte()}
	var remote *RemoteError
	switch r.tag {
	case msgResult:
		r.result = d.result()
	case msgPrepared:
		r.id, r.nargs = d.uvarint(), d.uvarint()
	case msgStatusReply:
		st := &r.status
		st.Role = "primary"
		if d.byte() == 'F' {
			st.Role = "follower"
		}
		st.Frontier, st.Epoch = d.uvarint(), d.uvarint()
		st.WALSize, st.Applied = int64(d.uvarint()), int64(d.uvarint())
		st.Received, st.PrimarySize = int64(d.uvarint()), int64(d.uvarint())
	case msgShipAccept:
		r.epoch, r.size = d.uvarint(), d.uvarint()
	case msgLogChunk:
		r.off, r.epoch, r.size, r.data = d.uvarint(), d.uvarint(), d.uvarint(), d.bytes()
	case msgError:
		remote = &RemoteError{Code: d.byte(), Msg: string(d.bytes())}
	case msgAck:
	default:
		d.fail(fmt.Errorf("%w: unknown response 0x%02x", ErrFrameCorrupt, r.tag))
	}
	if err := d.end(); err != nil {
		return response{}, err
	}
	if remote != nil {
		return response{}, remote
	}
	return r, nil
}

// result decodes a query result: affected count, column names, then
// rows of cells.
func (d *decoder) result() *sqldb.Result {
	res := &sqldb.Result{Affected: int(d.uvarint())}
	ncols := d.count("column", 1) // a name length at least
	res.Columns = make([]string, 0, ncols)
	for i := 0; i < ncols && d.err == nil; i++ {
		res.Columns = append(res.Columns, string(d.bytes()))
	}
	nrows := d.count("row", uint64(ncols)) // a value tag per cell at least
	res.Rows = make([][]sqldb.Cell, 0, nrows)
	for i := 0; i < nrows && d.err == nil; i++ {
		row := make([]sqldb.Cell, ncols)
		for c := range row {
			row[c] = d.cell()
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// want fails a decoded response whose tag is not tag.
func (r *response) want(tag byte) error {
	if r.tag != tag {
		return fmt.Errorf("%w: unexpected response 0x%02x (want 0x%02x)", ErrFrameCorrupt, r.tag, tag)
	}
	return nil
}
