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
	}
	return codeGeneric
}

// errorPayload frames an error message.
func errorPayload(code byte, msg string) []byte {
	p := []byte{msgError, code}
	p = binary.AppendUvarint(p, uint64(len(msg)))
	return append(p, msg...)
}

// decoder walks one message payload.
type decoder struct {
	data []byte
	off  int
}

var errTruncated = fmt.Errorf("%w: truncated message", ErrFrameCorrupt)

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.off += n
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.data) {
		return 0, errTruncated
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.data)-d.off) {
		return nil, errTruncated
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *decoder) done() error {
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrameCorrupt, len(d.data)-d.off)
	}
	return nil
}

// Tracked-value codec. THE serialization of a tracked string is its raw
// bytes plus the core.EncodeSpans annotation — the same canonical bytes
// the SQL shadow columns persist, so policy identity cannot drift
// between the in-process and network paths. A tracked integer rides as
// its value plus the annotation of its digit string (ToString renders
// the digits carrying the integer's whole-value policy set).

// appendTracked encodes a tracked string: uvarint raw length + raw
// bytes, uvarint annotation length + annotation bytes (empty when
// untainted).
func appendTracked(p []byte, s core.String) ([]byte, error) {
	ann, err := core.EncodeSpans(s)
	if err != nil {
		return nil, fmt.Errorf("wire: encode policy spans: %w", err)
	}
	if len(ann) > 0 {
		core.LineageRecordValue(s, "wire-send", "wire.frame")
	}
	p = binary.AppendUvarint(p, uint64(len(s.Raw())))
	p = append(p, s.Raw()...)
	p = binary.AppendUvarint(p, uint64(len(ann)))
	return append(p, ann...), nil
}

// readTracked decodes a tracked string, re-interning its policy sets.
func (d *decoder) readTracked() (core.String, error) {
	raw, err := d.bytes()
	if err != nil {
		return core.String{}, err
	}
	ann, err := d.bytes()
	if err != nil {
		return core.String{}, err
	}
	if len(ann) == 0 {
		return core.NewString(string(raw)), nil
	}
	s, err := core.DecodeSpans(string(raw), ann)
	if err != nil {
		return core.String{}, fmt.Errorf("wire: decode policy spans: %w", err)
	}
	core.LineageRecordValue(s, "wire-recv", "wire.frame")
	return s, nil
}

// Argument codec. Each argument is uvarint name length + name bytes
// (length 0 = positional), then a value: 'N' NULL, 'I' zigzag-varint +
// tracked digit annotation, 'T' tracked string.
const (
	valNull = 'N'
	valInt  = 'I'
	valText = 'T'
)

// appendArg encodes one bound argument. Plain Go values are normalized
// to tracked (untainted) values client-side, so the server sees one
// representation.
func appendArg(p []byte, a any) ([]byte, error) {
	name := ""
	if na, ok := a.(sqldb.NamedArg); ok {
		name = na.Name
		a = na.Value
	}
	p = binary.AppendUvarint(p, uint64(len(name)))
	p = append(p, name...)
	switch v := a.(type) {
	case nil:
		return append(p, valNull), nil
	case core.String:
		p = append(p, valText)
		return appendTracked(p, v)
	case core.Int:
		p = append(p, valInt)
		p = binary.AppendVarint(p, v.Value())
		ann, err := core.EncodeSpans(v.ToString())
		if err != nil {
			return nil, fmt.Errorf("wire: encode policy spans: %w", err)
		}
		if len(ann) > 0 {
			core.LineageRecord(v.Policies(), "wire-send", "wire.frame")
		}
		p = binary.AppendUvarint(p, uint64(len(ann)))
		return append(p, ann...), nil
	case string:
		p = append(p, valText)
		return appendTracked(p, core.NewString(v))
	case []byte:
		p = append(p, valText)
		return appendTracked(p, core.NewString(string(v)))
	case int:
		return appendArg0Int(p, int64(v)), nil
	case int64:
		return appendArg0Int(p, v), nil
	case int32:
		return appendArg0Int(p, int64(v)), nil
	case int16:
		return appendArg0Int(p, int64(v)), nil
	case int8:
		return appendArg0Int(p, int64(v)), nil
	case uint8:
		return appendArg0Int(p, int64(v)), nil
	case uint16:
		return appendArg0Int(p, int64(v)), nil
	case uint32:
		return appendArg0Int(p, int64(v)), nil
	case bool:
		if v {
			return appendArg0Int(p, 1), nil
		}
		return appendArg0Int(p, 0), nil
	default:
		return nil, fmt.Errorf("wire: cannot bind %T (want core.String, core.Int, string, []byte, integer, bool, or nil)", a)
	}
}

func appendArg0Int(p []byte, v int64) []byte {
	p = append(p, valInt)
	p = binary.AppendVarint(p, v)
	return binary.AppendUvarint(p, 0)
}

// readArg decodes one bound argument into the value the sqldb layer
// binds: nil, core.String, core.Int, or sqldb.NamedArg wrapping one.
func (d *decoder) readArg() (any, error) {
	nameB, err := d.bytes()
	if err != nil {
		return nil, err
	}
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	var v any
	switch tag {
	case valNull:
		v = nil
	case valText:
		s, err := d.readTracked()
		if err != nil {
			return nil, err
		}
		v = s
	case valInt:
		n, err := d.varint()
		if err != nil {
			return nil, err
		}
		ann, err := d.bytes()
		if err != nil {
			return nil, err
		}
		iv, err := decodeInt(n, ann)
		if err != nil {
			return nil, err
		}
		v = iv
	default:
		return nil, fmt.Errorf("%w: unknown value tag 0x%02x", ErrFrameCorrupt, tag)
	}
	if len(nameB) > 0 {
		return sqldb.Named(string(nameB), v), nil
	}
	return v, nil
}

// decodeInt rebuilds a tracked integer from its value and digit-string
// annotation, the same way the SQL filter's makeCell does: the decoded
// digits' policy set becomes the integer's whole-value set.
func decodeInt(n int64, ann []byte) (core.Int, error) {
	iv := core.NewInt(n)
	if len(ann) == 0 {
		return iv, nil
	}
	s, err := core.DecodeSpans(iv.ToString().Raw(), ann)
	if err != nil {
		return core.Int{}, fmt.Errorf("wire: decode policy spans: %w", err)
	}
	out := iv.WithPolicy(s.Policies().Policies()...)
	core.LineageRecord(out.Policies(), "wire-recv", "wire.frame")
	return out, nil
}

// appendArgs encodes a bound-argument list.
func appendArgs(p []byte, args []any) ([]byte, error) {
	p = binary.AppendUvarint(p, uint64(len(args)))
	var err error
	for _, a := range args {
		if p, err = appendArg(p, a); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// readArgs decodes a bound-argument list.
func (d *decoder) readArgs() ([]any, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.data)) { // each arg is ≥ 2 bytes; cheap sanity bound
		return nil, fmt.Errorf("%w: argument count %d exceeds payload", ErrFrameCorrupt, n)
	}
	args := make([]any, 0, n)
	for i := uint64(0); i < n; i++ {
		a, err := d.readArg()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return args, nil
}

// Result codec: affected count, column names, then rows of cells. A
// cell is 'N', or 'I' + zigzag varint + digit annotation, or 'T' +
// tracked string — annotations byte-identical to what EncodeSpans
// produced from the in-process result cells.

// resultPayload encodes a query result.
func resultPayload(res *sqldb.Result) ([]byte, error) {
	p := []byte{msgResult}
	p = binary.AppendUvarint(p, uint64(res.Affected))
	p = binary.AppendUvarint(p, uint64(len(res.Columns)))
	for _, c := range res.Columns {
		p = binary.AppendUvarint(p, uint64(len(c)))
		p = append(p, c...)
	}
	p = binary.AppendUvarint(p, uint64(len(res.Rows)))
	var err error
	for _, row := range res.Rows {
		for _, cell := range row {
			switch {
			case cell.Null:
				p = append(p, valNull)
			case cell.IsInt:
				p = append(p, valInt)
				p = binary.AppendVarint(p, cell.Int.Value())
				var ann []byte
				if ann, err = core.EncodeSpans(cell.Int.ToString()); err != nil {
					return nil, fmt.Errorf("wire: encode policy spans: %w", err)
				}
				if len(ann) > 0 {
					core.LineageRecord(cell.Int.Policies(), "wire-send", "wire.frame")
				}
				p = binary.AppendUvarint(p, uint64(len(ann)))
				p = append(p, ann...)
			default:
				p = append(p, valText)
				if p, err = appendTracked(p, cell.Str); err != nil {
					return nil, err
				}
			}
		}
	}
	return p, nil
}

// readResult decodes a query result (the bytes after the 'r' tag).
func (d *decoder) readResult() (*sqldb.Result, error) {
	affected, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	ncols, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ncols > uint64(len(d.data)) {
		return nil, fmt.Errorf("%w: column count %d exceeds payload", ErrFrameCorrupt, ncols)
	}
	cols := make([]string, 0, ncols)
	for i := uint64(0); i < ncols; i++ {
		b, err := d.bytes()
		if err != nil {
			return nil, err
		}
		cols = append(cols, string(b))
	}
	nrows, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ncols > 0 && nrows > uint64(len(d.data))/ncols {
		return nil, fmt.Errorf("%w: row count %d exceeds payload", ErrFrameCorrupt, nrows)
	}
	rows := make([][]sqldb.Cell, 0, nrows)
	for r := uint64(0); r < nrows; r++ {
		row := make([]sqldb.Cell, ncols)
		for c := uint64(0); c < ncols; c++ {
			tag, err := d.byte()
			if err != nil {
				return nil, err
			}
			switch tag {
			case valNull:
				row[c] = sqldb.Cell{Null: true}
			case valInt:
				n, err := d.varint()
				if err != nil {
					return nil, err
				}
				ann, err := d.bytes()
				if err != nil {
					return nil, err
				}
				iv, err := decodeInt(n, ann)
				if err != nil {
					return nil, err
				}
				row[c] = sqldb.Cell{IsInt: true, Int: iv}
			case valText:
				s, err := d.readTracked()
				if err != nil {
					return nil, err
				}
				row[c] = sqldb.Cell{Str: s}
			default:
				return nil, fmt.Errorf("%w: unknown cell tag 0x%02x", ErrFrameCorrupt, tag)
			}
		}
		rows = append(rows, row)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &sqldb.Result{Columns: cols, Rows: rows, Affected: int(affected)}, nil
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

func statusPayload(st Status) []byte {
	role := byte('P')
	if st.Role == "follower" {
		role = 'F'
	}
	p := []byte{msgStatusReply, role}
	p = binary.AppendUvarint(p, st.Frontier)
	p = binary.AppendUvarint(p, st.Epoch)
	p = binary.AppendUvarint(p, uint64(st.WALSize))
	p = binary.AppendUvarint(p, uint64(st.Applied))
	p = binary.AppendUvarint(p, uint64(st.Received))
	p = binary.AppendUvarint(p, uint64(st.PrimarySize))
	return p
}

func (d *decoder) readStatus() (Status, error) {
	var st Status
	role, err := d.byte()
	if err != nil {
		return st, err
	}
	if role == 'F' {
		st.Role = "follower"
	} else {
		st.Role = "primary"
	}
	fields := []*uint64{&st.Frontier, &st.Epoch}
	for _, f := range fields {
		if *f, err = d.uvarint(); err != nil {
			return st, err
		}
	}
	ints := []*int64{&st.WALSize, &st.Applied, &st.Received, &st.PrimarySize}
	for _, f := range ints {
		v, err := d.uvarint()
		if err != nil {
			return st, err
		}
		*f = int64(v)
	}
	return st, d.done()
}
