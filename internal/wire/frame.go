// Package wire is RESIN's client/server protocol: a framed, checksummed
// request/response stream that carries query text, bound arguments, and
// result rows *with their policy annotations*, so a tracked value that
// crosses the network arrives byte-identical — raw bytes and interned
// policy set — to what an in-process query would have returned. The
// normative format lives in docs/WIRE.md; the serialization of policy
// sets is core.EncodeSpans/DecodeSpans, the same canonical encoding the
// SQL shadow columns and the WAL use, pinned by
// TestWireAnnotationIsEncodeSpans.
//
// The same framing carries the replication stream: a primary ships raw
// WAL record bytes to follower processes (sqldb ship.go), which replay
// them continuously and serve read-only queries at their applied
// frontier.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"resin/internal/sqldb"
)

// Protocol constants. The frame discipline is the WAL's record
// discipline applied to a socket: length, then CRC-32 (IEEE) of the
// payload, then the payload — a corrupted or truncated frame is
// detected before any byte of it is interpreted.
const (
	// Magic opens every connection, sent by the client and echoed by
	// the server, followed by one version byte each way.
	Magic   = "RESINNET"
	Version = 0x01

	frameHeaderSize = 8

	// MaxFrame bounds one frame's payload, enforced symmetrically on
	// encode and decode — exactly the WAL's walMaxRecord rule, and
	// pinned to the same value (TestMaxFrameMatchesWAL): a result or
	// log chunk that fits in the log fits on the wire, and neither
	// side can acknowledge bytes the other must then discard. Without
	// the send-side check an oversized result would be "sent" and then
	// kill the connection at the receiver instead of failing the one
	// request.
	MaxFrame = sqldb.WALMaxRecord
)

// ErrFrameTooLarge rejects a single frame exceeding MaxFrame, on either
// side of the socket; the request fails, the connection survives.
var ErrFrameTooLarge = errors.New("wire: frame exceeds the maximum frame size")

// ErrFrameCorrupt reports a checksum mismatch or malformed framing; the
// stream cannot be resynchronized and the connection must be dropped.
var ErrFrameCorrupt = errors.New("wire: corrupt frame")

// ErrBadPreamble reports a peer that did not open with Magic+Version.
var ErrBadPreamble = errors.New("wire: bad protocol preamble")

// writeFrame frames payload onto w: uint32 LE length, uint32 LE CRC-32
// (IEEE) of the payload, payload bytes, as one Write.
func writeFrame(w io.Writer, payload []byte) error { return writeFrameBody(w, payload, nil) }

// writeFrameBody frames the payload head+body onto w. head is copied
// behind the frame header; a non-empty body — a shipped log chunk — is
// not copied but follows in the same vectored write, its CRC continued
// from head's.
func writeFrameBody(w io.Writer, head, body []byte) error {
	n := len(head) + len(body)
	if n > MaxFrame {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	buf := make([]byte, frameHeaderSize+len(head))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, body))
	copy(buf[frameHeaderSize:], head)
	if len(body) == 0 {
		_, err := w.Write(buf)
		return err
	}
	bufs := net.Buffers{buf, body}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame's payload from r, verifying length bound
// and checksum before returning a byte of it.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if ln == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrFrameCorrupt)
	}
	if int(ln) > MaxFrame {
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, ln)
	}
	payload := make([]byte, ln)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return payload, nil
}

// sendPreamble writes this side's Magic+Version.
func sendPreamble(w io.Writer) error {
	buf := append([]byte(Magic), Version)
	_, err := w.Write(buf)
	return err
}

// expectPreamble reads and verifies the peer's Magic+Version.
func expectPreamble(r io.Reader) error {
	buf := make([]byte, len(Magic)+1)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPreamble, err)
	}
	if string(buf[:len(Magic)]) != Magic {
		return fmt.Errorf("%w: bad magic", ErrBadPreamble)
	}
	if buf[len(Magic)] != Version {
		return fmt.Errorf("%w: version %d (want %d)", ErrBadPreamble, buf[len(Magic)], Version)
	}
	return nil
}
