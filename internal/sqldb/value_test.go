package sqldb

import (
	"encoding/binary"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// refCell is a cell in the explicit layout value replaced — a kind flag
// per kind beside both payloads — and refCompare is valueCompare written
// over it: numeric when both are integers, else textual on rendered
// forms.
type refCell struct {
	null, isInt bool
	i           int64
	s           string
}

func (c refCell) render() string {
	if c.isInt {
		return strconv.FormatInt(c.i, 10)
	}
	return c.s
}

// refOf is v's refCell, read through the accessors. It is comparable,
// and reflect.DeepEqual compares it by content, so the test oracles
// that compare cells (dumpEngine, canonicalBuckets, refResult) compare
// these: a value holds its text by pointer, which == cannot take and
// DeepEqual reads only the first byte of.
func refOf(v value) refCell {
	return refCell{null: v.isNull(), isInt: v.isInt(), i: v.num(), s: v.text()}
}

// refRow is refOf over a row.
func refRow(row []value) []refCell {
	out := make([]refCell, len(row))
	for i, v := range row {
		out[i] = refOf(v)
	}
	return out
}

// refResult is a rawResult with its cells as refCells, for
// reflect.DeepEqual: the columns, the projection and every stored row.
type refResult struct {
	cols []string
	pos  []int
	rows [][]refCell
}

func refResultOf(r *rawResult) refResult {
	out := refResult{cols: r.cols, pos: r.pos}
	for _, row := range r.rows {
		out.rows = append(out.rows, refRow(row))
	}
	return out
}

func refCompare(a, b refCell) int {
	if a.isInt && b.isInt {
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	}
	return strings.Compare(a.render(), b.render())
}

// refWAL is c's WAL encoding written over the explicit layout: 'N' for
// NULL, 'I' and a zigzag varint for INT, 'T', a uvarint length and the
// bytes for TEXT.
func refWAL(c refCell) string {
	switch {
	case c.null:
		return "N"
	case c.isInt:
		return string(binary.AppendVarint([]byte("I"), c.i))
	}
	return string(binary.AppendUvarint([]byte("T"), uint64(len(c.s)))) + c.s
}

// refValue builds the cell c describes through the constructors.
func refValue(c refCell) value {
	switch {
	case c.null:
		return nullValue()
	case c.isInt:
		return intValue(c.i)
	}
	return textValue(c.s)
}

// valueCases are the values most likely to collide in a cell's encoding,
// with their WAL bytes: the empty and NUL texts, the two texts that were
// the INT and NULL marks of the 24-byte layout, the text "0", integer 0
// and both integer extremes, and NULL.
var valueCases = []struct {
	ref refCell
	wal string
}{
	{refCell{s: ""}, "T\x00"},
	{refCell{s: "\x00"}, "T\x01\x00"},
	{refCell{s: "\x00\xffI"}, "T\x03\x00\xffI"},
	{refCell{s: "\x00\xffN"}, "T\x03\x00\xffN"},
	{refCell{s: "0"}, "T\x010"},
	{refCell{isInt: true, i: 0}, "I\x00"},
	{refCell{isInt: true, i: math.MinInt64}, "I\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
	{refCell{isInt: true, i: math.MaxInt64}, "I\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
	{refCell{null: true}, "N"},
}

// checkCell checks the four properties of the cell c describes: it
// round-trips through its constructor and the accessors; eq on it and
// each of others agrees with equality of their refCells, for a copy of
// its text at another address too; valueCompare (valueLess when either
// is NULL) orders it against each as refCompare does; and it encodes to
// refWAL's bytes, in a row-ops payload as long as opsLen says, which
// decode back to an equal cell.
func checkCell(t *testing.T, c refCell, others []refCell) {
	t.Helper()
	v := refValue(c)
	if v.isNull() != c.null || v.isInt() != c.isInt {
		t.Errorf("%+v: kind (null %v, int %v)", c, v.isNull(), v.isInt())
	}
	if v.num() != c.i || v.text() != c.s || refOf(v) != c {
		t.Errorf("%+v: accessors give (%d, %q)", c, v.num(), v.text())
	}
	want := c.render()
	if c.null {
		want = "NULL"
	}
	if v.String() != want {
		t.Errorf("%+v: String() = %q, want %q", c, v.String(), want)
	}
	if !v.eq(v) || !v.eq(refValue(refCell{null: c.null, isInt: c.isInt, i: c.i, s: strings.Clone(c.s)})) {
		t.Errorf("%+v: not eq to itself or a copy", c)
	}
	if got := string(appendValue(nil, v)); got != refWAL(c) {
		t.Errorf("%+v: appendValue = %q, want %q", c, got, refWAL(c))
	}
	r := &replayer{engine: NewEngine()}
	row := []rowOp{{kind: opInsert, table: "t", id: 1, vals: []value{v}}}
	payload := opsPayload(row, nil, nil)
	if n := opsLen(row, nil, nil); len(payload) != n {
		t.Errorf("%+v: payload of %d bytes, opsLen says %d", c, len(payload), n)
	}
	ops, err := r.decodeOps(payload)
	if err != nil || len(ops) != 1 || len(ops[0].vals) != 1 || !ops[0].vals[0].eq(v) || refOf(ops[0].vals[0]) != c {
		t.Errorf("%+v: WAL round trip gives %v (%v)", c, ops, err)
	}
	for _, d := range others {
		w := refValue(d)
		if v.eq(w) != (c == d) || w.eq(v) != (c == d) {
			t.Errorf("%+v eq %+v is %v", c, d, v.eq(w))
		}
		if c.null || d.null {
			if got, want := valueLess(v, w), c.null && !d.null; got != want {
				t.Errorf("valueLess(%+v, %+v) = %v, want %v", c, d, got, want)
			}
			continue
		}
		if got, want := valueCompare(v, w), refCompare(c, d); got != want {
			t.Errorf("valueCompare(%+v, %+v) = %d, want %d", c, d, got, want)
		}
	}
}

// TestValueEncoding pins the 16-byte encoding of a cell on valueCases:
// each case passes checkCell against every case, and encodes to the
// case's own WAL bytes. The zero value is the empty text, also when the
// empty text is a substring inside a longer one.
func TestValueEncoding(t *testing.T) {
	if size, want := unsafe.Sizeof(value{}), unsafe.Sizeof(uintptr(0))+8; size != want {
		t.Fatalf("value is %d bytes, want %d", size, want)
	}
	if v := textValue(strings.Repeat("ab", 2)[1:1]); v.p != nil || v.n != 0 || !v.eq(value{}) {
		t.Fatal("the empty text is not the zero value")
	}
	var refs []refCell
	for _, c := range valueCases {
		refs = append(refs, c.ref)
	}
	for _, c := range valueCases {
		if got := refWAL(c.ref); got != c.wal {
			t.Errorf("%+v: refWAL = %q, want %q", c.ref, got, c.wal)
		}
		checkCell(t, c.ref, refs)
	}
}

// FuzzValueCell runs checkCell on a cell of any kind and content —
// kind%3 picks TEXT, INT or NULL, and the other inputs fill the payload
// the kind has — against itself and every one of valueCases, which also
// seed it.
func FuzzValueCell(f *testing.F) {
	var refs []refCell
	for _, c := range valueCases {
		refs = append(refs, c.ref)
		switch {
		case c.ref.null:
			f.Add(uint8(2), int64(0), "")
		case c.ref.isInt:
			f.Add(uint8(1), c.ref.i, "")
		default:
			f.Add(uint8(0), int64(0), c.ref.s)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, n int64, s string) {
		var c refCell
		switch kind % 3 {
		case 0:
			c.s = s
		case 1:
			c.isInt, c.i = true, n
		default:
			c.null = true
		}
		checkCell(t, c, append(slices.Clip(refs), c))
	})
}
