package sqldb

import (
	"math"
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

// TestValueEncoding pins the 24-byte encoding of a cell on the values
// most likely to collide in it: the empty and NUL texts, texts spelling
// the kind marks, integer 0 and both integer extremes, and NULL. Each
// must round-trip through its constructor and the accessors, stay
// distinct from every other under ==, keep valueCompare's order, and
// encode to the same WAL bytes as the explicit layout, in a row-ops
// payload as long as opsLen says, which decode back to an equal value.
func TestValueEncoding(t *testing.T) {
	if size := unsafe.Sizeof(value{}); size != 24 {
		t.Fatalf("value is %d bytes, want 24", size)
	}
	if (value{}) != textValue("") {
		t.Fatal("the zero value is not the empty text")
	}
	cases := []struct {
		ref refCell
		wal string
	}{
		{refCell{s: ""}, "T\x00"},
		{refCell{s: "\x00"}, "T\x01\x00"},
		{refCell{s: intMark}, "T\x03" + intMark},
		{refCell{s: nullMark}, "T\x03" + nullMark},
		{refCell{s: "0"}, "T\x010"},
		{refCell{isInt: true, i: 0}, "I\x00"},
		{refCell{isInt: true, i: math.MinInt64}, "I\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
		{refCell{isInt: true, i: math.MaxInt64}, "I\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
		{refCell{null: true}, "N"},
	}
	cell := func(c refCell) value {
		switch {
		case c.null:
			return nullValue()
		case c.isInt:
			return intValue(c.i)
		}
		return textValue(c.s)
	}
	for i, c := range cases {
		v := cell(c.ref)
		if v.isNull() != c.ref.null || v.isInt() != c.ref.isInt {
			t.Errorf("case %d: kind (null %v, int %v), want (%v, %v)", i, v.isNull(), v.isInt(), c.ref.null, c.ref.isInt)
		}
		if v.num() != c.ref.i || v.text() != c.ref.s {
			t.Errorf("case %d: accessors give (%d, %q), want (%d, %q)", i, v.num(), v.text(), c.ref.i, c.ref.s)
		}
		if got := string(appendValue(nil, v)); got != c.wal {
			t.Errorf("case %d: appendValue = %q, want %q", i, got, c.wal)
		}
		r := &replayer{engine: NewEngine()}
		row := []rowOp{{kind: opInsert, table: "t", id: 1, vals: []value{v}}}
		payload := opsPayload(row)
		if len(payload) != opsLen(row) {
			t.Errorf("case %d: payload of %d bytes, opsLen says %d", i, len(payload), opsLen(row))
		}
		ops, err := r.decodeOps(payload[1:])
		if err != nil || len(ops) != 1 || ops[0].vals[0] != v {
			t.Errorf("case %d: WAL round trip gives %v (%v), want %v", i, ops, err, v)
		}
		for j, d := range cases {
			w := cell(d.ref)
			if (v == w) != (i == j) {
				t.Errorf("cases %d and %d: == is %v", i, j, v == w)
			}
			if c.ref.null || d.ref.null {
				if got, want := valueLess(v, w), c.ref.null && !d.ref.null; got != want {
					t.Errorf("valueLess(%d, %d) = %v, want %v", i, j, got, want)
				}
				continue
			}
			if got, want := valueCompare(v, w), refCompare(c.ref, d.ref); got != want {
				t.Errorf("valueCompare(%d, %d) = %d, want %d", i, j, got, want)
			}
		}
	}
}
