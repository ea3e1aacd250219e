package sqldb

import (
	"fmt"
	"runtime"
	"testing"

	"resin/internal/core"
)

// footprintTable returns an engine holding table t — ten cells a row:
// id and forum INT, both indexed, and eight TEXT cells sharing one
// string — with n rows inserted one commit each, forum = id % 64.
func footprintTable(t testing.TB, n int) *Engine {
	e := NewEngine()
	cols := "id INT, forum INT"
	for c := 0; c < 8; c++ {
		cols += fmt.Sprintf(", c%d TEXT", c)
	}
	for _, q := range []string{"CREATE TABLE t (" + cols + ")", "CREATE INDEX ON t (id)", "CREATE INDEX ON t (forum)"} {
		stmt, err := Parse(core.NewString(q))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.ExecuteRaw(stmt); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for id := 1; id <= n; id++ {
		row := make([]value, 10)
		row[0], row[1] = intValue(int64(id)), intValue(int64(id%64))
		for c := 2; c < 10; c++ {
			row[c] = textValue("body")
		}
		e.applyOps([]rowOp{{kind: opInsert, table: "t", id: uint64(id), vals: row}}, uint64(id))
	}
	return e
}

// TestRowFootprintAlloc pins what a row costs to keep: the heap retained
// per row of a ten-cell table with two INT indexes — the cells, the
// version and entry, and both indexes' pairs. With 16-byte cells (one
// pointer and one word), 32-byte versions (a cell pointer and a count,
// no slice), int64 index keys, no map from id to entry, and the unique
// id index holding each row inline beside its key in the sorted arrays
// with no map slot, 20 000 rows retain 249 bytes each on linux/amd64
// under go1.24. The ceiling allows 11 bytes over that, less than either
// a 48-byte version (16 bytes more) or a map slot per unique key beside
// the sorted keys (21 more) would add.
func TestRowFootprintAlloc(t *testing.T) {
	const n = 20000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := footprintTable(t, n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(e)
	t.Logf("%d rows retain %.0f bytes each", n, perRow)
	const ceiling = 260
	if perRow > ceiling {
		t.Errorf("%d rows retain %.0f bytes each, want ≤ %d", n, perRow, ceiling)
	}
}

// TestIndexProbeAllocs pins that walking an index costs nothing per key:
// an equality probe on a key of two rows and on a key of one, a range
// probe over 100 keys and an ordered traversal of them fill a buffer
// that fits their candidates with no allocation, on an INT and a TEXT
// column.
func TestIndexProbeAllocs(t *testing.T) {
	for _, typ := range []ColType{ColInt, ColText} {
		ix := newOrderedIndex(typ)
		key := func(k int) value {
			if typ == ColInt {
				return intValue(int64(1000 + k))
			}
			return textValue(fmt.Sprintf("key%04d", k))
		}
		for k := 0; k < 100; k++ {
			ix.add(key(k), &rowEntry{id: uint64(2*k + 1)})
			ix.add(key(k), &rowEntry{id: uint64(2*k + 2)})
		}
		ix.add(key(100), &rowEntry{id: 201})
		ix.add(nullValue(), &rowEntry{id: 202})
		eq := indexProbe{colBounds: colBounds{eq: key(42), hasEq: true}, ix: ix}
		one := indexProbe{colBounds: colBounds{eq: key(100), hasEq: true}, ix: ix}
		span := indexProbe{colBounds: colBounds{lo: key(0), hi: key(99), hasLo: true, loIncl: true, hasHi: true, hiIncl: true}, ix: ix}
		buf := make([]indexCand, 0, 256)
		for _, c := range []struct {
			name  string
			n     int
			allow float64
			walk  func() []indexCand
		}{
			{"equality probe", 2, 0, func() []indexCand { return eq.candidates(buf[:0], false) }},
			{"one-row equality probe", 1, 0, func() []indexCand { return one.candidates(buf[:0], false) }},
			{"range probe", 200, 0, func() []indexCand { return span.candidates(buf[:0], false) }},
			{"descending range probe", 200, 0, func() []indexCand { return span.candidates(buf[:0], true) }},
			{"ordered traversal", 202, 0, func() []indexCand { return ix.orderedCands(buf[:0], false) }},
			{"descending ordered traversal", 202, 0, func() []indexCand { return ix.orderedCands(buf[:0], true) }},
		} {
			if got := len(c.walk()); got != c.n {
				t.Fatalf("%s %s: %d candidates, want %d", typ, c.name, got, c.n)
			}
			if allocs := testing.AllocsPerRun(50, func() { c.walk() }); allocs > c.allow {
				t.Errorf("%s %s: %.0f allocations, want ≤ %.0f", typ, c.name, allocs, c.allow)
			}
		}
	}
}
