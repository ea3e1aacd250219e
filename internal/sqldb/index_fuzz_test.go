package sqldb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// FuzzPredicateAnalyzer feeds arbitrary WHERE/ORDER BY text to the same
// SELECT over a small indexed table and its forced-scan twin. The
// invariants: never panic, fail identically (same error text) or
// succeed identically (same rows, order, and decoded policy sets —
// requireSameResults from the differential harness). Runs in the CI
// fuzz smoke alongside FuzzWALReplay.
func FuzzPredicateAnalyzer(f *testing.F) {
	rt := core.NewRuntime()
	indexed, scan := Open(rt), Open(rt)
	indexed.MustExec("CREATE TABLE t (id INT, name TEXT, val INT)")
	scan.MustExec("CREATE TABLE t (id INT, name TEXT, val INT)")
	// Seed both tables identically — NULLs included, names tainted so
	// the diff covers policy decode through both access paths.
	for i := 0; i < 30; i++ {
		idLit := fmt.Sprintf("%d", i%13)
		if i%9 == 0 {
			idLit = "NULL"
		}
		q := core.Concat(
			core.NewString(fmt.Sprintf("INSERT INTO t (id, name, val) VALUES (%s, '", idLit)),
			core.NewStringPolicy(fmt.Sprintf("w%d", i%7), &sanitize.UntrustedData{Source: "fuzz"}),
			core.NewString(fmt.Sprintf("', %d)", i%5)),
		)
		if _, err := indexed.Query(q); err != nil {
			f.Fatal(err)
		}
		if _, err := scan.Query(q); err != nil {
			f.Fatal(err)
		}
	}
	indexed.MustExec("CREATE INDEX ON t (id)")
	indexed.MustExec("CREATE INDEX ON t (name)")

	for _, seed := range []string{
		"WHERE id = 3",
		"WHERE id > 1 AND id < 9 ORDER BY id DESC",
		"WHERE id >= 1 AND 9 >= id ORDER BY id",
		"WHERE name LIKE 'w%' ORDER BY name",
		"WHERE name LIKE '%' ORDER BY name DESC LIMIT 3",
		"WHERE name LIKE 'w_%'",
		"WHERE id < '5'",
		"WHERE id > NULL ORDER BY val",
		"WHERE NOT (id < 5) AND name = 'w1'",
		"WHERE id = 2 OR id = 4 ORDER BY id",
		"ORDER BY name",
		"ORDER BY missing",
		"WHERE",
		"WHERE id = 1; DROP TABLE t",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, tail string) {
		q := "SELECT id, name, val FROM t " + tail
		a, aerr := indexed.QueryRaw(q)
		b, berr := scan.QueryRaw(q)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("%q: indexed err=%v, scan err=%v", q, aerr, berr)
		}
		if aerr != nil {
			if aerr.Error() != berr.Error() {
				t.Fatalf("%q: error text differs:\n  indexed %v\n  scan    %v", q, aerr, berr)
			}
			return
		}
		requireSameResults(t, q, a, b)
	})
}

// FuzzOrderedIndex runs random programs of add, remove, equality probes,
// range probes and ordered traversals over one INT or one TEXT column's
// ordered index, NULLs and cross-kind literals included, against a model
// that is the index's rule written out: every non-NULL key by its
// rendered form (indexKey), the rows of a key ascending by id, keys
// ordered by valueLess, the NULL bucket first for ASC and last for DESC,
// and on DESC the keys descending but each key's rows still ascending.
// An equality probe yields the rows of the literal's rendered form, a
// range probe every key each usable conjunct admits as the scan compares
// (valueCompare), and every candidate carries the stored cell of its key.
// After every add and remove the index's shape must match the model too
// (checkKeyShape): the keys ascending and distinct, a key of one row
// inline, a key of several in a bucket, a key of none gone.
func FuzzOrderedIndex(f *testing.F) {
	// An INT key going from one row to two (twice the same pair: a re-add
	// before the stale reference drains) and back to one, then losing its
	// last row, probed at each step.
	f.Add([]byte{0, 0, 4, 0, 0, 4, 1, 0, 4, 1, 3, 8, 0, 2, 4, 0, 0, 4, 1, 3, 8, 0, 2, 4, 1, 3, 8, 0, 4, 0, 0})
	// The same walk on a TEXT key, with a NULL row alongside.
	f.Add([]byte{1, 0, 10, 2, 0, 7, 3, 0, 10, 5, 0, 10, 5, 3, 21, 0, 2, 10, 2, 0, 10, 5, 3, 21, 1, 2, 10, 5, 3, 21, 0, 4, 1, 0})
	f.Add([]byte{0, 0, 1, 1, 0, 3, 2, 4, 7, 3, 1, 2, 4})
	f.Add([]byte{1, 0, 2, 1, 0, 5, 2, 0, 2, 9, 2, 2, 1, 4, 3, 3, 4, 0})
	f.Add([]byte{1, 0, 4, 1, 0, 5, 1, 0, 6, 1, 0, 7, 2, 1, 3, 3, 2, 5, 1, 4, 1})
	f.Add([]byte{0, 0, 13, 3, 0, 12, 5, 1, 3, 6, 1, 4, 8, 0, 4, 2})
	ints := []int64{math.MinInt64, -10, -1, 0, 1, 2, 9, 10, 11, 100, math.MaxInt64}
	texts := []string{"", "\x00", "0", "1", "01", "-0", " 1", "+1", "10", "2", "a", "ab", "b", "\xff", "\xff\xff", "\x00\xffI", "\x00\xffN"}
	rangeOps := []string{"<", "<=", ">", ">=", "LIKE"}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		typ := ColType(prog[0] % 2)
		prog = prog[1:]
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		// cell draws a stored value of the column's kind; NULL one time in
		// eight.
		cell := func() value {
			n := next()
			switch {
			case n%8 == 7:
				return nullValue()
			case typ == ColInt:
				return intValue(ints[n%len(ints)])
			}
			return textValue(texts[n%len(texts)])
		}
		// literal draws a probe operand of either kind.
		literal := func() Expr {
			n := next()
			if n%2 == 0 {
				return &IntLit{Val: ints[n/2%len(ints)]}
			}
			return &StringLit{Val: core.NewString(texts[n/2%len(texts)])}
		}
		ix := newOrderedIndex(typ)
		var ents [17]*rowEntry // the rows, by id
		for id := range ents {
			ents[id] = &rowEntry{id: uint64(id)}
		}
		model := map[string]value{}         // rendered key → its stored cell
		ids := map[string]map[uint64]bool{} // rendered key → ids
		checkShape := func() {
			t.Helper()
			if typ == ColInt {
				checkKeyShape(t, ix.ints, model, ids, value.num)
			} else {
				checkKeyShape(t, ix.texts, model, ids, value.text)
			}
		}
		bucket := func(key string) []uint64 {
			var out []uint64
			for id := range ids[key] {
				out = append(out, id)
			}
			slices.Sort(out)
			return out
		}
		appendKey := func(dst []indexCand, key string) []indexCand {
			for _, id := range bucket(key) {
				dst = append(dst, indexCand{key: model[key], en: ents[id]})
			}
			return dst
		}
		sortedKeys := func(keep func(value) bool) []string {
			var out []string
			for k, v := range model {
				if !v.isNull() && len(ids[k]) > 0 && keep(v) {
					out = append(out, k)
				}
			}
			slices.SortFunc(out, func(a, b string) int { return valueCompare(model[a], model[b]) })
			return out
		}
		for len(prog) > 0 {
			switch next() % 5 {
			case 0, 1: // add
				v, id := cell(), uint64(next()%16+1)
				k := indexKey(v)
				ix.add(v, ents[id])
				model[k] = v
				if ids[k] == nil {
					ids[k] = map[uint64]bool{}
				}
				ids[k][id] = true
				checkShape()
			case 2: // remove
				v, id := cell(), uint64(next()%16+1)
				ix.remove(v, ents[id])
				delete(ids[indexKey(v)], id)
				checkShape()
			case 3: // equality probe
				lit := literal()
				var cb colBounds
				cb.add("=", lit, typ)
				var want []indexCand
				if l, err := literalOf(lit); err == nil {
					want = appendKey(nil, indexKey(l))
				}
				var got []indexCand
				if cb.hasEq {
					got = (&indexProbe{colBounds: cb, ix: ix}).candidates(nil, next()%2 == 1)
				}
				if !sameCands(got, want) {
					t.Fatalf("%s = %s: got %v, want %v", typ, lit.SQL(), got, want)
				}
			case 4: // range probe of up to two conjuncts, or a full traversal
				desc := next()%2 == 1
				var cb colBounds
				var admits []func(value) bool
				for c := next() % 3; c > 0; c-- {
					op, lit := rangeOps[next()%len(rangeOps)], literal()
					cb.add(op, lit, typ)
					admits = append(admits, admitter(op, lit, typ))
				}
				keep := func(v value) bool {
					for _, a := range admits {
						if a != nil && !a(v) {
							return false
						}
					}
					return true
				}
				keys := sortedKeys(keep)
				if desc {
					slices.Reverse(keys)
				}
				var want, got []indexCand
				if cb.score() > 0 {
					for _, k := range keys {
						want = appendKey(want, k)
					}
					got = (&indexProbe{colBounds: cb, ix: ix}).candidates(nil, desc)
				} else {
					if !desc {
						want = appendKey(want, nullKey)
					}
					for _, k := range keys {
						want = appendKey(want, k)
					}
					if desc {
						want = appendKey(want, nullKey)
					}
					got = ix.orderedCands(nil, desc)
				}
				if !sameCands(got, want) {
					t.Fatalf("%s range %+v desc %v: got %v, want %v", typ, cb, desc, got, want)
				}
			}
		}
	})
}

// sameCands reports whether a and b hold the same pairs in the same
// order, keys compared as refCells.
func sameCands(a, b []indexCand) bool {
	return slices.EqualFunc(a, b, func(x, y indexCand) bool { return x.en == y.en && refOf(x.key) == refOf(y.key) })
}

// checkKeyShape fails t unless x holds each non-NULL key of the model
// in the shape its row count asks for: every key once in x.keys, in
// ascending order, with x.rows beside it; a key of one row holds that
// row inline and has no bucket, a key of several has nil inline and a
// bucket of exactly its rows in x.many, and a key of none is in neither
// array. x.many holds no other bucket. key reads a model cell as a K.
func checkKeyShape[K cmp.Ordered](t *testing.T, x *keyIndex[K], model map[string]value, ids map[string]map[uint64]bool, key func(value) K) {
	t.Helper()
	var keys []K
	rows := map[K]map[uint64]bool{}
	for k, v := range model {
		if !v.isNull() && len(ids[k]) > 0 {
			keys = append(keys, key(v))
			rows[key(v)] = ids[k]
		}
	}
	slices.Sort(keys)
	if !slices.Equal(keys, x.keys) || len(x.rows) != len(x.keys) {
		t.Fatalf("keys %v beside %d rows; the model has %v", x.keys, len(x.rows), keys)
	}
	buckets := 0
	for i, k := range x.keys {
		want := rows[k]
		bucket, inMany := x.many[k]
		if len(want) == 1 {
			if en := x.rows[i]; inMany || en == nil || !want[en.id] {
				t.Fatalf("key %v of one row: inline %v, in a bucket %v", k, en, inMany)
			}
			continue
		}
		buckets++
		if x.rows[i] != nil || len(bucket) != len(want) {
			t.Fatalf("key %v of %d rows: inline %v, a bucket of %d rows", k, len(want), x.rows[i], len(bucket))
		}
		for j, en := range bucket {
			if !want[en.id] || j > 0 && bucket[j-1].id >= en.id {
				t.Fatalf("key %v: bucket %v is not its rows %v ascending", k, bucket, want)
			}
		}
	}
	if len(x.many) != buckets {
		t.Fatalf("%d buckets for %d keys of several rows", len(x.many), buckets)
	}
}

// admitter is the scan's reading of one range conjunct `col op lit` on a
// column of type typ, or nil when the analyzer may not use it (a text
// bound on an INT column compares textually, not in index order).
func admitter(op string, lit Expr, typ ColType) func(value) bool {
	if op == "LIKE" {
		sl, ok := lit.(*StringLit)
		if !ok || typ != ColText {
			return nil
		}
		prefix, ok := likePrefix(sl.Val.Raw())
		if !ok {
			return nil
		}
		return func(v value) bool { return strings.HasPrefix(v.text(), prefix) }
	}
	bound, ok := rangeLiteral(lit, typ)
	if !ok {
		return nil
	}
	return func(v value) bool {
		c := valueCompare(v, bound)
		switch op {
		case "<":
			return c < 0
		case "<=":
			return c <= 0
		case ">":
			return c > 0
		}
		return c >= 0
	}
}
