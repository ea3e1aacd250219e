package sqldb

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Ordered indexes and the predicate analyzer.
//
// An orderedIndex keeps each column's distinct keys, in the column's own
// type, in one array sorted as valueLess orders them, and beside each
// key the rows that carry it — the row's entry inline in a parallel
// array when there is one, a bucket of entries when there are several —
// so the same structure answers three kinds of questions:
//
//   - equality probes (`col = literal`), by binary search for the key;
//   - range probes (`<`, `<=`, `>`, `>=`, and `LIKE 'prefix%'`), by
//     binary-searching the bounds and concatenating the rows of the
//     key span;
//   - ORDER BY pushdown: traversing the rows of every key in order
//     emits the whole table in `ORDER BY col` order (NULL bucket first
//     for ASC, last for DESC), so the post-filter sort can be skipped.
//
// Under MVCC the buckets are a *superset*: a row stays under a
// superseded value until vacuum drains the stale reference (engine.go),
// and tombstoned rows keep their pairs until vacuum drains those too.
// Traversals therefore pair every candidate row with the key it was
// found under, and the snapshot evaluation accepts the pair
// only when the version visible at the reader's snapshot actually
// carries that key — that one rule restores exactness: no duplicates
// across the buckets of a range, and ORDER BY pushdown emits each row
// at its visible key position.
//
// Soundness invariant (docs/SQL.md §4): a probe derived from a conjunct
// on the WHERE AND spine returns a superset of the rows satisfying that
// conjunct, and the engine re-evaluates the full WHERE against every
// candidate. Index use can therefore change only performance — never
// results, row order, or the shadow policy columns that ride along.
// index_property_test.go holds a differential harness pinning exactly
// that against a forced-scan twin — including under concurrent writer
// churn, at one shared snapshot.

// sortCalls counts result post-sorts in SELECT execution. ORDER BY
// pushdown's contract is that an ordered traversal skips the sort;
// tests and benchmarks observe the counter through SortCount to pin
// that down, mirroring ParseCount and TokenizeCount.
var sortCalls atomic.Uint64

// SortCount returns the number of ORDER BY result sorts performed so
// far in this process. A SELECT served in index order does not move it.
func SortCount() uint64 { return sortCalls.Load() }

// limitStops counts LIMIT short-circuits: SELECTs whose candidate walk
// stopped early because k rows were already in final order (an ordered
// traversal, or no ORDER BY). Top-k over an ordered index is O(k), and
// tests observe this counter through LimitStopCount to pin that down.
var limitStops atomic.Uint64

// LimitStopCount returns the number of LIMIT short-circuits so far in
// this process. A SELECT that had to collect (or sort) every matching
// row before truncating does not move it.
func LimitStopCount() uint64 { return limitStops.Load() }

// orderedIndex is an ordered index over one column, keyed in the
// column's own type: an INT column's keys are int64s, a TEXT column's
// strings (keyIndex), so a key costs what the cell does. A pair is a
// key and the row's entry itself, so a candidate needs no lookup by id.
// Buckets always hold entries in ascending row id order — ids are
// allocated monotonically and entries append in id order, so bucket
// order is scan-equivalent row order and candidate lists inherit
// stable-sort equivalence without re-sorting. NULLs live only in their
// own bucket: no range ever matches NULL, so the sorted keys exclude
// it; ordered traversals splice the NULL bucket in explicitly at the
// NULLS-first (ASC) or NULLS-last (DESC) end.
//
// Writers under Engine.mu maintain the structure on INSERT, UPDATE and
// CREATE INDEX; DELETE tombstones the row and leaves its pairs for
// vacuum. add is duplicate-safe: re-adding a (value, row) pair that a
// pending stale reference never drained is a no-op. A value the index
// is given is NULL or of the column's kind: every write path coerces to
// the column type, and replay checks it (checkKinds). The methods
// dispatch on the kind by hand rather than through an interface, so
// that a caller's candidate buffer can stay on its stack.
type orderedIndex struct {
	ints  *keyIndex[int64]  // an INT column's keys, else nil
	texts *keyIndex[string] // a TEXT column's keys, else nil
	nulls []*rowEntry       // the NULL bucket
}

// keyIndex is the non-NULL part of an ordered index: two parallel
// arrays, the distinct keys ascending and, at the same position, the
// one row under that key. A key that holds several rows has nil beside
// it and keeps their bucket in many. So a key of one row — every key of
// a unique column — costs one slot of each array and no map entry, and
// a walk over the keys looks up a map only for a key of several rows.
// The arrays change in place, under the engine's write lock like every
// index write; readers probe under the read lock and copy the
// candidates out.
type keyIndex[K cmp.Ordered] struct {
	keys []K
	rows []*rowEntry
	many map[K][]*rowEntry // allocated at the first bucket
}

func newOrderedIndex(typ ColType) *orderedIndex {
	if typ == ColInt {
		return &orderedIndex{ints: &keyIndex[int64]{}}
	}
	return &orderedIndex{texts: &keyIndex[string]{}}
}

func (ix *orderedIndex) add(v value, en *rowEntry) {
	switch {
	case v.isNull():
		ix.nulls = addEntry(ix.nulls, en)
	case ix.ints != nil:
		ix.ints.add(v.num(), en)
	default:
		ix.texts.add(v.text(), en)
	}
}

// reserve makes room for n more keys.
func (ix *orderedIndex) reserve(n int) {
	if ix.ints != nil {
		ix.ints.reserve(n)
	} else {
		ix.texts.reserve(n)
	}
}

func (ix *orderedIndex) remove(v value, en *rowEntry) {
	switch {
	case v.isNull():
		ix.nulls = removeEntry(ix.nulls, en)
	case ix.ints != nil:
		ix.ints.remove(v.num(), en)
	default:
		ix.texts.remove(v.text(), en)
	}
}

// appendEq appends the pairs under key to dst, in ascending row id
// order. key need not be of the column's kind: no key of an INT index
// equals a text, nor of a TEXT index an integer, nor of either NULL.
func (ix *orderedIndex) appendEq(dst []indexCand, key value) []indexCand {
	switch {
	case key.isNull() || key.isInt() != (ix.ints != nil):
		return dst
	case ix.ints != nil:
		return ix.ints.appendKey(dst, key.num(), key)
	}
	return ix.texts.appendKey(dst, key.text(), key)
}

// span returns the half-open range [start, end) of keys covered by the
// bounds, which are of the column's kind (rangeLiteral); a missing bound
// is unbounded on that side.
func (ix *orderedIndex) span(cb *colBounds) (int, int) {
	if ix.ints != nil {
		return ix.ints.span(cb, value.num)
	}
	return ix.texts.span(cb, value.text)
}

// appendSpan appends the (key, row) pairs of the key range [start, end)
// to dst: keys ascending (descending for desc), each key's rows
// ascending.
func (ix *orderedIndex) appendSpan(dst []indexCand, start, end int, desc bool) []indexCand {
	if ix.ints != nil {
		return ix.ints.appendSpan(dst, start, end, desc, intValue)
	}
	return ix.texts.appendSpan(dst, start, end, desc, textValue)
}

// orderedCands appends every (key, row) pair to dst in `ORDER BY col`
// order: appendSpan's order over every key, with the NULL bucket first
// for ASC and last for DESC — exactly the order a stable sort of the
// scanned visible rows produces, which is what makes skipping that sort
// result-neutral. Rows superseded under a key survive here until vacuum;
// the visible-key rule drops them.
func (ix *orderedIndex) orderedCands(dst []indexCand, desc bool) []indexCand {
	n := ix.keyCount()
	dst = slices.Grow(dst, n+len(ix.nulls))
	if !desc {
		dst = appendBucket(dst, nullValue(), ix.nulls)
	}
	dst = ix.appendSpan(dst, 0, n, desc)
	if desc {
		dst = appendBucket(dst, nullValue(), ix.nulls)
	}
	return dst
}

// keyCount returns the number of distinct non-NULL keys.
func (ix *orderedIndex) keyCount() int {
	if ix.ints != nil {
		return len(ix.ints.keys)
	}
	return len(ix.texts.keys)
}

// find returns k's position in keys and whether it is there, or where
// it would go. A key above the largest is checked first, so keys that
// arrive ascending — row ids — append without a search.
func (x *keyIndex[K]) find(k K) (int, bool) {
	if n := len(x.keys); n == 0 || x.keys[n-1] < k {
		return n, false
	}
	return slices.BinarySearch(x.keys, k)
}

// add adds the pair (k, en). A key's second row promotes it from inline
// to a bucket.
func (x *keyIndex[K]) add(k K, en *rowEntry) {
	i, found := x.find(k)
	switch {
	case !found:
		x.keys = slices.Insert(x.keys, i, k)
		x.rows = slices.Insert(x.rows, i, en)
	case x.rows[i] == nil:
		x.many[k] = addEntry(x.many[k], en)
	case x.rows[i] != en:
		if x.many == nil {
			x.many = make(map[K][]*rowEntry)
		}
		x.many[k] = addEntry([]*rowEntry{x.rows[i]}, en)
		x.rows[i] = nil
	}
}

// reserve makes room for n more keys.
func (x *keyIndex[K]) reserve(n int) {
	x.keys = grow(x.keys, n)
	x.rows = grow(x.rows, n)
}

// remove removes the pair (k, en), if it is there. A key left with one
// row demotes back to inline, and a key left with none goes.
func (x *keyIndex[K]) remove(k K, en *rowEntry) {
	i, found := x.find(k)
	switch {
	case !found:
	case x.rows[i] == nil:
		if bucket := removeEntry(x.many[k], en); len(bucket) == 1 {
			delete(x.many, k)
			x.rows[i] = bucket[0]
		} else {
			x.many[k] = bucket
		}
	case x.rows[i] == en:
		x.keys = slices.Delete(x.keys, i, i+1)
		x.rows = slices.Delete(x.rows, i, i+1)
	}
}

// appendKey appends the pairs under k to dst, each carrying key, the
// cell k stands for.
func (x *keyIndex[K]) appendKey(dst []indexCand, k K, key value) []indexCand {
	if i, found := x.find(k); found {
		return x.appendAt(dst, i, key)
	}
	return dst
}

// appendAt appends the pairs of the key at position i to dst, each
// carrying key.
func (x *keyIndex[K]) appendAt(dst []indexCand, i int, key value) []indexCand {
	if en := x.rows[i]; en != nil {
		return append(dst, indexCand{key: key, en: en})
	}
	return appendBucket(dst, key, x.many[x.keys[i]])
}

// span is orderedIndex.span over Ks; key reads a bound as a K.
func (x *keyIndex[K]) span(cb *colBounds, key func(value) K) (int, int) {
	start, end := 0, len(x.keys)
	if cb.hasLo {
		i, found := slices.BinarySearch(x.keys, key(cb.lo))
		if found && !cb.loIncl {
			i++
		}
		start = i
	}
	if cb.hasHi {
		i, found := slices.BinarySearch(x.keys, key(cb.hi))
		if found && cb.hiIncl {
			i++
		}
		end = i
	}
	return start, max(start, end)
}

// appendSpan is orderedIndex.appendSpan over Ks; cell turns a key back
// into the cell that carries it.
func (x *keyIndex[K]) appendSpan(dst []indexCand, start, end int, desc bool, cell func(K) value) []indexCand {
	for n := start; n < end; n++ {
		i := n
		if desc {
			i = start + end - 1 - n
		}
		dst = x.appendAt(dst, i, cell(x.keys[i]))
	}
	return dst
}

// addEntry adds en to a bucket ascending by row id. INSERT appends
// monotonically growing ids (fast path); UPDATE moves an existing row
// into another bucket at an arbitrary id (binary insert). A pair
// already present — the row moved back to a value whose stale reference
// has not drained yet — stays single.
func addEntry(bucket []*rowEntry, en *rowEntry) []*rowEntry {
	if n := len(bucket); n == 0 || bucket[n-1].id < en.id {
		return append(bucket, en)
	}
	i, found := searchID(bucket, en.id)
	if found {
		return bucket
	}
	return slices.Insert(bucket, i, en)
}

// removeEntry removes en from an ascending bucket, if it is there,
// clearing the slot it frees so that the bucket does not keep the row
// alive.
func removeEntry(bucket []*rowEntry, en *rowEntry) []*rowEntry {
	if i, found := searchID(bucket, en.id); found {
		return slices.Delete(bucket, i, i+1)
	}
	return bucket
}

// searchID finds row id in entries ascending by id: its position, or
// where it would go.
func searchID(entries []*rowEntry, id uint64) (int, bool) {
	return slices.BinarySearchFunc(entries, id, func(en *rowEntry, id uint64) int { return cmp.Compare(en.id, id) })
}

func appendBucket(dst []indexCand, key value, bucket []*rowEntry) []indexCand {
	dst = slices.Grow(dst, len(bucket))
	for _, en := range bucket {
		dst = append(dst, indexCand{key: key, en: en})
	}
	return dst
}

// indexCand is one candidate row: its entry and, for an index
// traversal's, the key it was found under, as a cell. The snapshot
// evaluation accepts the candidate only if the version visible to the
// reader carries that cell in the probed column — the tombstone/stale-
// aware traversal rule (see the package comment).
type indexCand struct {
	key value
	en  *rowEntry
}

// indexProbe is one usable access path the predicate analyzer found: an
// equality key, or a key range (either side optional) on an ordered
// index. The candidates it yields are a superset of the rows matching
// the originating conjunct; the caller re-evaluates the full WHERE and
// applies the visible-key rule.
type indexProbe struct {
	colBounds
	ix *orderedIndex
}

// candidates appends the probe's (key, row) pairs to dst. Ordered
// candidates come out in ORDER BY-equivalent key order (asc or desc);
// unordered callers use rowOrderCandidates. An equality probe is a
// single key, so it is at once in key order and in row order, and each
// of its candidates carries the probed key.
func (p *indexProbe) candidates(dst []indexCand, desc bool) []indexCand {
	if p.hasEq {
		return p.ix.appendEq(dst, p.eq)
	}
	start, end := p.ix.span(&p.colBounds)
	return p.ix.appendSpan(dst, start, end, desc)
}

// rowOrderCandidates appends the probe's candidates to dst in ascending
// row id order — the order a scan would visit them. A row whose value
// moved between two keys of the range appears once per key; the
// visible-key rule keeps exactly one.
func (p *indexProbe) rowOrderCandidates(dst []indexCand) []indexCand {
	cand := p.candidates(dst, false)
	if !p.hasEq {
		slices.SortFunc(cand, func(a, b indexCand) int { return cmp.Compare(a.en.id, b.en.id) })
	}
	return cand
}

// colBounds accumulates the analyzable constraints on one column while
// walking the AND spine. Conjuncts only ever tighten: the tightest lo
// and hi survive, and the first equality wins outright (an equality
// bucket is a superset of the rows matching *all* conjuncts on the
// column, since rows matching the WHERE must match each conjunct).
type colBounds struct {
	ci                  int
	eq, lo, hi          value
	hasEq, hasLo, hasHi bool
	loIncl, hiIncl      bool
}

func (cb *colBounds) addLo(v value, incl bool) {
	if !cb.hasLo || valueCompare(v, cb.lo) > 0 || (valueCompare(v, cb.lo) == 0 && !incl) {
		cb.lo, cb.loIncl, cb.hasLo = v, incl, true
	}
}

func (cb *colBounds) addHi(v value, incl bool) {
	if !cb.hasHi || valueCompare(v, cb.hi) < 0 || (valueCompare(v, cb.hi) == 0 && !incl) {
		cb.hi, cb.hiIncl, cb.hasHi = v, incl, true
	}
}

// eqLiteral converts an equality operand into the key it probes,
// coerced to the column's kind as valueCompare's equality coerces: an
// integer literal on a TEXT column probes its decimal rendering, and a
// text literal on an INT column probes the integer it is the canonical
// decimal of — `'1'` probes 1, while `'01'`, `' 1'` and `'-0'` stay
// text, which no key of an INT index equals, so they give no candidates.
func eqLiteral(lit Expr, typ ColType) (value, bool) {
	v, err := literalOf(lit)
	if err != nil || v.isNull() {
		return value{}, false
	}
	switch {
	case typ == ColInt && !v.isInt():
		var buf [20]byte
		if n, err := strconv.ParseInt(v.text(), 10, 64); err == nil && string(strconv.AppendInt(buf[:0], n, 10)) == v.text() {
			return intValue(n), true
		}
	case typ == ColText && v.isInt():
		return textValue(strconv.FormatInt(v.num(), 10)), true
	}
	return v, true
}

// rangeLiteral converts a range operand into a probe value, requiring
// the comparison the scan would perform to agree with the index order.
// An INT column's index is in numeric order and its cells compare
// numerically only against integer literals — `col < '10'` compares
// *textually* under the dialect's coercion, so string bounds on INT
// columns fall back to the scan. TEXT columns compare textually against
// every literal (integer operands render to digits), matching their
// index order, so both kinds are usable.
func rangeLiteral(lit Expr, typ ColType) (value, bool) {
	switch v := lit.(type) {
	case *IntLit:
		if typ == ColInt {
			return intValue(v.Val), true
		}
		return textValue(strconv.FormatInt(v.Val, 10)), true
	case *StringLit:
		if typ == ColInt {
			return value{}, false
		}
		return textValue(v.Val.Raw()), true
	}
	return value{}, false
}

// likePrefix extracts the literal prefix of a LIKE pattern usable as a
// key range: the pattern must end in `%`, the prefix before it must be
// non-empty (an empty prefix matches everything — no range to probe)
// and wildcard-free. likeMatch treats every other byte literally (there
// is no escape syntax), so `prefix ≤ s < successor(prefix)` in byte
// order is exactly the set of strings the pattern's prefix admits.
func likePrefix(pattern string) (string, bool) {
	if len(pattern) < 2 || pattern[len(pattern)-1] != '%' {
		return "", false
	}
	prefix := pattern[:len(pattern)-1]
	if strings.ContainsAny(prefix, "%_") {
		return "", false
	}
	return prefix, true
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix — the prefix with its last non-0xff byte
// incremented. An all-0xff prefix has no successor (unbounded above).
func prefixSuccessor(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}

// probeConj is one comparison on the AND spine of a WHERE that names a
// column of the table: what the predicate analyzer may turn into an
// index probe. The binder collects them once per plan and generation.
// Whether one is usable — is its column indexed, is its operand a
// literal of a kind that agrees with the index order — is decided per
// execution, because the operand may be a slot only the execution fills.
type probeConj struct {
	ci  int
	op  string // as seen from the column: `5 < col` is held as `col > 5`
	arg Expr   // the other operand: a literal, a *Param slot, or unusable
}

// probeConjuncts appends the conjuncts of ex's AND spine to out, in
// spine order. OR, NOT, a column compared with a column, a column used
// as a LIKE pattern and references that do not resolve here (binding
// reports those) contribute nothing and are left to the re-evaluation
// of the full WHERE; qualified references ("t.c" on this table) probe
// like plain ones.
func (t *table) probeConjuncts(ex Expr, out []probeConj) []probeConj {
	b, ok := ex.(*Binary)
	if !ok {
		return out
	}
	if b.Op == "AND" {
		return t.probeConjuncts(b.R, t.probeConjuncts(b.L, out))
	}
	op := b.Op
	var cr *ColumnRef
	var arg Expr
	if c, isCol := b.L.(*ColumnRef); isCol {
		cr, arg = c, b.R
	} else if c, isCol := b.R.(*ColumnRef); isCol {
		cr, arg = c, b.L
		switch op { // mirror: `5 < col` is `col > 5`
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		case "LIKE":
			return out // a column used as the pattern is not a prefix probe
		}
	} else {
		return out
	}
	ci, err := t.resolveCol(cr.Name)
	if err != nil {
		return out
	}
	return append(out, probeConj{ci: ci, op: op, arg: arg})
}

// chooseProbe is the predicate analyzer: from the bound conjuncts and
// this execution's slots it accumulates per-column constraints from `=`,
// range, and `LIKE 'prefix%'` conjuncts over indexed columns — anything
// else, un-indexed columns, kind-mismatched literals and NULL (no
// comparison matches NULL) included, contributes nothing — and returns
// the best usable access path, or false when every conjunct falls back
// to the scan. Preference order: an equality probe (single bucket), then
// a two-sided range, then any one-sided range — ties in first-seen spine
// order, so the choice is deterministic. The index set is read here, not
// at bind time: a transaction's catalog shares unwritten tables with a
// base whose index DDL does not move the transaction's generation.
func (t *table) chooseProbe(conj []probeConj, slots []Expr) (indexProbe, bool) {
	if len(conj) == 0 {
		return indexProbe{}, false
	}
	var buf [4]colBounds
	cons := buf[:0]
	for _, c := range conj {
		if t.indexes[c.ci] == nil {
			continue
		}
		var cb *colBounds
		for i := range cons {
			if cons[i].ci == c.ci {
				cb = &cons[i]
				break
			}
		}
		if cb == nil {
			cons = append(cons, colBounds{ci: c.ci})
			cb = &cons[len(cons)-1]
		}
		cb.add(c.op, slotExpr(c.arg, slots), t.cols[c.ci].Type)
	}
	best := -1
	for i := range cons {
		if s := cons[i].score(); s > 0 && (best < 0 || s > cons[best].score()) {
			best = i
		}
	}
	if best < 0 {
		return indexProbe{}, false
	}
	return indexProbe{colBounds: cons[best], ix: t.indexes[cons[best].ci]}, true
}

// add tightens the bounds with one conjunct `col op lit`.
func (cb *colBounds) add(op string, lit Expr, typ ColType) {
	switch op {
	case "=":
		if v, ok := eqLiteral(lit, typ); ok && !cb.hasEq {
			cb.eq, cb.hasEq = v, true
		}
	case "<", "<=", ">", ">=":
		v, ok := rangeLiteral(lit, typ)
		if !ok {
			return
		}
		switch op {
		case "<":
			cb.addHi(v, false)
		case "<=":
			cb.addHi(v, true)
		case ">":
			cb.addLo(v, false)
		case ">=":
			cb.addLo(v, true)
		}
	case "LIKE":
		sl, isStr := lit.(*StringLit)
		if !isStr || typ != ColText {
			return // digit-string order ≠ numeric order on INT columns
		}
		prefix, ok := likePrefix(sl.Val.Raw())
		if !ok {
			return
		}
		cb.addLo(textValue(prefix), true)
		if succ, bounded := prefixSuccessor(prefix); bounded {
			cb.addHi(textValue(succ), false)
		}
	}
}

// score ranks the access path the bounds give: 3 for an equality
// bucket, 2 for a two-sided range, 1 for a one-sided one, 0 for none.
func (cb *colBounds) score() int {
	switch {
	case cb.hasEq:
		return 3
	case cb.hasLo && cb.hasHi:
		return 2
	case cb.hasLo || cb.hasHi:
		return 1
	}
	return 0
}
