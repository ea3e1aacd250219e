package sqldb

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Ordered indexes and the predicate analyzer.
//
// An orderedIndex keeps the equality bucket map of the original hash
// index — canonical equality key → row ids — and additionally a key
// sequence sorted by valueLess, so the same structure answers three
// kinds of questions:
//
//   - equality probes (`col = literal`), by bucket lookup, as before;
//   - range probes (`<`, `<=`, `>`, `>=`, and `LIKE 'prefix%'`), by
//     binary-searching the sorted sequence and concatenating the
//     buckets of the key span;
//   - ORDER BY pushdown: traversing every bucket in key order emits the
//     whole table in `ORDER BY col` order (NULL bucket first for ASC,
//     last for DESC), so the post-filter sort can be skipped.
//
// Under MVCC the buckets are a *superset*: a row id stays in the bucket
// of a superseded value until vacuum drains the stale reference
// (engine.go), and tombstoned rows keep their pairs until their entries
// are reclaimed. Traversals therefore pair every candidate id with the
// key it was found under, and the snapshot evaluation accepts the pair
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

// orderedIndex is an ordered index over one column: equality buckets
// keyed by canonical equality key, plus the distinct non-null values in
// valueLess order. Buckets always hold ascending row ids — ids are
// allocated monotonically and entries append in id order, so bucket
// order is scan-equivalent row order and candidate lists inherit
// stable-sort equivalence without re-sorting. NULLs live only in the
// reserved bucket: no range ever matches NULL, so the sorted sequence
// excludes them; ordered traversals splice the NULL bucket in
// explicitly at the NULLS-first (ASC) or NULLS-last (DESC) end.
//
// Writers under Engine.mu maintain the structure on INSERT, UPDATE and
// CREATE INDEX; DELETE tombstones the row and leaves its pairs for
// vacuum. add is duplicate-safe: re-adding a (value, id) pair that a
// pending stale reference never drained is a no-op.
type orderedIndex struct {
	m    map[string][]uint64
	vals []value // distinct non-null values, sorted by valueLess
}

func newOrderedIndex() *orderedIndex {
	return &orderedIndex{m: make(map[string][]uint64)}
}

// search returns the first position in vals whose value is >= v.
func (ix *orderedIndex) search(v value) int {
	return sort.Search(len(ix.vals), func(i int) bool { return !valueLess(ix.vals[i], v) })
}

func (ix *orderedIndex) add(v value, id uint64) {
	k := indexKey(v)
	bucket, ok := ix.m[k]
	if !ok && !v.null {
		i := ix.search(v)
		ix.vals = append(ix.vals, value{})
		copy(ix.vals[i+1:], ix.vals[i:])
		ix.vals[i] = v
	}
	// Keep ids ascending: INSERT appends monotonically growing ids
	// (fast path); UPDATE moves an existing row into another bucket at
	// an arbitrary id (binary insert). A pair already present — the row
	// moved back to a value whose stale reference has not drained yet —
	// stays single.
	if n := len(bucket); n == 0 || bucket[n-1] < id {
		ix.m[k] = append(bucket, id)
		return
	}
	i := sort.Search(len(bucket), func(i int) bool { return bucket[i] >= id })
	if i < len(bucket) && bucket[i] == id {
		return
	}
	bucket = append(bucket, 0)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = id
	ix.m[k] = bucket
}

func (ix *orderedIndex) remove(v value, id uint64) {
	k := indexKey(v)
	bucket := ix.m[k]
	i := sort.Search(len(bucket), func(i int) bool { return bucket[i] >= id })
	if i >= len(bucket) || bucket[i] != id {
		return
	}
	bucket = append(bucket[:i], bucket[i+1:]...)
	if len(bucket) > 0 {
		ix.m[k] = bucket
		return
	}
	delete(ix.m, k)
	if !v.null {
		if j := ix.search(v); j < len(ix.vals) && indexKey(ix.vals[j]) == k {
			ix.vals = append(ix.vals[:j], ix.vals[j+1:]...)
		}
	}
}

// span returns the half-open vals range [start, end) covered by the
// bounds; a missing bound is unbounded on that side.
func (ix *orderedIndex) span(cb *colBounds) (int, int) {
	start := 0
	if cb.hasLo {
		if cb.loIncl {
			start = ix.search(cb.lo)
		} else {
			start = sort.Search(len(ix.vals), func(i int) bool { return valueLess(cb.lo, ix.vals[i]) })
		}
	}
	end := len(ix.vals)
	if cb.hasHi {
		if cb.hiIncl {
			end = sort.Search(len(ix.vals), func(i int) bool { return valueLess(cb.hi, ix.vals[i]) })
		} else {
			end = ix.search(cb.hi)
		}
	}
	if end < start {
		end = start
	}
	return start, end
}

// indexCand is one candidate an index traversal emitted: a row id and
// the bucket key it was found under. The snapshot evaluation accepts
// the candidate only if the version visible to the reader carries key —
// the tombstone/stale-aware traversal rule (see the package comment).
type indexCand struct {
	key string
	id  uint64
}

// orderedCands returns every (key, id) pair in `ORDER BY col` order:
// keys ascending (descending for desc), the NULL bucket first for ASC
// and last for DESC, each bucket in ascending id order — exactly the
// order a stable sort of the scanned visible rows produces, which is
// what makes skipping that sort result-neutral. Ids superseded under a
// key survive here until vacuum; the visible-key rule drops them.
func (ix *orderedIndex) orderedCands(desc bool) []indexCand {
	nulls := ix.m[nullKey]
	out := make([]indexCand, 0, len(ix.vals)+len(nulls))
	appendBucket := func(k string) {
		for _, id := range ix.m[k] {
			out = append(out, indexCand{key: k, id: id})
		}
	}
	if !desc {
		appendBucket(nullKey)
		for _, v := range ix.vals {
			appendBucket(indexKey(v))
		}
		return out
	}
	for i := len(ix.vals) - 1; i >= 0; i-- {
		appendBucket(indexKey(ix.vals[i]))
	}
	appendBucket(nullKey)
	return out
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

// candidates appends the probe's (key, id) pairs to dst. Ordered
// candidates come out in ORDER BY-equivalent key order (asc or desc);
// unordered callers use rowOrderCandidates. Equality buckets are a
// single key, so they are simultaneously in key order and in row order.
//
// Equality candidates carry no key: the visible-key rule is implied for
// them. The WHERE the caller re-evaluates holds the equality conjunct,
// and `col = v` holds exactly when col's visible value has v's key
// (valueCompare and indexKey coerce alike), so a superseded pair fails
// the WHERE; and one bucket holds each id once, so nothing repeats.
func (p *indexProbe) candidates(dst []indexCand, desc bool) []indexCand {
	if p.hasEq {
		var kb [32]byte
		bucket := p.ix.m[string(appendIndexKey(kb[:0], p.eq))]
		dst = slices.Grow(dst, len(bucket))
		for _, id := range bucket {
			dst = append(dst, indexCand{id: id})
		}
		return dst
	}
	start, end := p.ix.span(&p.colBounds)
	appendBucket := func(k string) {
		for _, id := range p.ix.m[k] {
			dst = append(dst, indexCand{key: k, id: id})
		}
	}
	if desc {
		for i := end - 1; i >= start; i-- {
			appendBucket(indexKey(p.ix.vals[i]))
		}
		return dst
	}
	for i := start; i < end; i++ {
		appendBucket(indexKey(p.ix.vals[i]))
	}
	return dst
}

// rowOrderCandidates appends the probe's candidates to dst in ascending
// row id order — the order a scan would visit them. A row whose value
// moved between two keys of the range appears once per key; the
// visible-key rule keeps exactly one.
func (p *indexProbe) rowOrderCandidates(dst []indexCand) []indexCand {
	cand := p.candidates(dst, false)
	if !p.hasEq {
		slices.SortFunc(cand, func(a, b indexCand) int { return cmp.Compare(a.id, b.id) })
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

// eqLiteral converts an equality operand into a probe value. Any
// literal kind works: equality buckets key on rendered form, matching
// valueCompare's coercion (int 1 and text '1' share a key).
func eqLiteral(lit Expr) (value, bool) {
	v, err := literalOf(lit)
	return v, err == nil && !v.null
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
	if len(conj) == 0 || len(t.indexes) == 0 {
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
		if v, ok := eqLiteral(lit); ok && !cb.hasEq {
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
