package sqldb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Joins — INNER and LEFT — and GROUP BY aggregation (COUNT/SUM/MIN/MAX,
// plus the policy-union carrier PUNION). The binder binds them once per
// plan like every SELECT (bindStmt), and selectAt runs them in its two
// phases: it copies both sides' scans out under the read lock, then
// joins, applies WHERE and groups lock-free against immutable row
// versions at one snapshot — so joins observe exactly the isolation
// single-table SELECTs do: one frontier, no torn reads, concurrent
// writers never perturb an in-flight query.
//
// Two join strategies produce identical results by construction:
//
//   - Hash join: build a map over the right side keyed by indexKey — a
//     rendered canonicalization proven equivalent to valueCompare's
//     equality for non-NULL values — and probe with the left side. NULL
//     keys never enter the build map, matching SQL's NULL = NULL → false.
//   - Nested loop: compare every pair with the same valueCompare the
//     WHERE evaluator uses. Always correct, never fast; Select.ForceLoop
//     selects it, and the differential harness uses it as the oracle.
//
// Both emit pairs in (left row, right row) scan order, so strategy
// choice can change only cost — never rows, order, or the shadow policy
// columns riding along (join_property_test.go pins this).

// joinScope resolves column references over concatenated left++right
// rows: left columns at their positions, right columns offset by the
// left width. Unqualified names must be unique across the two tables;
// the ambiguity error names both candidates (the ErrNoColumn contract
// extended to joins).
type joinScope struct {
	lt, rt *table
}

func (js *joinScope) width() int { return len(js.lt.cols) + len(js.rt.cols) }

func (js *joinScope) resolveCol(name string) (int, error) {
	if qual, col, ok := splitQualifier(name); ok {
		switch {
		case strings.EqualFold(qual, js.lt.name):
			if ci := js.lt.colIndex(col); ci >= 0 {
				return ci, nil
			}
			return -1, fmt.Errorf("%w: %s.%s", ErrNoColumn, js.lt.name, col)
		case strings.EqualFold(qual, js.rt.name):
			if ci := js.rt.colIndex(col); ci >= 0 {
				return len(js.lt.cols) + ci, nil
			}
			return -1, fmt.Errorf("%w: %s.%s", ErrNoColumn, js.rt.name, col)
		default:
			return -1, fmt.Errorf("%w: %s (table %s is not in this query)", ErrNoColumn, name, qual)
		}
	}
	li, ri := js.lt.colIndex(name), js.rt.colIndex(name)
	switch {
	case li >= 0 && ri >= 0:
		return -1, fmt.Errorf("%w: %s is ambiguous (candidates %s.%s, %s.%s)",
			ErrNoColumn, name, js.lt.name, name, js.rt.name, name)
	case li >= 0:
		return li, nil
	case ri >= 0:
		return len(js.lt.cols) + ri, nil
	default:
		return -1, fmt.Errorf("%w: %s.%s, %s.%s", ErrNoColumn, js.lt.name, name, js.rt.name, name)
	}
}

// colDef returns the column definition at a combined-row position.
func (js *joinScope) colDef(ci int) ColumnDef {
	if ci < len(js.lt.cols) {
		return js.lt.cols[ci]
	}
	return js.rt.cols[ci-len(js.lt.cols)]
}

// outColName names a projected combined-row column: qualified when the
// reference was, plain otherwise.
func (js *joinScope) outColName(ref string, ci int) string {
	if _, _, ok := splitQualifier(ref); ok {
		return js.qualName(ci)
	}
	return js.colDef(ci).Name
}

// qualName is the table-qualified name of a combined-row column, as a
// qualified reference and star expansion name it.
func (js *joinScope) qualName(ci int) string {
	if ci < len(js.lt.cols) {
		return js.lt.name + "." + js.lt.cols[ci].Name
	}
	return js.rt.name + "." + js.rt.cols[ci-len(js.lt.cols)].Name
}

// aggState accumulates one aggregate item over one group.
type aggState struct {
	count  int64
	sum    int64
	best   value // MIN/MAX candidate
	any    bool  // saw a non-NULL input
	punion map[string]bool
}

func (a *aggState) observe(agg string, v value) {
	if v.isNull() {
		return // every aggregate skips NULL inputs
	}
	a.any = true
	switch agg {
	case "COUNT":
		a.count++
	case "SUM":
		a.sum += v.num()
	case "MIN":
		if a.count == 0 || valueLess(v, a.best) {
			a.best = v
		}
		a.count++
	case "MAX":
		if a.count == 0 || valueLess(a.best, v) {
			a.best = v
		}
		a.count++
	case "PUNION":
		if a.punion == nil {
			a.punion = make(map[string]bool)
		}
		a.punion[v.String()] = true
	}
}

// result renders the aggregate's output cell. Empty (or all-NULL) groups
// yield NULL for everything except COUNT, which yields 0.
func (a *aggState) result(agg string) value {
	switch agg {
	case "COUNT":
		return intValue(a.count)
	case "SUM":
		if !a.any {
			return nullValue()
		}
		return intValue(a.sum)
	case "MIN", "MAX":
		if !a.any {
			return nullValue()
		}
		return a.best
	case "PUNION":
		if len(a.punion) == 0 {
			return nullValue()
		}
		parts := make([]string, 0, len(a.punion))
		for p := range a.punion {
			parts = append(parts, p)
		}
		sort.Strings(parts)
		return textValue(strings.Join(parts, punionSep))
	}
	return nullValue()
}

// punionSep joins the distinct values of a PUNION cell. Policy
// annotations are JSON (control bytes always escaped), so 0x1f cannot
// occur inside one and splitting is unambiguous.
const punionSep = "\x1f"

// join pairs the left rows with the right rows on b's ON columns and
// returns the combined rows its WHERE keeps, in (left row, right row)
// scan order; a LEFT JOIN pads an unmatched left row with rw NULLs where
// it sits. loop selects the nested-loop oracle over the hash join, which
// builds on the right side. WHERE is tested on each pair before the pair
// gets a row of its own, and the first error, in that order, is
// returned.
func (b *boundStmt) join(lrows, rrows [][]value, rw int, left, loop bool, slots []Expr) ([][]value, error) {
	var build map[string][]int
	if !loop {
		build = make(map[string][]int, len(rrows))
		for i, rr := range rrows {
			if v := rr[b.ron]; !v.isNull() {
				k := indexKey(v)
				build[k] = append(build[k], i)
			}
		}
	}
	var out [][]value
	var row []value
	var err error
	emit := func(lr, rr []value) {
		if err != nil {
			return
		}
		row = append(append(row[:0], lr...), rr...)
		for len(row) < len(lr)+rw {
			row = append(row, nullValue())
		}
		var ok bool
		if ok, err = b.where.test(row, slots); ok {
			out = append(out, slices.Clone(row))
		}
	}
	for _, lr := range lrows {
		matched := false
		lv := lr[b.lon]
		switch {
		case lv.isNull(): // NULL joins nothing
		case loop:
			for _, rr := range rrows {
				if rv := rr[b.ron]; !rv.isNull() && valueCompare(lv, rv) == 0 {
					emit(lr, rr)
					matched = true
				}
			}
		default:
			for _, ri := range build[indexKey(lv)] {
				emit(lr, rrows[ri])
				matched = true
			}
		}
		if left && !matched {
			emit(lr, nil)
		}
	}
	return out, err
}

// aggregate groups rows by b's GROUP BY positions — keyed by the
// indexKey rendering of their cells, the coercion equality uses (int 1
// and text '1' group together) — in first-appearance order, then orders
// the groups by ORDER BY, caps them at limit (-1 for none) and renders
// one row per group.
func (b *boundStmt) aggregate(rows [][]value, desc bool, limit int) *rawResult {
	type group struct {
		first []value // representative row: group columns are equal within a group
		aggs  []aggState
	}
	var groups []*group
	byKey := map[string]*group{}
	var kb strings.Builder
	for _, row := range rows {
		kb.Reset()
		for _, ci := range b.group {
			kb.WriteString(indexKey(row[ci]))
			kb.WriteByte(0)
		}
		key := kb.String()
		g := byKey[key]
		if g == nil {
			g = &group{first: row, aggs: make([]aggState, len(b.aggs))}
			byKey[key] = g
			groups = append(groups, g)
		}
		for i, agg := range b.aggs {
			switch {
			case agg == "":
				// group column: value carried by first
			case b.cols[i] < 0: // COUNT(*)
				g.aggs[i].count++
			default:
				g.aggs[i].observe(agg, row[b.cols[i]])
			}
		}
	}
	// A whole-input aggregate (no GROUP BY columns) always yields one
	// row, even over empty input: COUNT(*) of nothing is 0, SUM is NULL.
	if len(b.group) == 0 && len(groups) == 0 {
		groups = append(groups, &group{aggs: make([]aggState, len(b.aggs))})
	}

	if b.order >= 0 {
		sortCalls.Add(1)
		sort.SliceStable(groups, func(i, j int) bool {
			if desc {
				return valueLess(groups[j].first[b.order], groups[i].first[b.order])
			}
			return valueLess(groups[i].first[b.order], groups[j].first[b.order])
		})
	}
	if limit >= 0 && len(groups) > limit {
		groups = groups[:limit]
	}
	out := &rawResult{cols: b.names}
	for _, g := range groups {
		r := make([]value, len(b.aggs))
		for i, agg := range b.aggs {
			switch {
			case agg == "":
				r[i] = g.first[b.cols[i]]
			case b.cols[i] < 0:
				r[i] = intValue(g.aggs[i].count)
			default:
				r[i] = g.aggs[i].result(agg)
			}
		}
		out.rows = append(out.rows, r)
	}
	return out
}
