package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// The complex-SELECT executor: INNER/LEFT JOIN and GROUP BY aggregation
// (COUNT/SUM/MIN/MAX, plus the policy-union carrier PUNION). It runs in
// the same two phases as single-table selectAt — resolve/validate and
// copy candidate state under the read lock, then evaluate lock-free
// against immutable row versions at one snapshot — so joins observe
// exactly the isolation single-table SELECTs do: one frontier, no torn
// reads, concurrent writers never perturb an in-flight query.
//
// Two join strategies produce identical results by construction:
//
//   - Hash join: build a map over the smaller side keyed by indexKey —
//     a rendered canonicalization proven equivalent to valueCompare's
//     equality for non-NULL values — and probe with
//     the larger side. NULL keys never enter the build map, matching
//     SQL's NULL = NULL → false.
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
// reference was (or star expansion, which qualifies everything), plain
// otherwise.
func (js *joinScope) outColName(ref string, ci int) string {
	if _, _, ok := splitQualifier(ref); ok {
		if ci < len(js.lt.cols) {
			return js.lt.name + "." + js.lt.cols[ci].Name
		}
		return js.rt.name + "." + js.rt.cols[ci-len(js.lt.cols)].Name
	}
	return js.colDef(ci).Name
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

// complexItem is one validated projection item: its combined-row column
// (or -1 for COUNT(*)) plus the output column name.
type complexItem struct {
	agg  string
	ci   int
	name string
}

// selectComplexAt executes a SELECT with a JOIN and/or aggregation. It
// binds the statement per execution, through the binder and joinScope,
// and evaluates with the one evaluator.
func (e *Engine) selectComplexAt(s *Select, slots []Expr, pinned *uint64) (*rawResult, error) {
	limit, err := selectLimit(s, slots)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	locked := true
	unlock := func() {
		if locked {
			locked = false
			e.mu.RUnlock()
		}
	}
	defer unlock()

	lt, ok := e.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, s.Table)
	}
	var rt *table
	var sc scope = lt
	var js *joinScope
	var lon, ron int // ON columns: left position, right position
	if s.Join != nil {
		if rt, ok = e.tables[strings.ToLower(s.Join.Table)]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoTable, s.Join.Table)
		}
		if lt == rt {
			return nil, fmt.Errorf("sqldb: self-join of table %s is not supported", lt.name)
		}
		if s.Join.Type != "INNER" && s.Join.Type != "LEFT" {
			return nil, fmt.Errorf("sqldb: unsupported join type %q", s.Join.Type)
		}
		js = &joinScope{lt: lt, rt: rt}
		sc = js
		a, err := js.resolveCol(s.Join.L)
		if err != nil {
			return nil, err
		}
		b, err := js.resolveCol(s.Join.R)
		if err != nil {
			return nil, err
		}
		if (a < len(lt.cols)) == (b < len(lt.cols)) {
			return nil, fmt.Errorf("sqldb: ON %s = %s must join one column from each table", s.Join.L, s.Join.R)
		}
		lon, ron = a, b
		if lon > ron {
			lon, ron = ron, lon
		}
		ron -= len(lt.cols)
	}

	grouped := s.grouped()

	// Resolve GROUP BY columns first; grouped plain items must reference
	// one of them (value well-defined per group), which is checked by
	// resolved position — any spelling of the same column qualifies.
	groupCIs := make([]int, 0, len(s.GroupBy))
	isGroupCol := map[int]bool{}
	for _, g := range s.GroupBy {
		ci, err := sc.resolveCol(g)
		if err != nil {
			return nil, err
		}
		groupCIs = append(groupCIs, ci)
		isGroupCol[ci] = true
	}

	var items []complexItem
	if s.Star {
		if grouped {
			return nil, fmt.Errorf("sqldb: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		for i, c := range lt.cols {
			items = append(items, complexItem{ci: i, name: lt.name + "." + c.Name})
		}
		for i, c := range rt.cols {
			items = append(items, complexItem{ci: len(lt.cols) + i, name: rt.name + "." + c.Name})
		}
	} else {
		for _, it := range s.Items {
			switch {
			case it.Agg != "" && it.Star: // COUNT(*)
				items = append(items, complexItem{agg: it.Agg, ci: -1, name: it.Agg + "(*)"})
			case it.Agg != "":
				ci, err := sc.resolveCol(it.Col)
				if err != nil {
					return nil, err
				}
				var def ColumnDef
				if js != nil {
					def = js.colDef(ci)
				} else {
					def = lt.cols[ci]
				}
				if it.Agg == "SUM" && def.Type != ColInt {
					return nil, fmt.Errorf("%w: SUM(%s) requires an INT column", ErrTypeMismatch, it.Col)
				}
				var name string
				if js != nil {
					name = it.Agg + "(" + js.outColName(it.Col, ci) + ")"
				} else {
					name = it.Agg + "(" + lt.outColName(it.Col, ci) + ")"
				}
				items = append(items, complexItem{agg: it.Agg, ci: ci, name: name})
			default:
				ci, err := sc.resolveCol(it.Col)
				if err != nil {
					return nil, err
				}
				if grouped && !isGroupCol[ci] {
					return nil, fmt.Errorf("sqldb: column %s must appear in GROUP BY or inside an aggregate", it.Col)
				}
				var name string
				if js != nil {
					name = js.outColName(it.Col, ci)
				} else {
					name = lt.outColName(it.Col, ci)
				}
				items = append(items, complexItem{agg: "", ci: ci, name: name})
			}
		}
	}

	where, err := bindWhere(s.Where, sc, len(slots))
	if err != nil {
		return nil, err
	}

	orderCI := -1
	if s.OrderBy != "" {
		ci, err := sc.resolveCol(s.OrderBy)
		if err != nil {
			return nil, err
		}
		if grouped && !isGroupCol[ci] {
			return nil, fmt.Errorf("sqldb: ORDER BY %s must name a GROUP BY column in an aggregate query", s.OrderBy)
		}
		orderCI = ci
	}

	var snap uint64
	if pinned != nil {
		snap = *pinned
	} else {
		snap = e.acquireSnap()
		defer e.releaseSnap(snap)
	}

	// Copy out each side's scan (entries slice headers, O(1)); contents
	// are immutable for this snapshot. Bucket lists of live ordered
	// indexes are NOT safe to hold across the unlock (writers
	// binary-insert in place), which is why the hash join builds its own
	// transient map from the rows, keyed by indexKey.
	var lsrc, rsrc rowSource
	e.rowCands(&lsrc, lt, nil, nil, slots, true, false, snap) // a scan: no index candidates
	if s.Join != nil {
		e.rowCands(&rsrc, rt, nil, nil, slots, true, false, snap)
	}
	unlock()

	// Lock-free phase. Resolve visibility once per side, in id order.
	visible := func(rs *rowSource) [][]value {
		rows := make([][]value, 0, rs.len())
		for en, v := rs.next(); en != nil; en, v = rs.next() {
			if v != nil {
				rows = append(rows, v.row())
			}
		}
		return rows
	}
	lrows := visible(&lsrc)

	var rows [][]value // combined rows entering WHERE
	if s.Join == nil {
		rows = lrows
	} else {
		rrows := visible(&rsrc)
		width := js.width()
		emit := func(lr, rr []value) {
			combined := make([]value, 0, width)
			combined = append(combined, lr...)
			if rr != nil {
				combined = append(combined, rr...)
			} else {
				for range rt.cols {
					combined = append(combined, nullValue())
				}
			}
			rows = append(rows, combined)
		}
		left := s.Join.Type == "LEFT"
		switch {
		case s.ForceLoop:
			// Nested loop: the oracle. Emits (li, ri) pairs in scan order
			// using the WHERE evaluator's own equality.
			for _, lr := range lrows {
				matched := false
				for _, rr := range rrows {
					lv, rv := lr[lon], rr[ron]
					if !lv.isNull() && !rv.isNull() && valueCompare(lv, rv) == 0 {
						emit(lr, rr)
						matched = true
					}
				}
				if left && !matched {
					emit(lr, nil)
				}
			}
		default:
			// Hash join, build = right, for both join forms. Probing with
			// left yields (li, ri) pairs in oracle order directly; LEFT
			// JOIN emits unmatched left rows in place.
			build := make(map[string][]int, len(rrows))
			for i, rr := range rrows {
				if v := rr[ron]; !v.isNull() {
					k := indexKey(v)
					build[k] = append(build[k], i)
				}
			}
			for _, lr := range lrows {
				matched := false
				if v := lr[lon]; !v.isNull() {
					for _, ri := range build[indexKey(v)] {
						emit(lr, rrows[ri])
						matched = true
					}
				}
				if left && !matched {
					emit(lr, nil)
				}
			}
		}
	}

	// WHERE filter over combined rows.
	filtered := rows[:0:0]
	for _, row := range rows {
		ok, err := where.test(row, slots)
		if err != nil {
			return nil, err
		}
		if ok {
			filtered = append(filtered, row)
		}
	}

	outCols := make([]string, len(items))
	for i, it := range items {
		outCols[i] = it.name
	}
	out := &rawResult{cols: outCols}

	if !grouped {
		if orderCI >= 0 {
			sortCalls.Add(1)
			sortRows(filtered, orderCI, s.Desc)
		}
		if limit >= 0 && len(filtered) > limit {
			filtered = filtered[:limit]
		}
		for _, row := range filtered {
			r := make([]value, len(items))
			for i, it := range items {
				r[i] = row[it.ci]
			}
			out.rows = append(out.rows, r)
		}
		return out, nil
	}

	// Grouping: key rows by the indexKey rendering of their GROUP BY
	// columns (the same coercion equality uses: int 1 and text '1'
	// group together), groups in first-seen row order.
	type group struct {
		first []value // representative row: group columns are equal within a group
		aggs  []aggState
	}
	var groups []*group
	byKey := map[string]*group{}
	var kb strings.Builder
	for _, row := range filtered {
		kb.Reset()
		for _, ci := range groupCIs {
			kb.WriteString(indexKey(row[ci]))
			kb.WriteByte(0)
		}
		key := kb.String()
		g := byKey[key]
		if g == nil {
			g = &group{first: row, aggs: make([]aggState, len(items))}
			byKey[key] = g
			groups = append(groups, g)
		}
		for i, it := range items {
			switch {
			case it.agg == "":
				// group column: value carried by first
			case it.ci < 0: // COUNT(*)
				g.aggs[i].count++
			default:
				g.aggs[i].observe(it.agg, row[it.ci])
			}
		}
	}
	// A whole-input aggregate (no GROUP BY columns) always yields one
	// row, even over empty input: COUNT(*) of nothing is 0, SUM is NULL.
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{aggs: make([]aggState, len(items))})
	}

	if orderCI >= 0 {
		sortCalls.Add(1)
		sort.SliceStable(groups, func(i, j int) bool {
			if s.Desc {
				return valueLess(groups[j].first[orderCI], groups[i].first[orderCI])
			}
			return valueLess(groups[i].first[orderCI], groups[j].first[orderCI])
		})
	}
	if limit >= 0 && len(groups) > limit {
		groups = groups[:limit]
	}
	for _, g := range groups {
		r := make([]value, len(items))
		for i, it := range items {
			switch {
			case it.agg == "":
				r[i] = g.first[it.ci]
			case it.ci < 0:
				r[i] = intValue(g.aggs[i].count)
			default:
				r[i] = g.aggs[i].result(it.agg)
			}
		}
		out.rows = append(out.rows, r)
	}
	return out, nil
}
