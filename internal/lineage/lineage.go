// Package lineage is the runtime flow monitor: it records provenance
// edges as tracked values cross instrumented boundaries (string ops,
// serialization, SQL shadow-column round-trips, wire frames, filter
// verdicts), and answers "show every boundary this value crossed".
//
// RESIN's policy sets say what a value carries; lineage says where it
// has been. Edges are keyed on policy *content*, not object identity:
// a password re-instantiated by an annotation decode on the far side of
// a SQL or wire round-trip continues the same trace, because its policy
// class + data fields serialize to the same canonical label. Interned
// set pointers (intern.go) make the label lookup a single map hit per
// distinct set instance.
//
// Recording is off by default and zero-cost while off: instrumented
// sites in core and the boundary packages check one package-level
// atomic gate (core.LineageEnabled) before computing anything. The
// monitor installs its callbacks into core's hook points at package
// init (core itself must stay stdlib-only, so the dependency points
// this way). docs/LINEAGE.md is the normative spec.
package lineage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"resin/internal/core"
)

// Edge is one recorded provenance step: a value whose policy content is
// Set crossed boundary node To via operation Op, having last been seen
// at node From ("" when this is the first recorded crossing — the
// source). Seq is a global monotonic order over all recorded edges.
type Edge struct {
	Seq  uint64
	Op   string // crossing kind: "append", "serialize", "sql-store", "filter-deny", ...
	From string // previous node for this policy content; "" at the source
	To   string // node crossed: "core.encode", "sql:users.password", "wire.frame", ...
	Set  string // rendered policy set at record time, e.g. "{hotcrp.PasswordPolicy}"
}

const (
	// maxStates bounds tracked policy contents (a core.Cache: up to half
	// of them, and any content still crossing boundaries, survive churn;
	// idle ones are evicted).
	maxStates = 16384
	// maxEventsPerState bounds stored edges per policy content; beyond
	// it edges advance the cursor but are counted as dropped.
	maxEventsPerState = 512
	// maxParents bounds derivation links per policy content.
	maxParents = 16
	// maxLabelMemo bounds the set-pointer → label memo.
	maxLabelMemo = 32768
)

// setState is everything the monitor knows about one policy content.
type setState struct {
	label   string
	last    string // most recent node; becomes From of the next edge
	events  []Edge
	parents []string // labels of sets this content was derived from (unions)
	dropped int
}

var mon struct {
	mu       sync.Mutex
	seq      uint64
	labels   *core.Cache[*core.PolicySet, string] // pointer → content-label memo
	states   *core.Cache[string, *setState]       // content label → state
	seenPair map[string]bool                      // (from, to) pairs already observed
	observer func(Edge)
}

func init() {
	Reset()
	core.SetLineageHooks(record, derive)
}

// Enable turns lineage recording on (the Reiss always-on mode when left
// enabled in production). Instrumented sites start reporting edges.
func Enable() { core.SetLineageGate(true) }

// Disable turns recording off; already-recorded state is kept and
// remains queryable until Reset.
func Disable() { core.SetLineageGate(false) }

// Enabled reports whether recording is on.
func Enabled() bool { return core.LineageEnabled() }

// Reset discards all recorded state and restarts the sequence counter.
func Reset() {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	mon.seq = 0
	mon.labels = core.NewCache[*core.PolicySet, string](maxLabelMemo, 0, 0)
	mon.states = core.NewCache[string, *setState](maxStates, 0, 0)
	mon.seenPair = nil
}

// SetObserver installs a callback invoked once per never-before-seen
// (From, To) node pair, at the moment the edge is recorded — before any
// assertion at that boundary fires. A nil fn removes the observer. The
// callback runs outside the monitor lock and must not retain the Edge's
// ordering assumptions across calls.
func SetObserver(fn func(Edge)) {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	mon.observer = fn
}

// Stats summarizes monitor occupancy.
type Stats struct {
	Sets    int // tracked policy contents
	Events  int // stored edges across all contents
	Dropped int // edges dropped at per-content cap
	Flushes int // state-table generation rotations at cap
}

// ReadStats returns current monitor occupancy.
func ReadStats() Stats {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	s := Stats{Sets: mon.states.Len(), Flushes: int(mon.states.Stats().Rotations)}
	for _, st := range mon.states.Values() {
		s.Events += len(st.events)
		s.Dropped += st.dropped
	}
	return s
}

// Trace returns the ordered edge list for every policy content carried
// by v's spans, including edges of the contents they were derived from
// (transitively). Edges are sorted by Seq — source first.
func Trace(v core.String) []Edge {
	var sets []*core.PolicySet
	_ = v.EachTaintedSpan(func(_, _ int, ps *core.PolicySet) error {
		for _, have := range sets {
			if have == ps {
				return nil
			}
		}
		sets = append(sets, ps)
		return nil
	})
	return traceSets(sets)
}

// TraceSet is Trace for a bare policy set (e.g. an Int's policies).
func TraceSet(ps *core.PolicySet) []Edge {
	if ps.Len() == 0 {
		return nil
	}
	return traceSets([]*core.PolicySet{ps})
}

func traceSets(sets []*core.PolicySet) []Edge {
	if len(sets) == 0 {
		return nil
	}
	mon.mu.Lock()
	defer mon.mu.Unlock()
	queue := make([]string, 0, len(sets))
	for _, ps := range sets {
		if ps.Len() > 0 {
			queue = append(queue, labelLocked(ps))
		}
	}
	visited := make(map[string]bool, len(queue))
	var out []Edge
	for len(queue) > 0 {
		lbl := queue[0]
		queue = queue[1:]
		if visited[lbl] {
			continue
		}
		visited[lbl] = true
		st, ok := mon.states.Get(lbl)
		if !ok {
			continue
		}
		out = append(out, st.events...)
		queue = append(queue, st.parents...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// RenderText renders edges one per line:
//
//	#3 sql-load    sql:users.password -> sql:users.password {docs.PasswordPolicy}
//
// The format is pinned by the docs/LINEAGE.md worked example's test.
func RenderText(edges []Edge) string {
	var b strings.Builder
	for _, e := range edges {
		from := e.From
		if from == "" {
			from = "(source)"
		}
		fmt.Fprintf(&b, "#%d %-11s %s -> %s %s\n", e.Seq, e.Op, from, e.To, e.Set)
	}
	return b.String()
}

// record is the hook core calls for every boundary crossing (gate
// already checked, set non-empty).
func record(set *core.PolicySet, op, node string) {
	mon.mu.Lock()
	st := stateFor(set)
	from := st.last
	// Collapse immediate repeats: page renders cross the same boundary
	// with the same content many times in a row.
	if n := len(st.events); n > 0 {
		if prev := st.events[n-1]; prev.Op == op && prev.To == node && prev.From == from {
			mon.mu.Unlock()
			return
		}
	}
	mon.seq++
	e := Edge{Seq: mon.seq, Op: op, From: from, To: node, Set: set.String()}
	if len(st.events) < maxEventsPerState {
		st.events = append(st.events, e)
	} else {
		st.dropped++
	}
	st.last = node
	var obs func(Edge)
	if mon.observer != nil {
		pair := from + "\x1f" + node
		if mon.seenPair == nil {
			mon.seenPair = make(map[string]bool, 64)
		}
		if !mon.seenPair[pair] {
			mon.seenPair[pair] = true
			obs = mon.observer
		}
	}
	mon.mu.Unlock()
	if obs != nil {
		obs(e)
	}
}

// derive is the hook core calls when a new policy set is built from
// parents (Union, Add, MergePolicies), linking the child's content to
// its parents' so Trace can follow unions backwards.
func derive(child, a, b *core.PolicySet) {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	st := stateFor(child)
	addParent(st, a)
	addParent(st, b)
}

func addParent(st *setState, p *core.PolicySet) {
	if p.Len() == 0 || len(st.parents) >= maxParents {
		return
	}
	lbl := labelLocked(p)
	if lbl == st.label {
		return
	}
	for _, have := range st.parents {
		if have == lbl {
			return
		}
	}
	st.parents = append(st.parents, lbl)
}

// stateFor returns the state for set's content, creating it (and its
// label) as needed. Caller holds mon.mu.
func stateFor(set *core.PolicySet) *setState {
	lbl := labelLocked(set)
	if st, ok := mon.states.Get(lbl); ok {
		return st
	}
	return mon.states.Add(lbl, &setState{label: lbl}, 0)
}

// labelLocked returns the content label for set, memoized per pointer.
// Caller holds mon.mu.
func labelLocked(set *core.PolicySet) string {
	if lbl, ok := mon.labels.Get(set); ok {
		return lbl
	}
	return mon.labels.Add(set, labelOf(set), 0)
}

// labelOf computes the canonical content label of a policy set: the
// sorted serialized forms of its members. Registered policy classes use
// their persistent encoding (class name + JSON data fields — exactly
// what survives a SQL or wire round-trip, which is why decode-side
// fresh instances land on the same label); unregistered policies fall
// back to type name + formatted fields.
func labelOf(set *core.PolicySet) string {
	parts := make([]string, 0, set.Len())
	_ = set.Each(func(p core.Policy) error {
		if enc, err := core.EncodePolicy(p); err == nil {
			parts = append(parts, string(enc))
		} else {
			parts = append(parts, core.PolicyName(p)+fmt.Sprintf("%+v", p))
		}
		return nil
	})
	sort.Strings(parts)
	return strings.Join(parts, "\x1f")
}
