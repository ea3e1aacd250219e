package core

import (
	"fmt"
	"sort"
	"strings"
)

// String is a tracked string: an immutable sequence of bytes where every
// byte carries a (possibly empty) policy set. This is the Go analogue of
// the paper's modified PHP zval — RESIN "attaches a policy object to a
// datum — a primitive data element such as an integer or a character in a
// string" and tracks policies "in a fine grained manner" (§3.4): when
// "foo" (policy p1) is concatenated with "bar" (policy p2), the first three
// bytes of "foobar" carry only p1 and the last three only p2, and slicing
// the first three bytes back out recovers a string carrying only p1.
//
// The representation is the raw string plus a canonical span list: spans
// are sorted, non-overlapping, non-empty, lie within the string, carry
// non-empty policy sets, and adjacent spans with equal policy sets are
// coalesced. Bytes not covered by any span carry no policies.
//
// String values are immutable; every operation returns a new String.
// The zero value is the empty string with no policies.
type String struct {
	s     string
	spans []span
}

// span attaches a policy set to the byte range [start, end) of a String.
type span struct {
	start, end int
	ps         *PolicySet
}

// NewString wraps a raw Go string with no policies attached.
func NewString(s string) String { return String{s: s} }

// NewStringPolicy wraps a raw Go string with policies attached to every byte.
func NewStringPolicy(s string, ps ...Policy) String {
	return NewString(s).WithPolicy(ps...)
}

// makeString builds a String from a raw string and a span list that is
// already sorted and non-overlapping, normalizing it into canonical form.
func makeString(s string, spans []span) String {
	return String{s: s, spans: normalizeSpans(s, spans)}
}

// normalizeSpans clips spans to the string, drops empty spans and empty
// policy sets, and coalesces adjacent spans with equal policy sets. The
// input must be sorted by start and non-overlapping.
func normalizeSpans(s string, spans []span) []span {
	if len(spans) == 0 {
		return nil
	}
	out := make([]span, 0, len(spans))
	for _, sp := range spans {
		if sp.start < 0 {
			sp.start = 0
		}
		if sp.end > len(s) {
			sp.end = len(s)
		}
		if sp.start >= sp.end || sp.ps.IsEmpty() {
			continue
		}
		if n := len(out); n > 0 && out[n-1].end == sp.start && out[n-1].ps.Equal(sp.ps) {
			out[n-1].end = sp.end
			continue
		}
		out = append(out, sp)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Raw returns the underlying Go string, discarding no data but carrying no
// policies. Exporting Raw output bypasses tracking; it is intended for
// boundaries that have already run their filters, and for diagnostics.
func (t String) Raw() string { return t.s }

// Len returns the length of the string in bytes.
func (t String) Len() int { return len(t.s) }

// IsEmpty reports whether the string has zero length.
func (t String) IsEmpty() bool { return len(t.s) == 0 }

// IsTainted reports whether any byte of the string carries any policy.
func (t String) IsTainted() bool { return len(t.spans) > 0 }

// String implements fmt.Stringer; it renders the raw text (use Describe for
// a policy-annotated rendering).
func (t String) String() string { return t.s }

// Describe renders the string together with its policy spans for
// diagnostics, e.g. `"foobar" [0:3 {P1}] [3:6 {P2}]`.
func (t String) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q", t.s)
	for _, sp := range t.spans {
		fmt.Fprintf(&b, " [%d:%d %s]", sp.start, sp.end, sp.ps.String())
	}
	return b.String()
}

// PoliciesAt returns the policy set attached to the byte at index i, or the
// empty set if i is out of range or untracked.
func (t String) PoliciesAt(i int) *PolicySet {
	for _, sp := range t.spans {
		if i < sp.start {
			break
		}
		if i < sp.end {
			return sp.ps
		}
	}
	return EmptySet
}

// Policies returns the union of every policy attached to any byte of the
// string. This is the paper's policy_get(data) for whole-string queries.
func (t String) Policies() *PolicySet {
	out := EmptySet
	for _, sp := range t.spans {
		out = out.Union(sp.ps)
	}
	return out
}

// SpanCount returns the number of distinct policy spans; useful for tests
// and for the span-coalescing ablation benchmark.
func (t String) SpanCount() int { return len(t.spans) }

// EachSpan calls fn for every maximal run of bytes [start, end) carrying
// the same policy set, including uncovered runs (with the empty set), in
// order. fn returning a non-nil error stops the walk and returns the error.
func (t String) EachSpan(fn func(start, end int, ps *PolicySet) error) error {
	pos := 0
	for _, sp := range t.spans {
		if pos < sp.start {
			if err := fn(pos, sp.start, EmptySet); err != nil {
				return err
			}
		}
		if err := fn(sp.start, sp.end, sp.ps); err != nil {
			return err
		}
		pos = sp.end
	}
	if pos < len(t.s) {
		return fn(pos, len(t.s), EmptySet)
	}
	return nil
}

// EachTaintedSpan calls fn for every policy-carrying span, in order.
func (t String) EachTaintedSpan(fn func(start, end int, ps *PolicySet) error) error {
	for _, sp := range t.spans {
		if err := fn(sp.start, sp.end, sp.ps); err != nil {
			return err
		}
	}
	return nil
}

// WithPolicy returns a copy of the string with the given policies added to
// every byte (the paper's policy_add(data, policy)).
func (t String) WithPolicy(ps ...Policy) String {
	return t.WithPolicyRange(0, len(t.s), ps...)
}

// WithPolicyRange returns a copy with the given policies added to bytes in
// [start, end), clipped to the string bounds.
func (t String) WithPolicyRange(start, end int, ps ...Policy) String {
	return t.withSetRange(start, end, NewPolicySet(ps...))
}

// withSetRange adds every policy of add to bytes in [start, end),
// clipped to the string bounds.
func (t String) withSetRange(start, end int, add *PolicySet) String {
	if add.IsEmpty() || len(t.s) == 0 {
		return t
	}
	if start < 0 {
		start = 0
	}
	if end > len(t.s) {
		end = len(t.s)
	}
	if start >= end {
		return t
	}
	return String{s: t.s, spans: unionRange(t.spans, start, end, add)}
}

// unionRange returns the canonical span list of spans — canonical, as
// every String's is — with add united into every byte of [start, end),
// built in one pass: spans outside the range are kept, the gaps inside
// it get add, the spans inside it their union with add.
func unionRange(spans []span, start, end int, add *PolicySet) []span {
	out := make([]span, 0, len(spans)+2)
	push := func(s, e int, ps *PolicySet) {
		if s >= e {
			return
		}
		if n := len(out); n > 0 && out[n-1].end == s && out[n-1].ps.Equal(ps) {
			out[n-1].end = e
			return
		}
		out = append(out, span{s, e, ps})
	}
	pos := start // the first byte of the range no span has reached yet
	for _, sp := range spans {
		if sp.end <= start || sp.start >= end {
			if sp.start >= end {
				push(pos, end, add)
				pos = end
			}
			push(sp.start, sp.end, sp.ps)
			continue
		}
		push(sp.start, start, sp.ps)
		push(pos, sp.start, add)
		pos = min(sp.end, end)
		push(max(sp.start, start), pos, sp.ps.Union(add))
		push(end, sp.end, sp.ps)
	}
	push(pos, end, add)
	return out
}

// WithPolicySet returns a copy of the string with every policy of ps
// added to every byte. Callers that taint many strings with the same
// policies should build the set once (ideally interned, see
// PolicySet.Intern) and attach it through this method, so all the
// resulting spans share one canonical set and downstream comparisons
// stay on the pointer fast paths.
func (t String) WithPolicySet(ps *PolicySet) String { return t.withSet(ps) }

// WithoutPolicy returns a copy with the given policy objects removed from
// every byte (the paper's policy_remove(data, policy)).
func (t String) WithoutPolicy(ps ...Policy) String {
	if len(t.spans) == 0 {
		return t
	}
	return t.mapRange(0, len(t.s), func(old *PolicySet) *PolicySet {
		out := old
		for _, p := range ps {
			out = out.Remove(p)
		}
		return out
	})
}

// WithoutPolicyIf returns a copy with all policies satisfying pred removed
// from every byte. Filters use this to strip policy classes at boundaries
// (e.g. an encryption function stripping confidentiality policies, §3.2).
func (t String) WithoutPolicyIf(pred func(Policy) bool) String {
	if len(t.spans) == 0 {
		return t
	}
	return t.mapRange(0, len(t.s), func(old *PolicySet) *PolicySet {
		return old.RemoveIf(pred)
	})
}

// mapRange rebuilds the span list, applying fn to the policy set of every
// byte in [start, end); bytes outside keep their sets. fn receives the
// existing set (possibly empty) and returns the replacement set.
func (t String) mapRange(start, end int, fn func(*PolicySet) *PolicySet) String {
	// Walk every maximal run (covered or not) and split it at the range
	// boundaries, applying fn inside the range; a run splits into at most
	// three segments, so pre-size for the common case.
	spans := make([]span, 0, len(t.spans)+2)
	t.EachSpan(func(s, e int, ps *PolicySet) error { //nolint:errcheck // fn never fails
		for s < e {
			segEnd := e
			inRange := s >= start && s < end
			if inRange && end < segEnd {
				segEnd = end
			}
			if !inRange && s < start && start < segEnd {
				segEnd = start
			}
			nps := ps
			if inRange {
				nps = fn(ps)
			}
			spans = append(spans, span{s, segEnd, nps})
			s = segEnd
		}
		return nil
	})
	return makeString(t.s, spans)
}

// HasPolicyEverywhere reports whether every byte of the string carries at
// least one policy satisfying pred. The empty string satisfies it
// vacuously. The interpreter's code-import filter uses this: "filter_read
// verifies that each character in $buf has the CodeApproval policy" (§5.2).
func (t String) HasPolicyEverywhere(pred func(Policy) bool) bool {
	ok := true
	t.EachSpan(func(s, e int, ps *PolicySet) error { //nolint:errcheck
		if !ps.Any(pred) {
			ok = false
		}
		return nil
	})
	return ok
}

// FindPolicy returns the first byte range carrying a policy satisfying
// pred, or ok=false if no byte does. SQL/HTML filters use this to point at
// the offending characters in error messages.
func (t String) FindPolicy(pred func(Policy) bool) (start, end int, ok bool) {
	for _, sp := range t.spans {
		if sp.ps.Any(pred) {
			return sp.start, sp.end, true
		}
	}
	return 0, 0, false
}

// invariantErr checks the canonical-form invariants; tests and the
// property-based suite call this after every operation.
func (t String) invariantErr() error {
	prev := 0
	for i, sp := range t.spans {
		if sp.start < 0 || sp.end > len(t.s) {
			return fmt.Errorf("span %d [%d:%d) outside string of len %d", i, sp.start, sp.end, len(t.s))
		}
		if sp.start >= sp.end {
			return fmt.Errorf("span %d [%d:%d) empty or inverted", i, sp.start, sp.end)
		}
		if sp.start < prev {
			return fmt.Errorf("span %d [%d:%d) overlaps or unsorted (prev end %d)", i, sp.start, sp.end, prev)
		}
		if sp.ps.IsEmpty() {
			return fmt.Errorf("span %d [%d:%d) carries empty policy set", i, sp.start, sp.end)
		}
		if i > 0 && t.spans[i-1].end == sp.start && t.spans[i-1].ps.Equal(sp.ps) {
			return fmt.Errorf("span %d [%d:%d) not coalesced with predecessor", i, sp.start, sp.end)
		}
		prev = sp.end
	}
	return nil
}

// sortSpans sorts a span slice by start offset (helper for builders that
// assemble spans out of order).
func sortSpans(spans []span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
}
