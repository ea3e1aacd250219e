package core

import (
	"slices"
	"strings"
)

// PolicySet is an immutable set of policy objects. A datum's policy set
// holds every policy attached to it (§3.4: "a single datum may have
// multiple policy objects, all contained in the datum's policy set").
//
// The zero value and the nil pointer are both the empty set. All methods
// are safe on a nil receiver, and all mutating operations return a new set,
// so PolicySets may be freely shared between spans and strings.
//
// Construction computes a canonical identity — sorted member IDs plus a
// hash — for sets of pointer policies (see intern.go), which decides
// Equal and accelerates Union and subset tests without reflection or
// member-wise scans. Sets with proven reuse can additionally be
// canonicalized into a process-wide table with Intern, after which
// equality is a pointer comparison and unions are memoized. Sets
// holding non-pointer policy objects fall back to member-wise
// comparisons; all methods handle every form.
type PolicySet struct {
	policies []Policy
	// ids holds the members' canonical IDs, sorted ascending; valid
	// only when idsOK. It backs O(log n) membership, O(n) equality and
	// subset tests over plain integers.
	ids []uint64
	// hash is the canonical FNV-1a hash of ids; valid only when idsOK.
	hash uint64
	// idsOK marks ids/hash as computed (every member is a pointer
	// policy with a well-defined address identity).
	idsOK bool
	// interned marks an instance that was registered in the intern
	// table (possibly since evicted); such sets are eligible for the
	// memoized-union cache, and while it stays in the table equal
	// members yield the same instance.
	interned bool
	// mergers caches whether any member implements Merger, so
	// MergePolicies can short-circuit to a pure union.
	mergers bool
}

// EmptySet is the canonical empty policy set.
var EmptySet = &PolicySet{interned: true}

// newPolicySet builds a set from an already-deduplicated member list,
// computing its canonical identity. It takes ownership of policies.
func newPolicySet(policies []Policy) *PolicySet {
	if len(policies) == 0 {
		return EmptySet
	}
	s := &PolicySet{policies: policies, mergers: anyMerger(policies)}
	s.ids, s.hash, s.idsOK = computePolicyIDs(policies)
	return s
}

// NewPolicySet builds a set from the given policies, dropping nils and
// duplicates (by object identity).
func NewPolicySet(ps ...Policy) *PolicySet {
	if len(ps) == 0 {
		return EmptySet
	}
	out := make([]Policy, 0, len(ps))
	for _, p := range ps {
		if p == nil {
			continue
		}
		out = appendUniquePolicy(out, p)
	}
	return newPolicySet(out)
}

// appendUniquePolicy appends p to dst unless an identical policy (per
// samePolicy) is already present.
func appendUniquePolicy(dst []Policy, p Policy) []Policy {
	for _, q := range dst {
		if samePolicy(p, q) {
			return dst
		}
	}
	return append(dst, p)
}

// Len returns the number of policies in the set.
func (s *PolicySet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.policies)
}

// IsEmpty reports whether the set has no policies.
func (s *PolicySet) IsEmpty() bool { return s.Len() == 0 }

// Interned reports whether s is a canonical interned instance.
func (s *PolicySet) Interned() bool { return s != nil && s.interned }

// Policies returns the policies in the set as a fresh slice that the caller
// may modify.
func (s *PolicySet) Policies() []Policy {
	if s.Len() == 0 {
		return nil
	}
	out := make([]Policy, len(s.policies))
	copy(out, s.policies)
	return out
}

// Each calls fn for every policy in the set, stopping early if fn returns
// a non-nil error, which is returned.
func (s *PolicySet) Each(fn func(Policy) error) error {
	if s == nil {
		return nil
	}
	for _, p := range s.policies {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// Contains reports whether the set contains exactly the policy object p.
func (s *PolicySet) Contains(p Policy) bool {
	if s.Len() == 0 {
		return false
	}
	if s.idsOK {
		if id, ok := policyIdentity(p); ok {
			return containsPolicyID(s.ids, id)
		}
		// p is not a pointer policy, but every member is: only a
		// comparable-value member could match, and there are none.
		return false
	}
	for _, q := range s.policies {
		if samePolicy(p, q) {
			return true
		}
	}
	return false
}

// Any reports whether any policy in the set satisfies pred.
func (s *PolicySet) Any(pred func(Policy) bool) bool {
	if s == nil {
		return false
	}
	for _, p := range s.policies {
		if pred(p) {
			return true
		}
	}
	return false
}

// All reports whether every policy in the set satisfies pred. The empty
// set vacuously satisfies All.
func (s *PolicySet) All(pred func(Policy) bool) bool {
	if s == nil {
		return true
	}
	for _, p := range s.policies {
		if !pred(p) {
			return false
		}
	}
	return true
}

// Add returns a set that also contains p. If p is nil or already present
// the receiver is returned unchanged.
func (s *PolicySet) Add(p Policy) *PolicySet {
	if p == nil || s.Contains(p) {
		if s == nil {
			return EmptySet
		}
		return s
	}
	out := make([]Policy, 0, s.Len()+1)
	if s != nil {
		out = append(out, s.policies...)
	}
	out = append(out, p)
	u := newPolicySet(out)
	lineageDerive(u, s, nil)
	return u
}

// Remove returns a set without the policy object p (matched by identity).
func (s *PolicySet) Remove(p Policy) *PolicySet {
	if !s.Contains(p) {
		if s == nil {
			return EmptySet
		}
		return s
	}
	out := make([]Policy, 0, s.Len()-1)
	for _, q := range s.policies {
		if !samePolicy(p, q) {
			out = append(out, q)
		}
	}
	return newPolicySet(out)
}

// RemoveIf returns a set without the policies satisfying pred.
func (s *PolicySet) RemoveIf(pred func(Policy) bool) *PolicySet {
	if s.Len() == 0 {
		return EmptySet
	}
	out := make([]Policy, 0, s.Len())
	for _, q := range s.policies {
		if !pred(q) {
			out = append(out, q)
		}
	}
	if len(out) == len(s.policies) {
		return s
	}
	return newPolicySet(out)
}

// Union returns the set union of s and t (by object identity). Subset
// cases resolve by ID comparison without allocating; unions of interned
// operands are additionally memoized, and their results interned, so a
// workload whose base sets are interned pays one cache lookup per
// repeated union.
func (s *PolicySet) Union(t *PolicySet) *PolicySet {
	if t.Len() == 0 {
		if s == nil {
			return EmptySet
		}
		return s
	}
	if s.Len() == 0 || s == t {
		return t
	}
	bothIDs := s.idsOK && t.idsOK
	if bothIDs {
		if subsetPolicyIDs(t.ids, s.ids) {
			return s
		}
		if subsetPolicyIDs(s.ids, t.ids) {
			return t
		}
	}
	bothInterned := s.interned && t.interned
	if bothInterned {
		if u, ok := unionCache.Get(newUnionKey(s, t)); ok {
			lineageDerive(u, s, t)
			return u
		}
	}
	out := make([]Policy, 0, len(s.policies)+len(t.policies))
	out = append(out, s.policies...)
	added := false
	for _, p := range t.policies {
		if !s.Contains(p) {
			out = append(out, p)
			added = true
		}
	}
	var u *PolicySet
	if !added {
		u = s
	} else {
		u = newPolicySet(out)
		if bothInterned {
			u = u.Intern()
		}
		lineageDerive(u, s, t)
	}
	if bothInterned {
		unionCache.Add(newUnionKey(s, t), u, 0)
	}
	return u
}

// Equal reports whether s and t contain the same policy objects,
// disregarding order. Identical instances (the common case for
// interned and span-shared sets) compare by pointer; sets with
// canonical IDs compare hashes and ID lists; only sets of non-pointer
// policies fall back to member-wise comparison.
func (s *PolicySet) Equal(t *PolicySet) bool {
	if s == t {
		return true
	}
	if s.Len() != t.Len() {
		return false
	}
	if s == nil || t == nil {
		return true // both empty
	}
	if s.idsOK && t.idsOK {
		// Both sets are live, so ID equality is exactly member
		// identity (see the soundness note in intern.go).
		return s.hash == t.hash && slices.Equal(s.ids, t.ids)
	}
	for _, p := range s.policies {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// String renders the set for diagnostics, e.g. "{PasswordPolicy, UntrustedData}".
func (s *PolicySet) String() string {
	if s.Len() == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.policies {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(PolicyName(p))
	}
	b.WriteByte('}')
	return b.String()
}

// hasMerger reports whether any member implements Merger.
func (s *PolicySet) hasMerger() bool { return s != nil && s.mergers }

// MergePolicies implements the merge machinery of §3.4.2. When two data
// elements are merged by an operation that cannot preserve character-level
// tracking, the runtime invokes the merge method on each policy of each
// source operand, passing in the entire policy set of the other operand.
// The result is labelled with the union of all policies returned by all
// merge methods; a policy with no Merge method contributes itself (the
// default union strategy). Any Merge error aborts the operation.
//
// When neither operand carries a custom Merger, the result is exactly
// the union, so the Union fast paths (subset IDs, memoized interned
// pairs) apply.
func MergePolicies(a, b *PolicySet) (*PolicySet, error) {
	if a.Len() == 0 && b.Len() == 0 {
		return EmptySet, nil
	}
	if !a.hasMerger() && !b.hasMerger() {
		return a.Union(b), nil
	}
	var out []Policy
	mergeSide := func(side, other *PolicySet) error {
		if side == nil {
			return nil
		}
		for _, p := range side.policies {
			if m, ok := p.(Merger); ok {
				rs, err := m.Merge(other)
				if err != nil {
					return &AssertionError{Policy: p, Op: "merge", Err: err}
				}
				for _, r := range rs {
					if r != nil {
						out = appendUniquePolicy(out, r)
					}
				}
			} else {
				out = appendUniquePolicy(out, p)
			}
		}
		return nil
	}
	if err := mergeSide(a, b); err != nil {
		return nil, err
	}
	if err := mergeSide(b, a); err != nil {
		return nil, err
	}
	merged := newPolicySet(out)
	lineageDerive(merged, a, b)
	return merged, nil
}
