package core

import "strings"

// PolicySet is an immutable set of policy objects. A datum's policy set
// holds every policy attached to it (§3.4: "a single datum may have
// multiple policy objects, all contained in the datum's policy set").
//
// The zero value and the nil pointer are both the empty set. All methods
// are safe on a nil receiver, and all mutating operations return a new set,
// so PolicySets may be freely shared between spans and strings.
//
// Members are compared by identity (samePolicy). Construction hashes a
// set of pointer policies once (see intern.go), so Equal rejects most
// unequal sets without a scan. Sets with proven reuse can be
// canonicalized into a process-wide table with Intern, after which
// equality is a pointer comparison and unions are memoized. Sets
// holding non-pointer policy objects have no hash and never intern; all
// methods handle every form.
type PolicySet struct {
	policies []Policy
	// hash is policyHash of the members; valid only when hashed (every
	// member is a pointer policy).
	hash   uint64
	hashed bool
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
// computing its hash. It takes ownership of policies.
func newPolicySet(policies []Policy) *PolicySet {
	if len(policies) == 0 {
		return EmptySet
	}
	s := &PolicySet{policies: policies, mergers: anyMerger(policies)}
	s.hash, s.hashed = policyHash(policies)
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
// Every member of a hashed set is a pointer, so there == is samePolicy:
// it compares a pointer p by identity, and an interface of another
// dynamic type is unequal without comparing, so it cannot panic.
func (s *PolicySet) Contains(p Policy) bool {
	if s == nil {
		return false
	}
	if s.hashed {
		for _, q := range s.policies {
			if p == q {
				return true
			}
		}
		return false
	}
	for _, q := range s.policies {
		if samePolicy(p, q) {
			return true
		}
	}
	return false
}

// subsetOf reports whether every member of s is a member of t.
func (s *PolicySet) subsetOf(t *PolicySet) bool {
	if s.Len() == 0 {
		return true
	}
	if s.Len() > t.Len() {
		return false
	}
	for _, p := range s.policies {
		if !t.Contains(p) {
			return false
		}
	}
	return true
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
// cases return an operand without allocating; unions of interned
// operands are memoized, and their results interned, so a workload whose
// base sets are interned pays one cache lookup per repeated union.
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
	// The cache comes before the subset tests: a hit is one lookup,
	// where the tests scan both member lists.
	bothInterned := s.interned && t.interned
	if bothInterned {
		if u, ok := unionCache.Get(newUnionKey(s, t)); ok {
			lineageDerive(u, s, t)
			return u
		}
	}
	if t.subsetOf(s) {
		return s
	}
	if s.subsetOf(t) {
		return t
	}
	out := make([]Policy, 0, len(s.policies)+len(t.policies))
	out = append(out, s.policies...)
	for _, p := range t.policies {
		if !s.Contains(p) {
			out = append(out, p)
		}
	}
	u := newPolicySet(out)
	if bothInterned {
		u = unionCache.Add(newUnionKey(s, t), u.Intern(), 0)
	}
	lineageDerive(u, s, t)
	return u
}

// Equal reports whether s and t contain the same policy objects,
// disregarding order. Identical instances (the common case for
// interned and span-shared sets) compare by pointer, and sets whose
// hashes differ are unequal; otherwise the members decide.
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
	if s.hashed && t.hashed && s.hash != t.hash {
		return false
	}
	return s.subsetOf(t)
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
// the union, so the Union fast paths (subsets, memoized interned pairs)
// apply.
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
