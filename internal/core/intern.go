package core

import "reflect"

// Policy-set interning. Real workloads create the same handful of
// policy sets over and over: every byte of a password carries
// {PasswordPolicy}, every form field carries {UntrustedData}, and every
// concatenation, slice, and SQL/HTTP boundary crossing compares or
// unions those same sets.
//
// Identity has one rule: two sets are equal when their members are the
// same policy objects (samePolicy), whatever their order. A set whose
// members are all pointers also carries a hash, computed once when the
// set is built: the sum of a mix of each member's (dynamic type,
// address) pair. The sum is commutative, so member order does not
// matter, and equal sets have equal hashes. The hash keys the intern
// table and lets Equal reject unequal sets early; it never decides that
// two sets are equal — that takes a member-wise check. The type is in
// the key because Go may give every zero-sized object one address:
// without it {SQLSanitized} and {HTMLSanitized} would share a key, and
// whichever came second would never intern.
//
// Sets with proven reuse — deserialized annotations (whose policies are
// canonical instances), long-lived application sets, anything the
// caller passes to Intern — are canonicalized into the process-wide
// intern table. Among interned sets, equal members means identical
// pointer, and Union of a previously-seen pair is a hit in the memoized
// pairwise-union cache. Unions of interned operands intern their
// results, so once a workload's base sets are interned the whole derived
// lattice rides the fast paths ("interned begets interned"). One-shot
// sets (a fresh policy attached to one request's form field) are never
// registered and stay as collectable as any other value.
//
// Value (non-pointer) policies have no address; a set containing one
// has no hash and never interns, matching the package's guidance that
// policies be pointers to structs.
//
// The intern table and union cache pin their entries, so both are
// bounded Caches (cache.go): a set or union touched once per half a cap
// of churn keeps its canonical instance, and one that falls out is
// merely deduplicated afresh. Correctness never depends on either table,
// so eviction is always safe.

const (
	// maxInternedSets caps the set intern table (and the policy-instance
	// table); a working set of up to half of it stays interned.
	maxInternedSets = 1 << 16

	// maxUnionCacheEntries caps the memoized pairwise-union cache; a
	// working set of up to half of it, 32768 unions, never misses.
	maxUnionCacheEntries = 1 << 16
)

// policyHash returns the hash of a deduplicated member list: the sum of
// a splitmix64 mix of each member's dynamic type and address, so member
// order does not matter. ok=false if a member is not a pointer.
func policyHash(policies []Policy) (h uint64, ok bool) {
	for _, p := range policies {
		v := reflect.ValueOf(p)
		if v.Kind() != reflect.Pointer {
			return 0, false
		}
		typ := reflect.ValueOf(v.Type()).Pointer()
		h += mix64(uint64(v.Pointer()) ^ mix64(uint64(typ)))
	}
	return h, true
}

// mix64 is splitmix64's finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// anyMerger reports whether any policy implements the Merger extension;
// cached per set so MergePolicies can take the pure-union fast path.
func anyMerger(policies []Policy) bool {
	for _, p := range policies {
		if _, ok := p.(Merger); ok {
			return true
		}
	}
	return false
}

var (
	// internCache maps a set's hash to its canonical instance. A hit is
	// trusted only if its members match; a set whose hash collides with
	// another's stays uninterned, which costs only the fast paths, never
	// correctness.
	internCache = NewCache[uint64, *PolicySet](maxInternedSets, 0, 0)
	// unionCache memoizes Union of two interned sets.
	unionCache = NewCache[unionKey, *PolicySet](maxUnionCacheEntries, 0, 0)
)

// Intern canonicalizes s into the process-wide intern table and returns
// the canonical instance: the first set with these members that was
// interned. Interning is worthwhile for sets that will be compared or
// unioned repeatedly — long-lived application policy sets, memoized
// deserialized annotations — and is a no-op for sets with a non-pointer
// member. A hit in the table's old generation promotes the canonical
// instance, so frequently-interned sets survive churn. A candidate is
// verified member-wise, so a hash collision costs a miss and never
// merges two different sets.
func (s *PolicySet) Intern() *PolicySet {
	if s.Len() == 0 {
		return EmptySet
	}
	if s.interned || !s.hashed {
		return s
	}
	c, ok := internCache.Get(s.hash)
	if !ok {
		// Register a fresh canonical instance rather than mutating s,
		// which may be shared with concurrent readers. The member slice
		// is immutable and safely shared.
		c = internCache.Add(s.hash, &PolicySet{
			policies: s.policies,
			hash:     s.hash,
			hashed:   true,
			interned: true,
			mergers:  s.mergers,
		}, 0)
	}
	if !c.Equal(s) {
		return s
	}
	return c
}

// unionKey memoizes Union(a, b) for interned operands. Union is
// commutative, so the key is normalized by hash order —
// (a, b) and (b, a) share one entry (pairs whose hashes collide may
// still occupy two, which the cap absorbs).
type unionKey struct{ a, b *PolicySet }

func newUnionKey(a, b *PolicySet) unionKey {
	if a.hash > b.hash {
		a, b = b, a
	}
	return unionKey{a, b}
}

// InternStats is a snapshot of the interning machinery's counters,
// exposed for tests, benchmarks, and operational debugging.
type InternStats struct {
	// Sets is the number of canonical sets in the intern table
	// (both generations).
	Sets uint64
	// SetHits / SetMisses count Intern calls that found / created a
	// canonical instance.
	SetHits, SetMisses uint64
	// Promotions counts old-generation hits that moved a set back into
	// the young generation.
	Promotions uint64
	// UnionHits / UnionMisses count memoized-union lookups.
	UnionHits, UnionMisses uint64
	// UnionEntries is the number of memoized union results.
	UnionEntries uint64
	// Flushes counts intern-table plus union-cache generation rotations.
	Flushes uint64
	// Instances is the number of canonical decoded policies in the
	// policy-instance table (see DecodePolicy); InstanceHits /
	// InstanceMisses count decodes that returned one / instantiated a
	// new object, InstanceRotations its generation rotations.
	Instances, InstanceHits, InstanceMisses, InstanceRotations uint64
}

// ReadInternStats returns a snapshot of the interning counters.
func ReadInternStats() InternStats {
	sets, unions, inst := internCache.Stats(), unionCache.Stats(), policyInstances.Stats()
	return InternStats{
		Sets:              uint64(internCache.Len()),
		SetHits:           sets.Hits,
		SetMisses:         sets.Misses,
		Promotions:        sets.Promotions,
		UnionHits:         unions.Hits,
		UnionMisses:       unions.Misses,
		UnionEntries:      uint64(unionCache.Len()),
		Flushes:           sets.Rotations + unions.Rotations,
		Instances:         uint64(policyInstances.Len()),
		InstanceHits:      inst.Hits,
		InstanceMisses:    inst.Misses,
		InstanceRotations: inst.Rotations,
	}
}
