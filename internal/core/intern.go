package core

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
)

// Policy-set interning and canonical hashing. Real workloads create the
// same handful of policy sets over and over: every byte of a password
// carries {PasswordPolicy}, every form field carries {UntrustedData},
// and every concatenation, slice, and SQL/HTTP boundary crossing
// compares or unions those same sets. The machinery here makes those
// repeated operations cheap in two tiers:
//
//  1. Every set of pointer policies gets a locally-computed canonical
//     identity — the sorted, type-salted addresses of its members plus
//     an FNV-1a hash over them — at construction. Equality between two
//     live sets is then decided entirely by comparing those IDs: no
//     reflection, no member-wise scans, no global state, and nothing
//     for the garbage collector to retain. One-shot sets (a fresh
//     policy attached to one request's form field) stay exactly as
//     collectable as they were.
//
//  2. Sets with proven reuse — deserialized annotations (whose policies
//     are canonical instances), long-lived application sets, anything the caller
//     passes to Intern — are canonicalized into a process-wide intern
//     table. Among interned sets, equal members means identical
//     pointer, so Equal is a pointer comparison and Union of a
//     previously-seen pair is a hit in the memoized pairwise-union
//     cache. Unions of interned operands intern their results, so once
//     a workload's base sets are interned the whole derived lattice
//     rides the fast paths ("interned begets interned").
//
// This is the "heavy analysis once, cheap checks forever after" split:
// hashing and dedup run when a set is built; the tracking hot path pays
// pointer and integer comparisons.
//
// Identity soundness: an ID is the member's address XOR a per-dynamic-
// type salt. While the two sets being compared are live, their members
// are live, so two distinct objects cannot share an address — except
// zero-sized objects, which Go may co-allocate; those collide only
// within the same dynamic type, where samePolicy already treats
// same-address pointers as the same policy. Across types the salt
// separates them except for a 2^-64 XOR collision; transient ID
// comparisons accept that risk, while the intern table — whose
// conflation would persist — verifies every candidate member-wise.
// Value (non-pointer) policies have no address; a set containing one
// forgoes IDs and uses the member-wise slow paths, matching the
// package's guidance that policies be pointers to structs.
//
// The intern table and union cache pin their entries, so both are
// bounded Caches (cache.go): a set or union touched once per half a cap
// of churn keeps its canonical instance, and one that falls out is merely
// deduplicated afresh. Correctness never depends on either table —
// equality is decided by canonical IDs — so eviction is always safe.

const (
	// maxInternedSets caps the set intern table (and the policy-instance
	// table); a working set of up to half of it stays interned.
	maxInternedSets = 1 << 16

	// maxUnionCacheEntries caps the memoized pairwise-union cache; a
	// working set of up to half of it, 32768 unions, never misses.
	maxUnionCacheEntries = 1 << 16
)

// typeSalts assigns each policy dynamic type a distinct multiplicative
// salt, separating the IDs of zero-sized objects of different types
// that share an address. Bounded by the number of policy types in the
// program.
var (
	typeSalts   sync.Map // reflect.Type → uint64
	typeSaltSeq atomic.Uint64

	// lastSalt caches the most recently used (type, salt) pair; most
	// workloads touch one or two policy types, so this turns the common
	// lookup into an atomic load plus a pointer comparison.
	lastSalt atomic.Pointer[typeSaltEntry]
)

type typeSaltEntry struct {
	t    reflect.Type
	salt uint64
}

func typeSalt(t reflect.Type) uint64 {
	if e := lastSalt.Load(); e != nil && e.t == t {
		return e.salt
	}
	v, ok := typeSalts.Load(t)
	if !ok {
		// Derive a well-mixed salt from a sequence number (splitmix64).
		z := typeSaltSeq.Add(1) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v, _ = typeSalts.LoadOrStore(t, z)
		// Refresh the one-entry cache only on first sighting: a workload
		// whose sets mix several types would otherwise ping-pong the
		// shared cache line (an allocation plus a cross-core store per
		// member per set construction).
		lastSalt.Store(&typeSaltEntry{t: t, salt: v.(uint64)})
	}
	return v.(uint64)
}

// policyIdentity returns the canonical ID of a pointer policy, or
// ok=false for nil and non-pointer policies.
func policyIdentity(p Policy) (uint64, bool) {
	if p == nil {
		return 0, false
	}
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer {
		return 0, false
	}
	return uint64(v.Pointer()) ^ typeSalt(v.Type()), true
}

// computePolicyIDs builds the sorted ID list and canonical hash for a
// deduplicated member list. ok=false if any member lacks an identity.
func computePolicyIDs(policies []Policy) (ids []uint64, hash uint64, ok bool) {
	if len(policies) == 0 {
		return nil, 0, false
	}
	ids = make([]uint64, len(policies))
	for i, p := range policies {
		id, idOK := policyIdentity(p)
		if !idOK {
			return nil, 0, false
		}
		ids[i] = id
	}
	sortPolicyIDs(ids)
	return ids, hashPolicyIDs(ids), true
}

// hashPolicyIDs computes the canonical FNV-1a hash of a sorted ID list.
func hashPolicyIDs(ids []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range ids {
		for i := 0; i < 8; i++ {
			h ^= id & 0xff
			h *= prime64
			id >>= 8
		}
	}
	return h
}

// sortPolicyIDs sorts a tiny ID slice in place (insertion sort — sets
// rarely exceed a handful of members).
func sortPolicyIDs(ids []uint64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// containsPolicyID reports whether sorted ids contains id.
func containsPolicyID(ids []uint64, id uint64) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// subsetPolicyIDs reports whether every element of sorted sub occurs in
// sorted super (linear merge walk).
func subsetPolicyIDs(sub, super []uint64) bool {
	if len(sub) > len(super) {
		return false
	}
	j := 0
	for _, id := range sub {
		for j < len(super) && super[j] < id {
			j++
		}
		if j >= len(super) || super[j] != id {
			return false
		}
		j++
	}
	return true
}

// samePolicies reports whether two deduplicated member lists contain
// the same policy objects (per samePolicy), disregarding order. The
// intern table uses it where ID equality alone must not be trusted.
func samePolicies(a, b []Policy) bool {
	if len(a) != len(b) {
		return false
	}
	for _, p := range a {
		found := false
		for _, q := range b {
			if samePolicy(p, q) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
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
	// internCache maps a set's canonical hash to its canonical instance.
	// A hit is trusted only if its IDs and members match; a set whose
	// hash collides with another's stays uninterned, which costs only
	// the fast paths, never correctness.
	internCache = NewCache[uint64, *PolicySet](maxInternedSets, 0, 0)
	// unionCache memoizes Union of two interned sets.
	unionCache = NewCache[unionKey, *PolicySet](maxUnionCacheEntries, 0, 0)
)

// Intern canonicalizes s into the process-wide intern table and returns
// the canonical instance: the first set with these members that was
// interned. Interning is worthwhile for sets that will be compared or
// unioned repeatedly — long-lived application policy sets, memoized
// deserialized annotations — and is a no-op for sets that cannot carry
// canonical IDs. A hit in the table's old generation promotes the
// canonical instance, so frequently-interned sets survive churn.
//
// ID-equality between live sets implies member identity up to the
// astronomically unlikely cross-type XOR collision (addrA ^ saltA ==
// addrB ^ saltB); because a conflated canonical instance would
// persistently mislabel data, a candidate is verified member-wise rather
// than trusted on its IDs alone.
func (s *PolicySet) Intern() *PolicySet {
	if s.Len() == 0 {
		return EmptySet
	}
	if s.interned || !s.idsOK {
		return s
	}
	c, ok := internCache.Get(s.hash)
	if !ok {
		// Register a fresh canonical instance rather than mutating s,
		// which may be shared with concurrent readers. The slices are
		// immutable and safely shared.
		c = internCache.Add(s.hash, &PolicySet{
			policies: s.policies,
			ids:      s.ids,
			hash:     s.hash,
			idsOK:    true,
			interned: true,
			mergers:  s.mergers,
		}, 0)
	}
	if !slices.Equal(c.ids, s.ids) || !samePolicies(s.policies, c.policies) {
		return s
	}
	return c
}

// unionKey memoizes Union(a, b) for interned operands. Union is
// commutative, so the key is normalized by canonical hash order —
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
