package core

import (
	"reflect"
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
//     passes to Intern — are canonicalized into a process-wide sharded
//     intern table. Among interned sets, equal members means identical
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
// conflation would persist — verifies candidates member-wise on its
// cold path. Value (non-pointer) policies have no address; a set
// containing one forgoes IDs and uses the member-wise slow paths,
// matching the package's guidance that policies be pointers to structs.
//
// The intern table and union cache pin their entries, so both are
// capped. The intern table evicts generationally: each shard keeps a
// young and an old generation, lookups hit either (an old-generation
// hit promotes the set back to young), inserts go young, and when the
// young generation fills to half the cap the old generation is dropped
// and the young one takes its place. A churn workload therefore sheds
// only the sets that went a full generation without a hit — the hot
// set keeps getting promoted and survives — where the previous
// wholesale flush-at-cap evicted the entire hot set every time the
// churn crossed the cap. Correctness never depends on the table —
// equality is decided by canonical IDs — so eviction is always safe.

const (
	// numInternShards is the shard count of the set intern table; a
	// power of two so the hash can select a shard with a mask.
	numInternShards = 64

	// maxInternedSets caps the set intern table across all shards.
	maxInternedSets = 1 << 16

	// maxUnionCacheEntries caps the memoized pairwise-union cache.
	maxUnionCacheEntries = 1 << 15
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

func equalPolicyIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// the same policy objects (per samePolicy), disregarding order. Used
// on cold paths where ID equality alone must not be trusted.
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

// internShard is one bucket group of the set intern table. Buckets are
// keyed by the canonical hash; collisions chain in a small slice. Each
// shard keeps two generations: g0 receives inserts and promotions, g1
// is the previous g0 awaiting its drop at the next rotation.
type internShard struct {
	mu sync.Mutex
	g0 map[uint64][]*PolicySet
	g1 map[uint64][]*PolicySet
}

var (
	internTable [numInternShards]internShard
	// internedG0Count / internedG1Count track the generations across
	// all shards; their sum is the table's size, bounded by
	// maxInternedSets because each generation is bounded by half of it.
	internedG0Count atomic.Uint64
	internedG1Count atomic.Uint64
	flushMu         sync.Mutex

	// Interning counters (observability for tests and benchmarks).
	statSetHits     atomic.Uint64
	statSetMisses   atomic.Uint64
	statPromotions  atomic.Uint64
	statUnionHits   atomic.Uint64
	statUnionMisses atomic.Uint64
	statFlushes     atomic.Uint64
)

// rotateInternTable ages the intern table when the young generation
// reaches half the cap: every shard drops its old generation and the
// young one becomes old. Sets referenced since the last rotation were
// promoted into g0 and survive; only sets that went a full generation
// without a hit fall out, so a workload that churns distinct sets
// (Merger policies, fresh per decode; attacker-chosen parameter names) sheds
// the churn while the hot set stays warm. Already-evicted sets stay
// valid — equality never depends on the table, only on canonical IDs —
// they merely stop deduplicating against it. The union cache is left
// alone: its entries are keyed by canonical instances whose identity
// rotation does not disturb (it has its own cap and flush).
func rotateInternTable() {
	flushMu.Lock()
	defer flushMu.Unlock()
	if internedG0Count.Load() < maxInternedSets/2 {
		return // another goroutine rotated first
	}
	// Swap the counter before the maps: an insert racing the shard walk
	// can mis-attribute its increment by one generation, which skews
	// pacing by at most a few entries and corrects at the next rotation.
	internedG1Count.Store(internedG0Count.Swap(0))
	for i := range internTable {
		sh := &internTable[i]
		sh.mu.Lock()
		sh.g1 = sh.g0
		sh.g0 = nil
		sh.mu.Unlock()
	}
	statFlushes.Add(1)
}

// Intern canonicalizes s into the process-wide intern table and returns
// the canonical instance: the first set with these members that was
// interned. Interning is worthwhile for sets that will be compared or
// unioned repeatedly — long-lived application policy sets, memoized
// deserialized annotations — and is a no-op for sets that cannot carry
// canonical IDs. The table evicts generationally (see
// rotateInternTable): a hit in the old generation promotes the
// canonical instance back into the young one, so frequently-interned
// sets survive cap-crossing churn.
//
// ID-equality between live sets implies member identity up to the
// astronomically unlikely cross-type XOR collision (addrA ^ saltA ==
// addrB ^ saltB); because a conflated canonical instance would
// persistently mislabel data, the bucket walk — a cold path — verifies
// candidates member-wise rather than trusting IDs alone.
func (s *PolicySet) Intern() *PolicySet {
	if s.Len() == 0 {
		return EmptySet
	}
	if s.interned || !s.idsOK {
		return s
	}
	if internedG0Count.Load() >= maxInternedSets/2 {
		rotateInternTable()
	}
	sh := &internTable[s.hash&(numInternShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, c := range sh.g0[s.hash] {
		if equalPolicyIDs(c.ids, s.ids) && samePolicies(s.policies, c.policies) {
			statSetHits.Add(1)
			return c
		}
	}
	for i, c := range sh.g1[s.hash] {
		if equalPolicyIDs(c.ids, s.ids) && samePolicies(s.policies, c.policies) {
			// Promote: the set proved it is still hot, so it moves to the
			// young generation and survives the next rotation. Same
			// canonical pointer — union-cache entries keyed on it stay
			// valid.
			bucket := sh.g1[s.hash]
			sh.g1[s.hash] = append(bucket[:i:i], bucket[i+1:]...)
			if sh.g0 == nil {
				sh.g0 = make(map[uint64][]*PolicySet)
			}
			sh.g0[s.hash] = append(sh.g0[s.hash], c)
			internedG1Count.Add(^uint64(0))
			internedG0Count.Add(1)
			statSetHits.Add(1)
			statPromotions.Add(1)
			return c
		}
	}
	statSetMisses.Add(1)
	if sh.g0 == nil {
		sh.g0 = make(map[uint64][]*PolicySet)
	}
	// Register a fresh canonical instance rather than mutating s, which
	// may be shared with concurrent readers. The slices are immutable
	// and safely shared.
	c := &PolicySet{
		policies: s.policies,
		ids:      s.ids,
		hash:     s.hash,
		idsOK:    true,
		interned: true,
		mergers:  s.mergers,
	}
	sh.g0[s.hash] = append(sh.g0[s.hash], c)
	internedG0Count.Add(1)
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

var (
	unionCache      atomic.Pointer[sync.Map] // *sync.Map of unionKey → *PolicySet
	unionCacheCount atomic.Uint64
)

func init() { unionCache.Store(new(sync.Map)) }

// cachedUnion returns the memoized union of two interned sets.
func cachedUnion(a, b *PolicySet) (*PolicySet, bool) {
	if v, ok := unionCache.Load().Load(newUnionKey(a, b)); ok {
		statUnionHits.Add(1)
		return v.(*PolicySet), true
	}
	statUnionMisses.Add(1)
	return nil, false
}

// storeUnion records a computed union. At the cap the cache is flushed
// wholesale, so union-pair churn costs a periodic re-warm instead of
// permanently disabling memoization. An entry stored into a map that a
// concurrent flush is swapping out is simply lost, which is harmless.
func storeUnion(a, b, result *PolicySet) {
	if unionCacheCount.Load() >= maxUnionCacheEntries {
		flushUnionCache()
	}
	if _, loaded := unionCache.Load().LoadOrStore(newUnionKey(a, b), result); !loaded {
		unionCacheCount.Add(1)
	}
}

// flushUnionCache empties the memoized-union cache when it reaches its
// own cap; intern-table rotation deliberately leaves it alone.
func flushUnionCache() {
	flushMu.Lock()
	defer flushMu.Unlock()
	if unionCacheCount.Load() < maxUnionCacheEntries {
		return // another goroutine flushed first
	}
	unionCache.Store(new(sync.Map))
	unionCacheCount.Store(0)
	statFlushes.Add(1)
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
	// Flushes counts intern-table generation rotations plus wholesale
	// union-cache evictions.
	Flushes uint64
	// Instances is the number of canonical decoded policies in the
	// policy-instance table (see DecodePolicy); InstanceHits /
	// InstanceMisses count decodes that returned one / instantiated a
	// new object, InstanceRotations its generation rotations.
	Instances, InstanceHits, InstanceMisses, InstanceRotations uint64
}

// ReadInternStats returns a snapshot of the interning counters.
func ReadInternStats() InternStats {
	policyInstances.mu.RLock()
	instances := len(policyInstances.young) + len(policyInstances.old)
	policyInstances.mu.RUnlock()
	return InternStats{
		Sets:              internedG0Count.Load() + internedG1Count.Load(),
		SetHits:           statSetHits.Load(),
		SetMisses:         statSetMisses.Load(),
		Promotions:        statPromotions.Load(),
		UnionHits:         statUnionHits.Load(),
		UnionMisses:       statUnionMisses.Load(),
		UnionEntries:      unionCacheCount.Load(),
		Flushes:           statFlushes.Load(),
		Instances:         uint64(instances),
		InstanceHits:      statInstanceHits.Load(),
		InstanceMisses:    statInstanceMisses.Load(),
		InstanceRotations: statInstanceRotations.Load(),
	}
}
