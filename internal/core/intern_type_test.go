package core

import "testing"

// TestZeroSizedSetsInternAndUnionFromCache: Go may give every zero-sized
// object one address, so the intern key must include the dynamic type.
// Keyed by address alone, {zeroA} and {zeroB} share a key, the second
// never interns, and every union of the two misses the union cache and
// allocates.
func TestZeroSizedSetsInternAndUnionFromCache(t *testing.T) {
	a := NewPolicySet(&zeroA{}).Intern()
	b := NewPolicySet(&zeroB{}).Intern()
	if !a.Interned() || !b.Interned() {
		t.Fatalf("interned: {zeroA} %v, {zeroB} %v; want both", a.Interned(), b.Interned())
	}
	a.Union(b) // store the union
	const runs = 100
	before := ReadInternStats()
	if allocs := testing.AllocsPerRun(runs, func() { a.Union(b) }); allocs != 0 {
		t.Errorf("a repeated union of interned zero-sized sets: %.0f allocs, want 0", allocs)
	}
	if hits := ReadInternStats().UnionHits - before.UnionHits; hits < runs {
		t.Errorf("%d union-cache hits over %d unions", hits, runs)
	}
}
