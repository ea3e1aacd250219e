package core

import (
	"sync"
	"testing"
)

type internPolicyA struct{ Tag string }

func (p *internPolicyA) ExportCheck(ctx *Context) error { return nil }

type internPolicyB struct{ Tag string }

func (p *internPolicyB) ExportCheck(ctx *Context) error { return nil }

// zeroA and zeroB are zero-sized policy types: Go may allocate all their
// instances at the same address, the worst case for address-keyed identity.
type zeroA struct{}

func (zeroA) ExportCheck(ctx *Context) error { return nil }

type zeroB struct{}

func (zeroB) ExportCheck(ctx *Context) error { return nil }

// valuePolicy is a comparable non-pointer policy; sets containing it
// have no hash and never intern.
type valuePolicy struct{ K int }

func (valuePolicy) ExportCheck(ctx *Context) error { return nil }

func TestCanonicalIDsDecideEquality(t *testing.T) {
	p1 := &internPolicyA{Tag: "1"}
	p2 := &internPolicyA{Tag: "2"}

	a := NewPolicySet(p1, p2)
	b := NewPolicySet(p2, p1) // same members, different order, distinct instance
	if a == b {
		t.Fatal("uninterned constructions should be distinct instances")
	}
	if !a.Equal(b) {
		t.Error("sets with identical members must be Equal")
	}
	if a.Equal(NewPolicySet(p1)) {
		t.Error("different members reported equal")
	}
	// Distinct objects with identical fields are different policies.
	if NewPolicySet(&internPolicyA{Tag: "x"}).Equal(NewPolicySet(&internPolicyA{Tag: "x"})) {
		t.Error("identity semantics lost: field-equal objects are distinct policies")
	}
}

func TestZeroSizedPolicyTypesDoNotCollide(t *testing.T) {
	// &zeroA{} and &zeroB{} may share an address; their types must keep
	// the sets distinct.
	a := NewPolicySet(&zeroA{})
	b := NewPolicySet(&zeroB{})
	if a.Equal(b) {
		t.Error("zero-sized policies of different types must not compare equal")
	}
	// Same type at the same address is the same policy object, per
	// samePolicy's pointer-identity semantics.
	za := &zeroA{}
	if !NewPolicySet(za).Equal(NewPolicySet(za)) {
		t.Error("same object must compare equal")
	}
}

func TestInternCanonicalizes(t *testing.T) {
	p1 := &internPolicyA{Tag: "i1"}
	p2 := &internPolicyA{Tag: "i2"}

	a := NewPolicySet(p1, p2).Intern()
	b := NewPolicySet(p2, p1).Intern()
	if a != b {
		t.Fatal("interning equal member sets must yield one canonical instance")
	}
	if !a.Interned() {
		t.Error("Intern must mark the canonical instance")
	}
	if a.Intern() != a {
		t.Error("interning an interned set is the identity")
	}
	if EmptySet.Intern() != EmptySet || NewPolicySet().Intern() != EmptySet {
		t.Error("empty set interns to EmptySet")
	}
}

func TestInternValuePolicyFallback(t *testing.T) {
	v := valuePolicy{K: 1}
	s := NewPolicySet(v, &internPolicyA{Tag: "p"})
	if s.Intern().Interned() {
		t.Error("sets with non-pointer members cannot intern")
	}
	// Slow-path semantics still hold: comparable value policies compare
	// by ==.
	if !s.Contains(valuePolicy{K: 1}) {
		t.Error("value policy membership by == lost")
	}
	if !NewPolicySet(v).Equal(NewPolicySet(valuePolicy{K: 1})) {
		t.Error("value policy sets with == members must be Equal")
	}
}

func TestUnionFastPaths(t *testing.T) {
	p1 := &internPolicyA{Tag: "u1"}
	p2 := &internPolicyA{Tag: "u2"}
	p3 := &internPolicyA{Tag: "u3"}
	big := NewPolicySet(p1, p2, p3)
	sub := NewPolicySet(p1, p3)

	if big.Union(sub) != big {
		t.Error("superset union must return the receiver unchanged")
	}
	if sub.Union(big) != big {
		t.Error("subset union must return the argument unchanged")
	}
	if big.Union(big) != big {
		t.Error("self union must be the identity")
	}
}

func TestInternedUnionMemoized(t *testing.T) {
	a := NewPolicySet(&internPolicyA{Tag: "m1"}, &internPolicyA{Tag: "m2"}).Intern()
	b := NewPolicySet(&internPolicyA{Tag: "m3"}).Intern()

	u1 := a.Union(b)
	u2 := a.Union(b)
	if u1 != u2 {
		t.Error("repeated interned unions must return the memoized instance")
	}
	if !u1.Interned() {
		t.Error("union of interned operands must intern its result")
	}
	if u1.Len() != 3 {
		t.Errorf("union len = %d, want 3", u1.Len())
	}
}

func TestInternConcurrent(t *testing.T) {
	p1 := &internPolicyA{Tag: "c1"}
	p2 := &internPolicyB{Tag: "c2"}
	const workers = 16
	results := make([]*PolicySet, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Alternate member order to exercise canonical sorting.
			if i%2 == 0 {
				results[i] = NewPolicySet(p1, p2).Intern()
			} else {
				results[i] = NewPolicySet(p2, p1).Intern()
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent interning must converge on one canonical instance")
		}
	}
}

func TestDecodeSpansCanonicalizesSets(t *testing.T) {
	RegisterPolicyClass("core.internPolicyA", &internPolicyA{})
	orig := NewString("secret").WithPolicy(&internPolicyA{Tag: "persist"})
	ann, err := EncodeSpans(orig)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := DecodeSpans("secret", ann)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.PoliciesAt(0).Interned() {
		t.Error("decoded policy sets must canonicalize into the intern table")
	}
}

func TestWithPolicySetSharesInstance(t *testing.T) {
	ps := NewPolicySet(&internPolicyA{Tag: "share"}).Intern()
	s := NewString("abcdef").WithPolicySet(ps)
	if got := s.PoliciesAt(0); got != ps {
		t.Errorf("WithPolicySet must attach the given set instance, got %p want %p", got, ps)
	}
	if err := s.invariantErr(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderCopyOnWrite(t *testing.T) {
	p1 := &internPolicyA{Tag: "b1"}
	p2 := &internPolicyA{Tag: "b2"}
	frag1 := NewStringPolicy("aaa", p1)
	frag2 := NewStringPolicy("bbb", p2)

	var b Builder
	b.Append(frag1)
	first := b.String()
	// Mutating the builder after String() must not disturb the
	// produced string: the next append both extends and coalesces.
	b.Append(frag1)
	b.Append(frag2)
	second := b.String()

	if first.Raw() != "aaa" || first.SpanCount() != 1 {
		t.Errorf("first snapshot corrupted by later appends: %s", first.Describe())
	}
	if !first.PoliciesAt(0).Equal(NewPolicySet(p1)) {
		t.Errorf("first snapshot policies corrupted: %s", first.Describe())
	}
	if second.Raw() != "aaaaaabbb" || second.SpanCount() != 2 {
		t.Errorf("second build wrong: %s", second.Describe())
	}
	if err := first.invariantErr(); err != nil {
		t.Fatal(err)
	}
	if err := second.invariantErr(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderResetReusesArena(t *testing.T) {
	p := &internPolicyA{Tag: "arena"}
	frag := NewStringPolicy("xy", p)
	var b Builder
	for round := 0; round < 3; round++ {
		b.Reset()
		b.Grow(64, 4)
		b.AppendRaw("<")
		b.Append(frag)
		b.AppendRaw(">")
		out := b.String()
		if out.Raw() != "<xy>" || out.SpanCount() != 1 {
			t.Fatalf("round %d: %s", round, out.Describe())
		}
		if err := out.invariantErr(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestBuilderResetAfterStringDoesNotCorrupt(t *testing.T) {
	p := &internPolicyA{Tag: "reset"}
	var b Builder
	b.Append(NewStringPolicy("hello", p))
	out := b.String()
	b.Reset()
	b.Append(NewStringPolicy("WORLD", p))
	_ = b.String()
	if out.Raw() != "hello" || out.SpanCount() != 1 || out.PoliciesAt(0).Len() != 1 {
		t.Errorf("string produced before Reset corrupted: %s", out.Describe())
	}
}

func TestReadInternStats(t *testing.T) {
	before := ReadInternStats()
	a := NewPolicySet(&internPolicyA{Tag: "s1"}, &internPolicyA{Tag: "s2"}).Intern()
	b := NewPolicySet(&internPolicyA{Tag: "s3"}).Intern()
	a.Union(b) // miss + store
	a.Union(b) // hit
	after := ReadInternStats()
	if after.Sets <= before.Sets {
		t.Error("interning new sets must grow the table")
	}
	if after.UnionHits <= before.UnionHits {
		t.Error("repeated interned union must count a cache hit")
	}
}

// TestInternHotSetSurvivesChurnBurst pins the generational eviction
// contract: a churn workload that pushes the table through several
// cap-crossing rotations must not evict sets that keep getting
// re-interned. Under the previous wholesale flush-at-cap every hot set
// lost its canonical instance on every flush.
func TestInternHotSetSurvivesChurnBurst(t *testing.T) {
	hotPolicies := make([]*internPolicyA, 16)
	hotCanon := make([]*PolicySet, len(hotPolicies))
	for i := range hotPolicies {
		hotPolicies[i] = &internPolicyA{Tag: "hot"}
		hotCanon[i] = NewPolicySet(hotPolicies[i]).Intern()
	}
	before := ReadInternStats()
	// 3× the cap of distinct single-member sets forces several
	// rotations; the hot sets are touched far more often than once per
	// generation window (cap/2 inserts), so every rotation finds them
	// young or promotes them.
	const churn = 3 * maxInternedSets
	for i := 0; i < churn; i++ {
		NewPolicySet(&internPolicyB{Tag: "churn"}).Intern()
		if i%1024 == 0 {
			for _, p := range hotPolicies {
				NewPolicySet(p).Intern()
			}
		}
	}
	after := ReadInternStats()
	if rotations := after.Flushes - before.Flushes; rotations < 2 {
		t.Fatalf("churn burst crossed the cap but caused only %d rotations", rotations)
	}
	if after.Promotions == before.Promotions {
		t.Error("no old-generation promotions recorded during the burst")
	}
	if after.Sets > maxInternedSets {
		t.Errorf("table exceeded its cap: %d sets", after.Sets)
	}
	for i, p := range hotPolicies {
		if c := NewPolicySet(p).Intern(); c != hotCanon[i] {
			t.Fatalf("hot set %d lost its canonical instance across the churn burst", i)
		}
	}
}

// BenchmarkInternChurnHotStability drives a churn-with-hot-set mix and
// reports how often a hot set's canonical instance is lost to eviction
// (canon-lost/op). Generational eviction keeps it at zero; the former
// wholesale flush lost the entire hot set at every cap crossing.
func BenchmarkInternChurnHotStability(b *testing.B) {
	hotPolicies := make([]*internPolicyA, 64)
	hotCanon := make([]*PolicySet, len(hotPolicies))
	for i := range hotPolicies {
		hotPolicies[i] = &internPolicyA{Tag: "hot"}
		hotCanon[i] = NewPolicySet(hotPolicies[i]).Intern()
	}
	lost := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPolicySet(&internPolicyB{Tag: "churn"}).Intern()
		j := i % len(hotPolicies)
		if c := NewPolicySet(hotPolicies[j]).Intern(); c != hotCanon[j] {
			lost++
			hotCanon[j] = c
		}
	}
	b.ReportMetric(float64(lost)/float64(b.N), "canon-lost/op")
}
