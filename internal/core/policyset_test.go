package core

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestPolicySetBasics(t *testing.T) {
	p1 := &allowPolicy{Name: "p1"}
	p2 := &allowPolicy{Name: "p2"}

	var nilSet *PolicySet
	if nilSet.Len() != 0 || !nilSet.IsEmpty() || nilSet.Contains(p1) {
		t.Error("nil set should behave as empty")
	}
	if nilSet.Policies() != nil {
		t.Error("nil set Policies() should be nil")
	}

	s := NewPolicySet(p1, p2, p1, nil)
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2 (dedupe + drop nil)", s.Len())
	}
	if !s.Contains(p1) || !s.Contains(p2) {
		t.Error("missing members")
	}
	if NewPolicySet() != EmptySet {
		t.Error("empty construction should return the canonical empty set")
	}
}

func TestPolicySetAddRemoveImmutability(t *testing.T) {
	p1 := &allowPolicy{Name: "p1"}
	p2 := &allowPolicy{Name: "p2"}
	s1 := NewPolicySet(p1)
	s2 := s1.Add(p2)
	if s1.Len() != 1 || s2.Len() != 2 {
		t.Error("Add must not mutate the receiver")
	}
	if s2.Add(p2) != s2 {
		t.Error("adding an existing member should return the receiver")
	}
	s3 := s2.Remove(p1)
	if s2.Len() != 2 || s3.Len() != 1 || s3.Contains(p1) {
		t.Error("Remove must not mutate the receiver")
	}
	if s3.Remove(p1) != s3 {
		t.Error("removing an absent member should return the receiver")
	}
	if !s3.Remove(p2).IsEmpty() {
		t.Error("removing the last member should yield empty")
	}
}

func TestPolicySetIdentitySemantics(t *testing.T) {
	// Two distinct objects with identical fields are different policies.
	a := &allowPolicy{Name: "same"}
	b := &allowPolicy{Name: "same"}
	s := NewPolicySet(a, b)
	if s.Len() != 2 {
		t.Errorf("identity semantics: len = %d, want 2", s.Len())
	}
	if !s.Contains(a) || !s.Contains(b) {
		t.Error("both objects should be present")
	}
}

func TestPolicySetUnionEqual(t *testing.T) {
	p1 := &allowPolicy{Name: "p1"}
	p2 := &allowPolicy{Name: "p2"}
	p3 := &allowPolicy{Name: "p3"}
	a := NewPolicySet(p1, p2)
	b := NewPolicySet(p2, p3)
	u := a.Union(b)
	if u.Len() != 3 {
		t.Errorf("union len = %d", u.Len())
	}
	if !a.Union(EmptySet).Equal(a) || !EmptySet.Union(a).Equal(a) {
		t.Error("union with empty should be identity")
	}
	if !NewPolicySet(p1, p2).Equal(NewPolicySet(p2, p1)) {
		t.Error("Equal must be order-insensitive")
	}
	if NewPolicySet(p1).Equal(NewPolicySet(p2)) {
		t.Error("different sets reported equal")
	}
}

func TestPolicySetPredicates(t *testing.T) {
	p := &allowPolicy{Name: "p"}
	d := &denyPolicy{Reason: "r"}
	s := NewPolicySet(p, d)
	isDeny := func(q Policy) bool { _, ok := q.(*denyPolicy); return ok }
	if !s.Any(isDeny) {
		t.Error("Any should find the deny policy")
	}
	if s.All(isDeny) {
		t.Error("All should fail on the mixed set")
	}
	if !EmptySet.All(isDeny) {
		t.Error("All on empty set is vacuously true")
	}
	if EmptySet.Any(isDeny) {
		t.Error("Any on empty set is false")
	}
	rem := s.RemoveIf(isDeny)
	if rem.Len() != 1 || !rem.Contains(p) {
		t.Errorf("RemoveIf = %s", rem)
	}
	if s.RemoveIf(func(Policy) bool { return false }) != s {
		t.Error("no-op RemoveIf should return the receiver")
	}
}

func TestPolicySetEachStopsOnError(t *testing.T) {
	p1 := &allowPolicy{Name: "p1"}
	p2 := &allowPolicy{Name: "p2"}
	s := NewPolicySet(p1, p2)
	count := 0
	stop := errors.New("stop")
	err := s.Each(func(Policy) error {
		count++
		return stop
	})
	if err != stop || count != 1 {
		t.Errorf("Each: err=%v count=%d", err, count)
	}
}

func TestPolicySetString(t *testing.T) {
	p := &allowPolicy{Name: "p"}
	s := NewPolicySet(p)
	if got := s.String(); !strings.Contains(got, "allowPolicy") {
		t.Errorf("String() = %q", got)
	}
	if EmptySet.String() != "{}" {
		t.Errorf("empty String() = %q", EmptySet.String())
	}
}

func TestMergeDefaultUnion(t *testing.T) {
	p1 := &allowPolicy{Name: "p1"}
	p2 := &allowPolicy{Name: "p2"}
	out, err := MergePolicies(NewPolicySet(p1), NewPolicySet(p2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || !out.Contains(p1) || !out.Contains(p2) {
		t.Errorf("default merge should union: %s", out)
	}
}

func TestMergeIntersectionStrategy(t *testing.T) {
	a := &intersectPolicy{Tag: "a"}
	b := &intersectPolicy{Tag: "b"}
	// Both sides authentic: both survive.
	out, err := MergePolicies(NewPolicySet(a), NewPolicySet(b))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Contains(a) || !out.Contains(b) {
		t.Errorf("both authentic should survive: %s", out)
	}
	// One side unauthentic: policy dropped.
	out, err = MergePolicies(NewPolicySet(a), EmptySet)
	if err != nil {
		t.Fatal(err)
	}
	if out.Contains(a) {
		t.Errorf("one-sided authentic should drop: %s", out)
	}
}

func TestMergeRefusal(t *testing.T) {
	r := &refusePolicy{}
	_, err := MergePolicies(NewPolicySet(r), NewPolicySet(&allowPolicy{Name: "x"}))
	if err == nil {
		t.Fatal("refusing merge should error")
	}
	ae, ok := IsAssertionError(err)
	if !ok || ae.Op != "merge" {
		t.Errorf("error should be a merge AssertionError: %v", err)
	}
	// Refusal on the right side too.
	if _, err := MergePolicies(EmptySet.Add(&allowPolicy{Name: "x"}), NewPolicySet(r)); err == nil {
		t.Fatal("right-side refusal should error")
	}
}

func TestMergeEmptyBothSides(t *testing.T) {
	out, err := MergePolicies(EmptySet, nil)
	if err != nil || !out.IsEmpty() {
		t.Errorf("empty merge = %s, %v", out, err)
	}
}

func TestQuickUnionCommutative(t *testing.T) {
	pool := []Policy{
		&allowPolicy{Name: "A"}, &allowPolicy{Name: "B"},
		&allowPolicy{Name: "C"}, &allowPolicy{Name: "D"},
		&allowPolicy{Name: "E"},
	}
	pick := func(mask uint8) *PolicySet {
		s := EmptySet
		for i, p := range pool {
			if mask&(1<<i) != 0 {
				s = s.Add(p)
			}
		}
		return s
	}
	f := func(m1, m2 uint8) bool {
		a, b := pick(m1), pick(m2)
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionAssociativeIdempotent(t *testing.T) {
	pool := []Policy{
		&allowPolicy{Name: "A"}, &allowPolicy{Name: "B"},
		&allowPolicy{Name: "C"}, &allowPolicy{Name: "D"},
	}
	pick := func(mask uint8) *PolicySet {
		s := EmptySet
		for i, p := range pool {
			if mask&(1<<i) != 0 {
				s = s.Add(p)
			}
		}
		return s
	}
	f := func(m1, m2, m3 uint8) bool {
		a, b, c := pick(m1), pick(m2), pick(m3)
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			return false
		}
		return a.Union(a).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDefaultMergeMatchesUnion(t *testing.T) {
	pool := []Policy{
		&allowPolicy{Name: "A"}, &allowPolicy{Name: "B"},
		&allowPolicy{Name: "C"},
	}
	pick := func(mask uint8) *PolicySet {
		s := EmptySet
		for i, p := range pool {
			if mask&(1<<i) != 0 {
				s = s.Add(p)
			}
		}
		return s
	}
	f := func(m1, m2 uint8) bool {
		a, b := pick(m1), pick(m2)
		out, err := MergePolicies(a, b)
		return err == nil && out.Equal(a.Union(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamePolicyUncomparable(t *testing.T) {
	// Value (non-pointer) policies with uncomparable fields must not panic.
	type sliceHolder struct{ ACL []string }
	_ = sliceHolder{}
	// samePolicy on different types.
	if samePolicy(&allowPolicy{}, &denyPolicy{}) {
		t.Error("different types are never the same")
	}
	if !samePolicy(nil, nil) {
		t.Error("nil == nil")
	}
	if samePolicy(&allowPolicy{}, nil) {
		t.Error("nil vs non-nil")
	}
}

// aclPolicy is a value-typed policy that is not comparable: == on two
// of them panics.
type aclPolicy struct{ ACL []string }

func (aclPolicy) ExportCheck(ctx *Context) error { return nil }

// TestContainsValueMemberUsesSamePolicy pins that a set with a
// value-typed member has no hash and decides membership through
// samePolicy: a comparable value is found by ==, an uncomparable one is
// never the same policy, even as itself, and asking neither panics.
// Only a hashed set, all pointers, may compare members with ==.
func TestContainsValueMemberUsesSamePolicy(t *testing.T) {
	p := &allowPolicy{Name: "p"}
	acl := aclPolicy{ACL: []string{"alice"}}
	s := NewPolicySet(acl, valuePolicy{K: 1}, p)
	if s.hashed {
		t.Fatal("a set with value-typed members must not be hashed")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, c := range []struct {
		p    Policy
		want bool
	}{
		{p, true},
		{&allowPolicy{Name: "p"}, false},
		{valuePolicy{K: 1}, true},
		{valuePolicy{K: 2}, false},
		{acl, false},
		{aclPolicy{}, false},
		{nil, false},
	} {
		if got := s.Contains(c.p); got != c.want {
			t.Errorf("Contains(%#v) = %v, want %v", c.p, got, c.want)
		}
	}
	if NewPolicySet(acl).Equal(NewPolicySet(acl)) {
		t.Error("sets of an uncomparable value policy are never Equal")
	}
	if hashed := NewPolicySet(p); !hashed.hashed || hashed.Contains(acl) || hashed.Contains(valuePolicy{K: 1}) || !hashed.Contains(p) {
		t.Error("a hashed set holds its pointer member and no value policy")
	}
}

// BenchmarkPolicySetEqualReordered is Equal on two member-equal
// two-member sets of pointer policies listed in opposite order: equal
// hashes, so it decides by the membership scan, which a hashed set does
// with plain ==.
func BenchmarkPolicySetEqualReordered(b *testing.B) {
	p1, p2 := &allowPolicy{Name: "p1"}, &allowPolicy{Name: "p2"}
	s, u := NewPolicySet(p1, p2), NewPolicySet(p2, p1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.Equal(u) {
			b.Fatal("reordered sets differ")
		}
	}
}
