package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Policy identity by content (§3.4.1): a registered, non-Merger policy
// decoded twice from one encoding is one object, memo hit or not.

// storedCountingPolicy counts ExportCheck calls across all its instances.
type storedCountingPolicy struct {
	Email string `json:"email"`
}

var storedPolicyChecks atomic.Int64

func (p *storedCountingPolicy) ExportCheck(ctx *Context) error {
	storedPolicyChecks.Add(1)
	return nil
}

// mergingPolicy is a registered Merger class; Merge calls are counted.
type mergingPolicy struct {
	Group string `json:"group"`
}

var mergingPolicyMerges atomic.Int64

func (p *mergingPolicy) ExportCheck(ctx *Context) error { return nil }

func (p *mergingPolicy) Merge(other *PolicySet) ([]Policy, error) {
	mergingPolicyMerges.Add(1)
	return []Policy{p}, nil
}

func init() {
	RegisterPolicyClass("test.StoredCountingPolicy", &storedCountingPolicy{})
	RegisterPolicyClass("test.MergingPolicy", &mergingPolicy{})
}

func mustEncodeSpans(t testing.TB, s String) []byte {
	t.Helper()
	ann, err := EncodeSpans(s)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

func mustEncodePolicy(t testing.TB, p Policy) []byte {
	t.Helper()
	enc, err := EncodePolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestCompileAnnotationIdentityAcrossMemoFlush: the second compile is a
// memo miss (the instance table counts its DecodePolicy hit) and still
// yields the first compile's set and policy pointers.
func TestCompileAnnotationIdentityAcrossMemoFlush(t *testing.T) {
	ann := mustEncodeSpans(t, NewStringPolicy("s3cret", &storedCountingPolicy{Email: "flush@x"}))
	c1, err := CompileAnnotation(ann)
	if err != nil {
		t.Fatal(err)
	}
	annCompileMemo.Reset()
	before := ReadInternStats()
	c2, err := CompileAnnotation(ann)
	if err != nil {
		t.Fatal(err)
	}
	after := ReadInternStats()
	if c1 == c2 {
		t.Fatal("the memo was not flushed: both compiles are one object")
	}
	if got := after.InstanceHits - before.InstanceHits; got != 1 {
		t.Errorf("InstanceHits grew by %d across the re-compile, want 1", got)
	}
	if after.InstanceMisses != before.InstanceMisses {
		t.Error("re-compiling a known policy instantiated a new object")
	}
	if got := after.SetHits - before.SetHits; got != 1 {
		t.Errorf("SetHits grew by %d across the re-compile, want 1 (0 at the parent)", got)
	}
	s1, s2 := c1.Apply("s3cret").PoliciesAt(0), c2.Apply("s3cret").PoliciesAt(0)
	if s1 != s2 {
		t.Error("two compiles of one annotation yield different policy-set pointers")
	}
	if s1.Policies()[0] != s2.Policies()[0] {
		t.Error("two compiles of one annotation yield different policy objects")
	}
	if sc, err := CompileAnnotationString(string(ann)); err != nil || sc != c2 {
		t.Errorf("CompileAnnotationString = %p, %v; want the memoized %p", sc, err, c2)
	}
}

// TestDecodedPolicyCheckedOnce: two decodes of one stored policy are one
// member of a union, and one ExportCheck when their concatenation
// crosses the default filter. At the parent (address identity, a fresh
// object per memo miss) Len() was 2 and ExportCheck ran 2 times.
func TestDecodedPolicyCheckedOnce(t *testing.T) {
	ann := mustEncodeSpans(t, NewStringPolicy("pw", &storedCountingPolicy{Email: "once@x"}))
	a, err := DecodeSpans("pw", ann)
	if err != nil {
		t.Fatal(err)
	}
	annCompileMemo.Reset()
	b, err := DecodeSpans("pw", ann)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Policies().Policies()[0], b.Policies().Policies()[0]
	if u := a.Policies().Union(b.Policies()); u.Len() != 1 {
		t.Errorf("Union of two decodes of one policy has Len() %d, want 1 (2 at the parent)", u.Len())
	}
	if !a.Policies().Contains(pb) || !b.Policies().Contains(pa) {
		t.Error("Contains must hold both ways between two decodes of one policy")
	}
	ch := NewRuntime().NewChannel(KindHTTP)
	storedPolicyChecks.Store(0)
	if err := ch.Write(Concat(a, b)); err != nil {
		t.Fatal(err)
	}
	if n := storedPolicyChecks.Load(); n != 1 {
		t.Errorf("ExportCheck ran %d times for one stored policy, want 1 (2 at the parent)", n)
	}
}

// TestSpanRoundTripByteIdentical: EncodeSpans(DecodeSpans(x)) reproduces
// x's annotation over random span layouts and policy sets, including
// sets whose members reach the intern table in different orders.
func TestSpanRoundTripByteIdentical(t *testing.T) {
	pool := make([]Policy, 6)
	for i := range pool {
		if i%2 == 0 {
			pool[i] = &wirePasswordPolicy{Email: fmt.Sprintf("rt%d@x", i)}
		} else {
			pool[i] = &wireACLPolicy{ACL: []string{fmt.Sprintf("rt%d", i)}}
		}
	}
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 300; iter++ {
		raw := strings.Repeat("x", 1+rng.Intn(40))
		s := NewString(raw)
		for k := rng.Intn(5); k > 0; k-- {
			s = s.WithPolicyRange(rng.Intn(len(raw)+1), rng.Intn(len(raw)+1), pool[rng.Intn(len(pool))])
		}
		ann := mustEncodeSpans(t, s)
		if iter%3 == 0 {
			annCompileMemo.Reset()
		}
		got, err := DecodeSpans(raw, ann)
		if err != nil {
			t.Fatal(err)
		}
		if again := mustEncodeSpans(t, got); !bytes.Equal(ann, again) {
			t.Fatalf("round trip diverged:\n first: %s\nsecond: %s", ann, again)
		}
		if err := got.invariantErr(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergerAndUnregisteredClassesKeepTheirDecode: a Merger class is
// instantiated per decode and both operands reach Merge; an unknown
// class fails with the message it always had.
func TestMergerAndUnregisteredClassesKeepTheirDecode(t *testing.T) {
	enc := mustEncodePolicy(t, &mergingPolicy{Group: "g"})
	before := ReadInternStats()
	m1, err := DecodePolicy(enc)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodePolicy(enc)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Error("two decodes of a Merger class must be distinct objects")
	}
	if after := ReadInternStats(); after.InstanceHits != before.InstanceHits || after.InstanceMisses-before.InstanceMisses != 2 {
		t.Errorf("Merger decodes: hits %d→%d, misses %d→%d; want no hit and 2 misses",
			before.InstanceHits, after.InstanceHits, before.InstanceMisses, after.InstanceMisses)
	}
	mergingPolicyMerges.Store(0)
	out, err := MergePolicies(NewPolicySet(m1), NewPolicySet(m2))
	if err != nil {
		t.Fatal(err)
	}
	if n := mergingPolicyMerges.Load(); n != 2 || out.Len() != 2 {
		t.Errorf("Merge ran %d times over %d result policies, want 2 and 2", n, out.Len())
	}

	_, err = DecodePolicy([]byte(`{"class":"no.Such","fields":{}}`))
	if want := `resin: decode policy: unknown class "no.Such"`; err == nil || err.Error() != want {
		t.Errorf("unknown class: err = %v, want %s", err, want)
	}
}

// TestPolicyInstanceTableBounded: churn of twice the cap leaves at most
// the cap behind, a policy decoded throughout keeps its one instance
// across the rotations, and an oversized encoding never enters.
func TestPolicyInstanceTableBounded(t *testing.T) {
	hotEnc := mustEncodePolicy(t, &wirePasswordPolicy{Email: "hot@bounded"})
	hot, err := DecodePolicy(hotEnc)
	if err != nil {
		t.Fatal(err)
	}
	before := ReadInternStats()
	for i := 0; i < 2*maxInternedSets; i++ {
		enc := fmt.Sprintf(`{"class":"test.WirePasswordPolicy","fields":{"email":"churn%d@bounded"}}`, i)
		if _, err := DecodePolicy([]byte(enc)); err != nil {
			t.Fatal(err)
		}
		if i%1024 == 0 {
			if p, _ := DecodePolicy(hotEnc); p != hot {
				t.Fatalf("hot policy lost its canonical instance after %d churn decodes", i)
			}
		}
	}
	after := ReadInternStats()
	if after.Instances > maxInternedSets {
		t.Errorf("instance table holds %d policies, cap %d", after.Instances, maxInternedSets)
	}
	if got := after.InstanceRotations - before.InstanceRotations; got < 3 {
		t.Errorf("2×cap churn caused %d rotations, want ≥ 3", got)
	}

	big := mustEncodePolicy(t, &wirePasswordPolicy{Email: strings.Repeat("e", maxPolicyInstanceBytes)})
	b1, err := DecodePolicy(big)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := DecodePolicy(big)
	if b1 == b2 {
		t.Error("an oversized encoding must be instantiated per decode")
	}
	if end := ReadInternStats(); end.Instances != after.Instances || end.InstanceHits != after.InstanceHits {
		t.Error("an oversized encoding entered the instance table")
	}
}

// TestPolicyInstanceConcurrent (run under -race): goroutines decoding
// one encoding all receive one pointer — the first decode included —
// while others churn the table through a rotation.
func TestPolicyInstanceConcurrent(t *testing.T) {
	enc := mustEncodePolicy(t, &wirePasswordPolicy{Email: "race@instance"})
	const decoders, churners, perChurner = 8, 4, maxInternedSets/2/4 + 1
	got := make([]Policy, decoders)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(decoders + churners)
	for c := 0; c < churners; c++ {
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perChurner; i++ {
				e := fmt.Sprintf(`{"class":"test.WirePasswordPolicy","fields":{"email":"race%d.%d"}}`, c, i)
				if _, err := DecodePolicy([]byte(e)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	for d := 0; d < decoders; d++ {
		go func(d int) {
			defer wg.Done()
			<-start
			// One decode per churn insert, so the table rotates under
			// the decoders rather than after them.
			for i := 0; i < perChurner; i++ {
				p, err := DecodePolicy(enc)
				if err != nil {
					t.Error(err)
					return
				}
				if got[d] == nil {
					got[d] = p
				} else if p != got[d] {
					t.Errorf("decoder %d saw two instances of one encoding", d)
					return
				}
				runtime.Gosched()
			}
		}(d)
	}
	before := ReadInternStats()
	close(start)
	wg.Wait()
	for d := 1; d < decoders; d++ {
		if got[d] != got[0] {
			t.Fatalf("decoders 0 and %d received different instances", d)
		}
	}
	if after := ReadInternStats(); after.InstanceRotations == before.InstanceRotations {
		t.Error("the churn did not rotate the table")
	}
}
