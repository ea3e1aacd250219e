package core

import (
	"strings"
	"testing"
	"testing/quick"
)

// Serializable test policies, registered once for the package tests.

type wirePasswordPolicy struct {
	Email string `json:"email"`
}

func (p *wirePasswordPolicy) ExportCheck(ctx *Context) error { return nil }

type wireACLPolicy struct {
	ACL []string `json:"acl"`
}

func (p *wireACLPolicy) ExportCheck(ctx *Context) error { return nil }

type unregisteredPolicy struct{}

func (p *unregisteredPolicy) ExportCheck(ctx *Context) error { return nil }

type wireWriteFilter struct {
	Owner string `json:"owner"`
}

func (f *wireWriteFilter) FilterWrite(ch *Channel, data String, off int64) (String, error) {
	return data, nil
}

func init() {
	RegisterPolicyClass("test.WirePasswordPolicy", &wirePasswordPolicy{})
	RegisterPolicyClass("test.WireACLPolicy", &wireACLPolicy{})
	RegisterFilterClass("test.WireWriteFilter", &wireWriteFilter{})
}

func TestPolicyRoundTrip(t *testing.T) {
	p := &wirePasswordPolicy{Email: "u@foo.com"}
	data, err := EncodePolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePolicy(data)
	if err != nil {
		t.Fatal(err)
	}
	gp, ok := got.(*wirePasswordPolicy)
	if !ok {
		t.Fatalf("decoded type %T", got)
	}
	if gp.Email != "u@foo.com" {
		t.Errorf("email = %q", gp.Email)
	}
	if gp == p {
		t.Error("decode must produce a fresh object")
	}
}

func TestPolicyRoundTripSliceFields(t *testing.T) {
	p := &wireACLPolicy{ACL: []string{"alice", "bob"}}
	data, err := EncodePolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePolicy(data)
	if err != nil {
		t.Fatal(err)
	}
	gp := got.(*wireACLPolicy)
	if len(gp.ACL) != 2 || gp.ACL[0] != "alice" || gp.ACL[1] != "bob" {
		t.Errorf("acl = %v", gp.ACL)
	}
}

func TestEncodeUnregisteredPolicyFails(t *testing.T) {
	if _, err := EncodePolicy(&unregisteredPolicy{}); err == nil {
		t.Fatal("unregistered policy must not serialize silently")
	}
}

func TestDecodeUnknownClassFails(t *testing.T) {
	if _, err := DecodePolicy([]byte(`{"class":"no.Such","fields":{}}`)); err == nil {
		t.Fatal("unknown class must fail")
	}
	if _, err := DecodePolicy([]byte(`garbage`)); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestRegisterRejectsBadPrototypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-pointer prototype must panic")
		}
	}()
	type valPolicy struct{}
	RegisterPolicyClass("test.Bad", nil)
	_ = valPolicy{}
}

func TestRegisterConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a name for a different type must panic")
		}
	}()
	RegisterPolicyClass("test.WirePasswordPolicy", &wireACLPolicy{})
}

func TestRegisterSameTypeIdempotent(t *testing.T) {
	// Same name, same type: allowed (init may run in tests and binaries).
	RegisterPolicyClass("test.WirePasswordPolicy", &wirePasswordPolicy{})
}

func TestFilterRoundTrip(t *testing.T) {
	f := &wireWriteFilter{Owner: "alice"}
	data, err := EncodeFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFilter(data)
	if err != nil {
		t.Fatal(err)
	}
	gf, ok := got.(*wireWriteFilter)
	if !ok || gf.Owner != "alice" {
		t.Fatalf("decoded %T %+v", got, got)
	}
}

func TestSpanRoundTrip(t *testing.T) {
	p1 := &wirePasswordPolicy{Email: "a@x"}
	p2 := &wireACLPolicy{ACL: []string{"g"}}
	s := Concat(
		NewString("plain-"),
		NewStringPolicy("pw", p1),
		NewString("-mid-"),
		NewStringPolicy("page", p2),
	)
	ann, err := EncodeSpans(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpans(s.Raw(), ann)
	if err != nil {
		t.Fatal(err)
	}
	if got.Raw() != s.Raw() {
		t.Fatalf("raw = %q", got.Raw())
	}
	// Byte-for-byte policy class layout must match (objects are fresh).
	for i := 0; i < s.Len(); i++ {
		wantNames := policyClassNames(s.PoliciesAt(i))
		gotNames := policyClassNames(got.PoliciesAt(i))
		if wantNames != gotNames {
			t.Errorf("byte %d: classes %q vs %q", i, gotNames, wantNames)
		}
	}
	if err := got.invariantErr(); err != nil {
		t.Errorf("decoded string invariant: %v", err)
	}
}

func policyClassNames(ps *PolicySet) string {
	var names []string
	ps.Each(func(p Policy) error {
		n, _ := RegisteredPolicyName(p)
		names = append(names, n)
		return nil
	})
	// order-insensitive normal form
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return strings.Join(names, ",")
}

// TestApplySharesSpanListAllocFree: every cell covering a compiled
// annotation's extent gets the annotation's one span list, allocating
// nothing — and sharing is safe: appending one cell to a Builder, and
// mutating the builder after it produced a String, changes neither the
// other cell nor the annotation.
func TestApplySharesSpanListAllocFree(t *testing.T) {
	ann, err := EncodeSpans(Concat(
		NewStringPolicy("sec", &wirePasswordPolicy{Email: "share@x"}),
		NewStringPolicy("ret", &wireACLPolicy{ACL: []string{"share"}}),
	))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileAnnotation(ann)
	if err != nil {
		t.Fatal(err)
	}
	a, b := comp.Apply("secret"), comp.Apply("SECRET")
	if &a.spans[0] != &b.spans[0] {
		t.Fatal("two cells of one annotation must share its span list")
	}
	wantB := b.Describe()

	var bld Builder
	bld.Append(a)
	first := bld.String()
	wantFirst := first.Describe()
	bld.AppendBytePolicies('!', NewPolicySet(&wirePasswordPolicy{Email: "other@x"}))
	bld.Append(a)
	bld.String()
	for _, c := range []struct {
		name      string
		got, want string
	}{
		{"the other cell", b.Describe(), wantB},
		{"the builder's first string", first.Describe(), wantFirst},
		{"a fresh cell", comp.Apply("SECRET").Describe(), wantB},
	} {
		if c.got != c.want {
			t.Errorf("%s changed:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
	if err := b.invariantErr(); err != nil {
		t.Error(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = comp.Apply("secret") }); allocs != 0 {
		t.Errorf("Apply over the annotation's extent: %.0f allocs, want 0", allocs)
	}
}

func TestSpanRoundTripUntainted(t *testing.T) {
	ann, err := EncodeSpans(NewString("clean"))
	if err != nil {
		t.Fatal(err)
	}
	if ann != nil {
		t.Errorf("untainted annotation = %q, want nil", ann)
	}
	got, err := DecodeSpans("clean", nil)
	if err != nil || got.IsTainted() {
		t.Errorf("decode nil annotation: %v, tainted=%v", err, got.IsTainted())
	}
}

func TestEncodeSpansUnregisteredPolicyFails(t *testing.T) {
	s := NewStringPolicy("x", &unregisteredPolicy{})
	if _, err := EncodeSpans(s); err == nil {
		t.Fatal("span encoding must fail loudly on unregistered policies")
	}
}

func TestDecodeSpansBadJSON(t *testing.T) {
	if _, err := DecodeSpans("abc", []byte("{{{")); err == nil {
		t.Fatal("bad annotation must fail")
	}
}

func TestQuickSpanRoundTripRandomLayout(t *testing.T) {
	f := func(raw string, starts, ends []uint8) bool {
		s := NewString(raw)
		n := len(starts)
		if len(ends) < n {
			n = len(ends)
		}
		for i := 0; i < n && i < 4; i++ {
			p := &wirePasswordPolicy{Email: strings.Repeat("e", i+1)}
			s = s.WithPolicyRange(int(starts[i])%(len(raw)+1), int(ends[i])%(len(raw)+1), p)
		}
		ann, err := EncodeSpans(s)
		if err != nil {
			return false
		}
		got, err := DecodeSpans(s.Raw(), ann)
		if err != nil {
			return false
		}
		for i := 0; i < s.Len(); i++ {
			if policyClassNames(got.PoliciesAt(i)) != policyClassNames(s.PoliciesAt(i)) {
				return false
			}
			// Count must match too (identity differs, multiplicity must not).
			if got.PoliciesAt(i).Len() != s.PoliciesAt(i).Len() {
				return false
			}
		}
		return got.invariantErr() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
