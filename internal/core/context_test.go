package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestContextBasics(t *testing.T) {
	ctx := NewContext(KindEmail)
	if ctx.Type() != KindEmail {
		t.Errorf("type = %q", ctx.Type())
	}
	ctx.Set("email", "u@foo.com")
	ctx.Set("count", 3)
	ctx.Set("flag", true)

	if v, ok := ctx.GetString("email"); !ok || v != "u@foo.com" {
		t.Errorf("GetString = %q %v", v, ok)
	}
	if _, ok := ctx.GetString("count"); ok {
		t.Error("GetString on non-string should be !ok")
	}
	if _, ok := ctx.GetString("missing"); ok {
		t.Error("GetString on missing should be !ok")
	}
	if !ctx.GetBool("flag") || ctx.GetBool("missing") || ctx.GetBool("email") {
		t.Error("GetBool wrong")
	}
	if v, ok := ctx.Get("count"); !ok || v.(int) != 3 {
		t.Error("Get wrong")
	}
	ctx.Delete("count")
	if _, ok := ctx.Get("count"); ok {
		t.Error("Delete failed")
	}
}

func TestContextCloneIndependent(t *testing.T) {
	ctx := NewContext(KindHTTP)
	ctx.Set("user", "alice")
	c2 := ctx.Clone()
	c2.Set("user", "bob")
	if u, _ := ctx.GetString("user"); u != "alice" {
		t.Error("clone mutated the original")
	}
	if u, _ := c2.GetString("user"); u != "bob" {
		t.Error("clone did not take the write")
	}
	if c2.Type() != KindHTTP {
		t.Error("clone lost the type")
	}
}

func TestContextString(t *testing.T) {
	ctx := NewContext(KindSQL)
	ctx.Set("user", "alice")
	s := ctx.String()
	if !strings.Contains(s, `type: sql`) || !strings.Contains(s, "user: alice") {
		t.Errorf("String() = %q", s)
	}
	// Keys are sorted for deterministic output.
	if strings.Index(s, "type") < strings.Index(s, "user") == false {
		t.Errorf("keys not sorted: %q", s)
	}
}

func TestContextConcurrentAccess(t *testing.T) {
	ctx := NewContext(KindHTTP)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ctx.Set("k", i)
				ctx.Get("k")
				ctx.GetString("type")
				_ = ctx.String()
			}
		}(i)
	}
	wg.Wait()
}

func TestPolicyNameVariants(t *testing.T) {
	if PolicyName(nil) != "<nil>" {
		t.Error("nil name")
	}
	if got := PolicyName(&allowPolicy{}); got != "allowPolicy" {
		t.Errorf("unregistered name = %q", got)
	}
	if got := PolicyName(&wirePasswordPolicy{}); got != "test.WirePasswordPolicy" {
		t.Errorf("registered name = %q", got)
	}
}

func TestAssertionErrorFormatting(t *testing.T) {
	inner := &denyPolicy{Reason: "nope"}
	ctx := NewContext(KindHTTP)
	ae := &AssertionError{Policy: inner, Context: ctx, Op: "export_check", Err: errString("nope")}
	msg := ae.Error()
	for _, want := range []string{"denyPolicy", "export_check", "http", "nope"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	// Filter-originated assertion (no policy).
	ae2 := &AssertionError{Op: "read_check", Err: errString("bad")}
	if !strings.Contains(ae2.Error(), "filter object") || !strings.Contains(ae2.Error(), "internal") {
		t.Errorf("filter error = %q", ae2.Error())
	}
	if ae.Unwrap() == nil {
		t.Error("Unwrap should return the inner error")
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestIsAssertionErrorUnwrapsChains(t *testing.T) {
	ae := &AssertionError{Op: "merge", Err: errString("x")}
	wrapped := wrapErr{ae}
	if got, ok := IsAssertionError(wrapped); !ok || got != ae {
		t.Error("should unwrap one level")
	}
	if _, ok := IsAssertionError(errString("plain")); ok {
		t.Error("plain error is not an assertion error")
	}
	if _, ok := IsAssertionError(nil); ok {
		t.Error("nil is not an assertion error")
	}
}

type wrapErr struct{ inner error }

func (w wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w wrapErr) Unwrap() error { return w.inner }

func TestChannelConcurrentWrites(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindHTTP)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := ch.WriteRaw("x"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(ch.RawOutput()); got != 800 {
		t.Errorf("output length = %d", got)
	}
}

func TestRuntimeViolationCounting(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindHTTP)
	for i := 0; i < 3; i++ {
		ch.Write(NewStringPolicy("s", &denyPolicy{Reason: "no"}))
	}
	if rt.Violations() != 3 {
		t.Errorf("violations = %d", rt.Violations())
	}
	// Non-assertion errors are not counted.
	ch2 := rt.NewBareChannel(KindPipe)
	ch2.PushFilter(WriteFilterFunc(func(c *Channel, d String, off int64) (String, error) {
		return d, errString("io failure")
	}))
	ch2.WriteRaw("x")
	if rt.Violations() != 3 {
		t.Errorf("plain errors must not count as violations: %d", rt.Violations())
	}
}

func TestNilRuntimeTracking(t *testing.T) {
	var rt *Runtime
	if rt.Tracking() {
		t.Error("nil runtime tracks nothing")
	}
	ch := NewChannel(nil, KindPipe, ExportCheckFilter{})
	if err := ch.Write(NewStringPolicy("s", &denyPolicy{Reason: "no"})); err != nil {
		t.Error("nil-runtime channels skip filters")
	}
}

func TestChannelSinkErrorPropagates(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindFile)
	ch.SetSink(failingWriter{})
	if err := ch.WriteRaw("x"); err == nil {
		t.Error("sink failure should surface")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, errString("disk full") }

// TestContextSetGetAllocFree: up to eight keys besides "type" live in
// the context itself, so setting and reading them allocates nothing.
func TestContextSetGetAllocFree(t *testing.T) {
	ctx := NewContext(KindHTTP)
	keys := []string{"user", "session", "privChair", "pc", "db", "op", "path", "email"}
	vals := make([]any, len(keys))
	for i := range vals {
		vals[i] = i * 1000
	}
	use := func() {
		for i, k := range keys {
			ctx.Set(k, vals[i])
		}
		for i, k := range keys {
			if v, ok := ctx.Get(k); !ok || v != vals[i] {
				t.Fatalf("Get(%q) = %v, %v", k, v, ok)
			}
		}
		if ctx.Type() != KindHTTP {
			t.Fatal("lost the type")
		}
	}
	if allocs := testing.AllocsPerRun(100, use); allocs != 0 {
		t.Errorf("Set and Get over %d keys: %.0f allocs, want 0", len(keys), allocs)
	}
}

// TestContextSpillAndType: keys past the inline ones, deletes across
// both, and "type" set, deleted and set to a non-string keep the map's
// semantics.
func TestContextSpillAndType(t *testing.T) {
	ctx := NewContext(KindSQL)
	for i := 0; i < 12; i++ {
		ctx.Set(fmt.Sprintf("k%02d", i), i)
	}
	ctx.Delete("k03")
	ctx.Delete("k10")
	ctx.Set("k10", "back")
	for i := 0; i < 12; i++ {
		v, ok := ctx.Get(fmt.Sprintf("k%02d", i))
		switch i {
		case 3:
			if ok {
				t.Error("deleted inline key still present")
			}
		case 10:
			if v != "back" {
				t.Errorf("k10 = %v, %v", v, ok)
			}
		default:
			if !ok || v != i {
				t.Errorf("k%02d = %v, %v", i, v, ok)
			}
		}
	}
	clone := ctx.Clone()
	clone.Set("k11", "clone")
	if v, _ := ctx.Get("k11"); v != 11 {
		t.Error("clone shares keys past the inline eight with the original")
	}
	if v, ok := ctx.Get("type"); !ok || v != KindSQL {
		t.Errorf(`Get("type") = %v, %v`, v, ok)
	}
	ctx.Set("type", 7)
	if ctx.Type() != "" || !strings.Contains(ctx.String(), "type: 7") {
		t.Errorf("non-string type: Type() = %q, String() = %s", ctx.Type(), ctx)
	}
	ctx.Delete("type")
	if _, ok := ctx.Get("type"); ok || strings.Contains(ctx.String(), "type") {
		t.Errorf("deleted type still present: %s", ctx)
	}
	ctx.Set("type", KindEmail)
	if ctx.Type() != KindEmail {
		t.Errorf("Type() = %q", ctx.Type())
	}
	want := "{k00: 0, k01: 1, k02: 2, k04: 4, k05: 5, k06: 6, k07: 7, k08: 8, k09: 9, k10: back, k11: 11, type: email}"
	if got := ctx.String(); got != want {
		t.Errorf("String() = %s\nwant       %s", got, want)
	}
}
