package core

import (
	"errors"
	"strings"
	"testing"
)

func TestChannelDefaultFilterAllows(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindHTTP)
	data := NewStringPolicy("hello", &allowPolicy{Name: "ok"})
	if err := ch.Write(data); err != nil {
		t.Fatalf("allowing policy should pass: %v", err)
	}
	if ch.RawOutput() != "hello" {
		t.Errorf("output = %q", ch.RawOutput())
	}
}

func TestChannelDefaultFilterVetoes(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindHTTP)
	data := NewStringPolicy("secret", &denyPolicy{Reason: "unauthorized disclosure"})
	err := ch.Write(data)
	if err == nil {
		t.Fatal("deny policy should veto the write")
	}
	ae, ok := IsAssertionError(err)
	if !ok {
		t.Fatalf("want AssertionError, got %T: %v", err, err)
	}
	if ae.Op != "export_check" || ae.Context.Type() != KindHTTP {
		t.Errorf("ae = %+v", ae)
	}
	if ch.RawOutput() != "" {
		t.Errorf("vetoed write must not emit output, got %q", ch.RawOutput())
	}
	if rt.Violations() != 1 {
		t.Errorf("violations = %d", rt.Violations())
	}
}

func TestChannelUntaintedDataPassesDefaultFilter(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindSocket)
	if err := ch.Write(NewString("plain")); err != nil {
		t.Fatalf("untainted data should always pass the default filter: %v", err)
	}
}

func TestChannelTrackingDisabledSkipsFilters(t *testing.T) {
	rt := NewUntrackedRuntime()
	ch := rt.NewChannel(KindHTTP)
	data := NewString("secret").WithPolicy(&denyPolicy{Reason: "no"})
	if err := ch.Write(data); err != nil {
		t.Fatalf("untracked runtime must skip filters: %v", err)
	}
	if ch.RawOutput() != "secret" {
		t.Errorf("output = %q", ch.RawOutput())
	}
}

func TestChannelContextVisibleToPolicies(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindEmail)
	ch.Context().Set("email", "u@foo.com")

	p := &contextCheckPolicy{WantKey: "email", WantVal: "u@foo.com"}
	if err := ch.Write(NewStringPolicy("pw", p)); err != nil {
		t.Fatalf("policy should see channel context: %v", err)
	}
	ch2 := rt.NewChannel(KindEmail)
	ch2.Context().Set("email", "attacker@evil.com")
	if err := ch2.Write(NewStringPolicy("pw", p)); err == nil {
		t.Fatal("policy should veto mismatched context")
	}
}

type contextCheckPolicy struct {
	WantKey, WantVal string
}

func (p *contextCheckPolicy) ExportCheck(ctx *Context) error {
	if v, _ := ctx.GetString(p.WantKey); v != p.WantVal {
		return errors.New("context mismatch")
	}
	return nil
}

func TestChannelFilterOrderAndRewrite(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewBareChannel(KindPipe)
	var order []string
	ch.PushFilter(WriteFilterFunc(func(c *Channel, d String, off int64) (String, error) {
		order = append(order, "first")
		return Concat(d, NewString("-1")), nil
	}))
	ch.PushFilter(WriteFilterFunc(func(c *Channel, d String, off int64) (String, error) {
		order = append(order, "second")
		return Concat(d, NewString("-2")), nil
	}))
	if err := ch.Write(NewString("x")); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "first,second" {
		t.Errorf("filter order = %v", order)
	}
	if ch.RawOutput() != "x-1-2" {
		t.Errorf("rewrite chain output = %q", ch.RawOutput())
	}
}

func TestChannelReadFiltersTaint(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewBareChannel(KindSocket)
	p := &allowPolicy{Name: "untrusted"}
	ch.PushFilter(&TaintReadFilter{Policies: []Policy{p}})
	got, err := ch.Read(NewString("input"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasPolicyEverywhere(func(q Policy) bool { return q == p }) {
		t.Error("read filter should taint all incoming bytes")
	}
}

func TestReadCheckFilter(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewBareChannel(KindCode)
	ch.PushFilter(ReadCheckFilter{})
	deny := &readDenyPolicy{}
	if _, err := ch.Read(NewStringPolicy("code", deny)); err == nil {
		t.Fatal("ReadChecker veto should propagate")
	}
	if _, err := ch.Read(NewStringPolicy("code", &allowPolicy{Name: "x"})); err != nil {
		t.Fatalf("non-ReadChecker policies are ignored on read: %v", err)
	}
}

type readDenyPolicy struct{}

func (p *readDenyPolicy) ExportCheck(ctx *Context) error { return nil }
func (p *readDenyPolicy) ReadCheck(ctx *Context) error   { return errors.New("not executable") }

func TestStripPolicyFilter(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewBareChannel(KindPipe)
	ch.PushFilter(&StripPolicyFilter{Pred: func(p Policy) bool {
		_, ok := p.(*denyPolicy)
		return ok
	}})
	ch.PushFilter(ExportCheckFilter{})
	// The deny policy is stripped before the export check: models an
	// encryption boundary stripping confidentiality policies.
	data := NewStringPolicy("ciphertext", &denyPolicy{Reason: "no"})
	if err := ch.Write(data); err != nil {
		t.Fatalf("stripped policy should not veto: %v", err)
	}
	if ch.Output().IsTainted() {
		t.Error("policy should be gone from emitted data")
	}
}

func TestRejectSequenceFilterHTTPSplitting(t *testing.T) {
	taint := &allowPolicy{Name: "user-input"}
	isTaint := func(p Policy) bool { return p == taint }
	rt := NewRuntime()
	ch := rt.NewBareChannel(KindHTTP)
	ch.PushFilter(&RejectSequenceFilter{
		Sequence: "\r\n\r\n", TaintedOnly: true, IsTainted: isTaint,
	})
	// CRLFCRLF from the application itself: allowed.
	if err := ch.Write(NewString("Header: a\r\n\r\nbody")); err != nil {
		t.Fatalf("untainted delimiter should pass: %v", err)
	}
	// CRLFCRLF injected via user input: rejected.
	evil := Concat(NewString("Location: "), NewStringPolicy("x\r\n\r\n<script>", taint))
	if err := ch.Write(evil); err == nil {
		t.Fatal("tainted delimiter must be rejected")
	}
	// TaintedOnly=false rejects regardless of provenance.
	ch2 := rt.NewBareChannel(KindHTTP)
	ch2.PushFilter(&RejectSequenceFilter{Sequence: "\r\n\r\n"})
	if err := ch2.Write(NewString("a\r\n\r\nb")); err == nil {
		t.Fatal("unconditional filter must reject")
	}
}

func TestOutputBufferingReleaseAndDiscard(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindHTTP)
	ch.WriteRaw("head|")
	ch.BeginBuffer()
	ch.WriteRaw("author list")
	if err := ch.DiscardBuffer(); err != nil {
		t.Fatal(err)
	}
	ch.WriteRaw("Anonymous|")
	ch.BeginBuffer()
	ch.WriteRaw("abstract")
	if err := ch.ReleaseBuffer(); err != nil {
		t.Fatal(err)
	}
	if got := ch.RawOutput(); got != "head|Anonymous|abstract" {
		t.Errorf("output = %q", got)
	}
}

func TestOutputBufferingNested(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindHTTP)
	ch.BeginBuffer()
	ch.WriteRaw("outer-")
	ch.BeginBuffer()
	ch.WriteRaw("inner")
	if ch.BufferDepth() != 2 {
		t.Errorf("depth = %d", ch.BufferDepth())
	}
	if err := ch.ReleaseBuffer(); err != nil { // inner → outer
		t.Fatal(err)
	}
	if err := ch.ReleaseBuffer(); err != nil { // outer → out
		t.Fatal(err)
	}
	if got := ch.RawOutput(); got != "outer-inner" {
		t.Errorf("output = %q", got)
	}
	if err := ch.ReleaseBuffer(); err != ErrNoBuffer {
		t.Errorf("release with no buffer: %v", err)
	}
	if err := ch.DiscardBuffer(); err != ErrNoBuffer {
		t.Errorf("discard with no buffer: %v", err)
	}
}

func TestOutputBufferingAssertionStillFiresAtWrite(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindHTTP)
	ch.BeginBuffer()
	err := ch.Write(NewStringPolicy("secret", &denyPolicy{Reason: "no"}))
	if err == nil {
		t.Fatal("assertion must fire at write time even inside a buffer")
	}
	ch.DiscardBuffer()
	ch.WriteRaw("Anonymous")
	if got := ch.RawOutput(); got != "Anonymous" {
		t.Errorf("output = %q", got)
	}
}

func TestChannelCallFuncFilters(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewBareChannel(KindSQL)
	ch.PushFilter(FuncFilterFunc(func(c *Channel, args []any) ([]any, error) {
		q := args[0].(String)
		if q.Contains("DROP") {
			return nil, errors.New("rejected")
		}
		return []any{Concat(q, NewString(" LIMIT 1"))}, nil
	}))
	out, err := ch.Call([]any{NewString("SELECT 1")})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(String).Raw() != "SELECT 1 LIMIT 1" {
		t.Errorf("rewritten arg = %q", out[0].(String).Raw())
	}
	if _, err := ch.Call([]any{NewString("DROP TABLE x")}); err == nil {
		t.Fatal("func filter veto should propagate")
	}
}

func TestChannelSinkReceivesRawBytes(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindFile)
	var sb strings.Builder
	ch.SetSink(&sb)
	ch.WriteRaw("abc")
	ch.BeginBuffer()
	ch.WriteRaw("buffered")
	ch.ReleaseBuffer()
	if sb.String() != "abcbuffered" {
		t.Errorf("sink = %q", sb.String())
	}
}

func TestChannelResetOutput(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindHTTP)
	ch.WriteRaw("x")
	ch.ResetOutput()
	if ch.RawOutput() != "" {
		t.Error("reset should clear output")
	}
}

func TestRuntimeChannelRegistry(t *testing.T) {
	rt := NewRuntime()
	ch := rt.NewChannel(KindCode)
	rt.RegisterChannel("interpreter", ch)
	if rt.Channel("interpreter") != ch {
		t.Error("registry lookup failed")
	}
	if rt.Channel("missing") != nil {
		t.Error("missing lookup should be nil")
	}
}

func TestRuntimePolicyAddRespectsTracking(t *testing.T) {
	rt := NewRuntime()
	p := &allowPolicy{Name: "p"}
	if !rt.PolicyAdd(NewString("x"), p).IsTainted() {
		t.Error("tracking on: PolicyAdd should attach")
	}
	if len(rt.PolicyGet(NewStringPolicy("x", p))) != 1 {
		t.Error("PolicyGet should return the policy")
	}
	rt.SetTracking(false)
	if rt.PolicyAdd(NewString("x"), p).IsTainted() {
		t.Error("tracking off: PolicyAdd should be a no-op")
	}
	if rt.PolicyAddRange(NewString("xyz"), 0, 2, p).IsTainted() {
		t.Error("tracking off: PolicyAddRange should be a no-op")
	}
	rt.SetTracking(true)
	s := rt.PolicyAddRange(NewString("xyz"), 0, 2, p)
	if !s.PoliciesAt(0).Contains(p) || s.PoliciesAt(2).Contains(p) {
		t.Error("PolicyAddRange range wrong")
	}
	s = rt.PolicyRemove(s, p)
	if s.IsTainted() {
		t.Error("PolicyRemove failed")
	}
}

// TestExportCheckFilterChecksEachPolicyOnce: one write checks each
// distinct policy once, on the write side and the read side alike —
// whether it recurs in discontiguous spans of one set or is reached
// through two different sets.
func TestExportCheckFilterChecksEachPolicyOnce(t *testing.T) {
	p, q := &countingPolicy{}, &countingPolicy{}
	for _, tc := range []struct {
		name  string
		data  String
		wantQ int
	}{
		{"one set, two spans", NewString("abcdef").WithPolicyRange(0, 2, p).WithPolicyRange(4, 6, p), 0},
		// {p}, {p, q}, {q}: p and q are each reached through two sets.
		{"two sets", NewString("abcdef").WithPolicyRange(0, 4, p).WithPolicyRange(2, 6, q), 1},
	} {
		for _, side := range []string{"write", "read"} {
			p.calls, q.calls = 0, 0
			rt := NewRuntime()
			var err error
			if side == "write" {
				err = rt.NewChannel(KindHTTP).Write(tc.data)
			} else {
				ch := rt.NewBareChannel(KindCode)
				ch.PushFilter(ReadCheckFilter{})
				_, err = ch.Read(tc.data)
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.calls != 1 || q.calls != tc.wantQ {
				t.Errorf("%s, %s: checks p=%d q=%d, want p=1 q=%d", tc.name, side, p.calls, q.calls, tc.wantQ)
			}
		}
	}
}

// TestExportCheckPassingWriteAllocFree: a write whose every check passes
// allocates nothing, however many spans repeat its sets.
func TestExportCheckPassingWriteAllocFree(t *testing.T) {
	ch := NewRuntime().NewChannel(KindHTTP)
	p, q := &countingPolicy{}, &countingPolicy{}
	data := NewStringPolicy("abcdefghij", p).WithPolicyRange(2, 4, q).WithPolicyRange(6, 8, q)
	if data.SpanCount() != 5 {
		t.Fatalf("setup: want 5 spans over 2 sets, got %s", data.Describe())
	}
	write := func() {
		if _, err := (ExportCheckFilter{}).FilterWrite(ch, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("passing multi-span write: %.0f allocs, want 0", allocs)
	}
}

type countingPolicy struct{ calls int }

func (p *countingPolicy) ExportCheck(ctx *Context) error {
	p.calls++
	return nil
}

func (p *countingPolicy) ReadCheck(ctx *Context) error {
	p.calls++
	return nil
}

// TestNewChannelAllocatesOnce: a channel is one object — its context is
// inline and it keeps the caller's filter slice.
func TestNewChannelAllocatesOnce(t *testing.T) {
	rt := NewRuntime()
	fs := []Filter{ExportCheckFilter{}}
	var ch *Channel
	if allocs := testing.AllocsPerRun(100, func() { ch = NewChannel(rt, KindHTTP, fs...) }); allocs != 1 {
		t.Errorf("NewChannel: %.0f allocs, want 1", allocs)
	}
	if ch.Context().Type() != KindHTTP {
		t.Errorf("kind = %q", ch.Context().Type())
	}
}

// TestChannelCallAllocFree: a call through a FuncFilter that answers in
// place copies neither the chain nor the arguments.
func TestChannelCallAllocFree(t *testing.T) {
	ch := NewRuntime().NewBareChannel(KindSQL)
	ch.PushFilter(FuncFilterFunc(func(c *Channel, args []any) ([]any, error) { return args, nil }))
	args := []any{1, 2}
	call := func() {
		if _, err := ch.Call(args); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
		t.Errorf("Call through a no-op FuncFilter: %.0f allocs, want 0", allocs)
	}
}

// TestOutputBufferAllocFree: opening and discarding the outermost
// output buffer uses the channel's inline one.
func TestOutputBufferAllocFree(t *testing.T) {
	ch := NewRuntime().NewChannel(KindHTTP)
	cycle := func() {
		ch.BeginBuffer()
		if err := ch.DiscardBuffer(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("BeginBuffer + DiscardBuffer: %.0f allocs, want 0", allocs)
	}
}

// TestChannelsSharingFilterSliceStayIndependent: chains are
// copy-on-write, so neither PushFilter nor SetFilters on one channel
// reaches another built from the same slice, or the slice itself — even
// when the slice has room to grow in place.
func TestChannelsSharingFilterSliceStayIndependent(t *testing.T) {
	rt := NewRuntime()
	base, f1, f2, f3 := &RejectSequenceFilter{Sequence: "0"}, &RejectSequenceFilter{Sequence: "1"},
		&RejectSequenceFilter{Sequence: "2"}, &RejectSequenceFilter{Sequence: "3"}
	fs := make([]Filter, 1, 4)
	fs[0] = base
	a, b := NewChannel(rt, KindHTTP, fs...), NewChannel(rt, KindHTTP, fs...)
	a.PushFilter(f1)
	b.PushFilter(f2)
	chain := func(ch *Channel) string {
		var seqs []string
		for _, f := range ch.Filters() {
			seqs = append(seqs, f.(*RejectSequenceFilter).Sequence)
		}
		return strings.Join(seqs, ",")
	}
	if got, want := chain(a)+" "+chain(b), "0,1 0,2"; got != want {
		t.Errorf("after PushFilter: chains %q, want %q", got, want)
	}
	a.SetFilters(f3)
	a.PushFilter(f1)
	if got, want := chain(a)+" "+chain(b), "3,1 0,2"; got != want {
		t.Errorf("after SetFilters: chains %q, want %q", got, want)
	}
	if fs[:2][1] != nil {
		t.Error("a channel wrote into the caller's filter slice")
	}
	a.Filters()[0] = f2
	if chain(a) != "3,1" {
		t.Error("Filters must return a copy")
	}
}
