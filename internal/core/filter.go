package core

import (
	"fmt"
	"slices"
)

// Filter objects (§3.2) are the generic interposition mechanism that
// defines data-flow boundaries. A filter object is associated with an I/O
// channel (file handle, socket, pipe, HTTP output, email, SQL) or a
// function-call interface, and the runtime invokes it when data crosses.
//
// A filter object implements any subset of the three interposition methods
// of Table 3 (filter_read, filter_write, filter_func) by satisfying the
// corresponding interface below. Channels hold []Filter and invoke each
// method the filter provides.
type Filter any

// ReadFilter is invoked when data comes in through a data-flow boundary;
// it can assign initial policies to the data (e.g. de-serializing them from
// persistent storage, or marking socket input as untrusted), veto the read,
// or rewrite the data.
type ReadFilter interface {
	FilterRead(ch *Channel, data String, offset int64) (String, error)
}

// WriteFilter is invoked when data is exported through a data-flow
// boundary; it typically invokes assertion checks (the default filter) or
// serializes policy objects to persistent storage, and may rewrite the
// in-transit data.
type WriteFilter interface {
	FilterWrite(ch *Channel, data String, offset int64) (String, error)
}

// FuncFilter checks and/or proxies a function call when a filter object is
// attached to a function-call interface (e.g. the SQL query function or an
// encryption routine). It may inspect or rewrite both arguments and
// results.
type FuncFilter interface {
	FilterFunc(ch *Channel, args []any) ([]any, error)
}

// ExportCheckFilter is the default filter object that RESIN pre-defines on
// every output channel (Figure 3 of the paper):
//
//	def filter_write(self, buf):
//	    for p in policy_get(buf):
//	        if hasattr(p, 'export_check'):
//	            p.export_check(self.context)
//	    return buf
//
// It walks the in-transit data's policies and invokes ExportCheck with the
// channel's context; any veto aborts the write. Data with no policies
// passes freely — programmer-specified filters (e.g. the code-import
// filter) are needed to *require* a policy.
type ExportCheckFilter struct{}

// FilterWrite invokes ExportCheck on every policy attached to any byte of
// data. Each distinct policy object is checked once per write even if it
// covers several spans or sets.
func (ExportCheckFilter) FilterWrite(ch *Channel, data String, offset int64) (String, error) {
	return data, data.eachDistinctPolicy(func(p Policy) error {
		if err := p.ExportCheck(ch.Context()); err != nil {
			return &AssertionError{Policy: p, Context: ch.Context(), Op: "export_check", Err: err}
		}
		return nil
	})
}

// eachDistinctPolicy calls fn once for every distinct policy object on
// t's spans, in span order, stopping at the first error. A span whose
// set an earlier span already carried is skipped without a walk — with
// interned sets the common repeat is a pointer comparison — and a policy
// several sets share is still visited once. The bookkeeping lives in
// stack arrays, so a write that passes allocates nothing.
func (t String) eachDistinctPolicy(fn func(Policy) error) error {
	var setBuf [8]*PolicySet
	var polBuf [16]Policy
	walked, seen := setBuf[:0], polBuf[:0]
	for _, sp := range t.spans {
		if slices.Contains(walked, sp.ps) {
			continue
		}
		walked = append(walked, sp.ps)
	members:
		for _, p := range sp.ps.policies {
			for _, q := range seen {
				if samePolicy(p, q) {
					continue members
				}
			}
			seen = append(seen, p)
			if err := fn(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadCheckFilter is the input-side counterpart of ExportCheckFilter: it
// invokes ReadCheck on every policy of incoming data that implements
// ReadChecker. The RESIN-aware web server's static-file path and the
// interpreter's code-import channel build on this.
type ReadCheckFilter struct{}

// FilterRead invokes ReadCheck on every ReadChecker policy of data.
func (ReadCheckFilter) FilterRead(ch *Channel, data String, offset int64) (String, error) {
	return data, data.eachDistinctPolicy(func(p Policy) error {
		rc, ok := p.(ReadChecker)
		if !ok {
			return nil
		}
		if err := rc.ReadCheck(ch.Context()); err != nil {
			return &AssertionError{Policy: p, Context: ch.Context(), Op: "read_check", Err: err}
		}
		return nil
	})
}

// TaintReadFilter is a read filter that attaches the given policies to all
// incoming data. Input boundaries (HTTP parameters, socket reads) use it
// to mark data as untrusted the moment it enters the runtime.
//
// A filter built with NewTaintReadFilter attaches one pre-built,
// interned policy set, so every string tainted through it shares a
// single canonical set and downstream comparisons and unions take the
// pointer fast paths. A zero-value filter with Policies set directly
// also works, rebuilding the set per read.
//
// Mutating Policies after NewTaintReadFilter is safe but wasteful: any
// divergence from the constructed state — append, truncation, or
// in-place replacement — is detected per read and the filter falls
// back to rebuilding the set from Policies, so data is always tainted
// with exactly the current contents of Policies; only the interning
// speedup is lost. Build a fresh filter when the policies change.
type TaintReadFilter struct {
	Policies []Policy

	// set is the pre-built interned policy set when constructed via
	// NewTaintReadFilter; snapshot is an independent copy of the
	// policies it was built from, against which FilterRead checks
	// Policies for mutations before trusting set.
	set      *PolicySet
	snapshot []Policy
}

// NewTaintReadFilter builds a TaintReadFilter whose policy set is
// constructed once and interned. Boundaries that taint high volumes of
// input with the same policies (an HTTP server's parameter inputs, a
// socket reader) should build their filter this way and reuse it.
func NewTaintReadFilter(ps ...Policy) *TaintReadFilter {
	return &TaintReadFilter{
		Policies: append([]Policy(nil), ps...),
		set:      NewPolicySet(ps...).Intern(),
		snapshot: append([]Policy(nil), ps...),
	}
}

// FilterRead attaches the configured policies to every byte of data.
func (f *TaintReadFilter) FilterRead(ch *Channel, data String, offset int64) (String, error) {
	if f.set != nil && f.policiesUnchanged() {
		return data.withSet(f.set), nil
	}
	return data.WithPolicy(f.Policies...), nil
}

// policiesUnchanged reports whether Policies still matches the
// snapshot the pre-built set was constructed from.
func (f *TaintReadFilter) policiesUnchanged() bool {
	if len(f.Policies) != len(f.snapshot) {
		return false
	}
	for i := range f.snapshot {
		if !samePolicy(f.Policies[i], f.snapshot[i]) {
			return false
		}
	}
	return true
}

// StripPolicyFilter is a write filter that removes policies matching Pred
// from in-transit data. The paper's example: "a programmer may choose to
// attach a filter object to the encryption function that removes policy
// objects for confidentiality assertions" (§3.2).
type StripPolicyFilter struct {
	Pred func(Policy) bool
}

// FilterWrite strips matching policies and passes the data on.
func (f *StripPolicyFilter) FilterWrite(ch *Channel, data String, offset int64) (String, error) {
	if f.Pred == nil {
		return data, nil
	}
	return data.WithoutPolicyIf(f.Pred), nil
}

// RejectSequenceFilter is a write filter that vetoes data containing a
// forbidden byte sequence originating from tainted input. It implements
// the paper's HTTP response-splitting defense (§3.2, §5.4): "a developer
// can use a filter to reject any CR-LF-CR-LF sequences in the HTTP header
// that came from user input". If TaintedOnly is false the sequence is
// rejected wherever it appears.
type RejectSequenceFilter struct {
	Sequence    string
	TaintedOnly bool
	// IsTainted classifies policies as taint markers; required when
	// TaintedOnly is true.
	IsTainted func(Policy) bool
}

// FilterWrite scans for the forbidden sequence.
func (f *RejectSequenceFilter) FilterWrite(ch *Channel, data String, offset int64) (String, error) {
	if f.Sequence == "" {
		return data, nil
	}
	raw := data.Raw()
	for i := 0; ; {
		j := indexFrom(raw, f.Sequence, i)
		if j < 0 {
			return data, nil
		}
		if !f.TaintedOnly {
			return data, fmt.Errorf("resin: forbidden sequence %q at offset %d", f.Sequence, j)
		}
		for k := j; k < j+len(f.Sequence); k++ {
			if data.PoliciesAt(k).Any(f.IsTainted) {
				return data, fmt.Errorf("resin: forbidden sequence %q at offset %d derived from untrusted input", f.Sequence, j)
			}
		}
		i = j + 1
	}
}

func indexFrom(s, sub string, from int) int {
	if from >= len(s) {
		return -1
	}
	i := index(s[from:], sub)
	if i < 0 {
		return -1
	}
	return from + i
}

func index(s, sub string) int {
	n := len(sub)
	if n == 0 {
		return 0
	}
	for i := 0; i+n <= len(s); i++ {
		if s[i:i+n] == sub {
			return i
		}
	}
	return -1
}

// FuncFilterFunc adapts a plain function to the FuncFilter interface,
// mirroring how the paper's applications attach small closures to
// function-call boundaries.
type FuncFilterFunc func(ch *Channel, args []any) ([]any, error)

// FilterFunc calls the wrapped function.
func (f FuncFilterFunc) FilterFunc(ch *Channel, args []any) ([]any, error) { return f(ch, args) }

// WriteFilterFunc adapts a plain function to the WriteFilter interface.
type WriteFilterFunc func(ch *Channel, data String, offset int64) (String, error)

// FilterWrite calls the wrapped function.
func (f WriteFilterFunc) FilterWrite(ch *Channel, data String, offset int64) (String, error) {
	return f(ch, data, offset)
}

// ReadFilterFunc adapts a plain function to the ReadFilter interface.
type ReadFilterFunc func(ch *Channel, data String, offset int64) (String, error)

// FilterRead calls the wrapped function.
func (f ReadFilterFunc) FilterRead(ch *Channel, data String, offset int64) (String, error) {
	return f(ch, data, offset)
}
