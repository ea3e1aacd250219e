package resin

import "resin/internal/core"

// The public API re-exports the core runtime types under the package name
// applications import. The paper's Table 3 API maps as follows:
//
//	policy_add(data, policy)    → Runtime.PolicyAdd / String.WithPolicy
//	policy_remove(data, policy) → Runtime.PolicyRemove / String.WithoutPolicy
//	policy_get(data)            → Runtime.PolicyGet / String.Policies
//	policy::export_check(ctx)   → Policy.ExportCheck
//	policy::merge(set)          → Merger.Merge
//	filter::filter_read(...)    → ReadFilter.FilterRead
//	filter::filter_write(...)   → WriteFilter.FilterWrite
//	filter::filter_func(...)    → FuncFilter.FilterFunc

type (
	// Policy is a policy object: assertion code plus metadata attached to
	// data (§3.3).
	Policy = core.Policy
	// Merger is a Policy with custom merge semantics (§3.4.2).
	Merger = core.Merger
	// ReadChecker is a Policy checked when data enters the runtime.
	ReadChecker = core.ReadChecker
	// PolicySet is an immutable set of policy objects.
	PolicySet = core.PolicySet
	// String is a tracked string with character-level policy spans (§3.4).
	String = core.String
	// Int is a tracked integer whose arithmetic merges policies.
	Int = core.Int
	// Builder incrementally assembles a tracked String.
	Builder = core.Builder
	// Context is the context hash table describing a boundary (§3.2.1).
	Context = core.Context
	// Channel is a data-flow boundary with a filter chain (§3.2).
	Channel = core.Channel
	// Runtime owns the default boundary and the tracking switch.
	Runtime = core.Runtime
	// Filter is any filter object; see ReadFilter, WriteFilter, FuncFilter.
	Filter = core.Filter
	// ReadFilter interposes on data entering a boundary.
	ReadFilter = core.ReadFilter
	// WriteFilter interposes on data leaving a boundary.
	WriteFilter = core.WriteFilter
	// FuncFilter interposes on a function call.
	FuncFilter = core.FuncFilter
	// AssertionError reports a failed data-flow assertion.
	AssertionError = core.AssertionError
)

// Boundary kinds of the default filter objects (§3.2.1).
const (
	KindSocket = core.KindSocket
	KindPipe   = core.KindPipe
	KindFile   = core.KindFile
	KindHTTP   = core.KindHTTP
	KindEmail  = core.KindEmail
	KindSQL    = core.KindSQL
	KindCode   = core.KindCode
)

// NewRuntime returns a runtime with data tracking enabled.
func NewRuntime() *Runtime { return core.NewRuntime() }

// NewUntrackedRuntime returns a runtime with tracking disabled — the
// "unmodified interpreter" baseline used in the paper's evaluation.
func NewUntrackedRuntime() *Runtime { return core.NewUntrackedRuntime() }

// NewString wraps a raw Go string with no policies attached.
func NewString(s string) String { return core.NewString(s) }

// NewStringPolicy wraps a raw Go string with policies on every byte.
func NewStringPolicy(s string, ps ...Policy) String { return core.NewStringPolicy(s, ps...) }

// NewInt wraps a plain integer with no policies.
func NewInt(v int64) Int { return core.NewInt(v) }

// NewIntPolicy wraps an integer with policies attached.
func NewIntPolicy(v int64, ps ...Policy) Int { return core.NewIntPolicy(v, ps...) }

// NewPolicySet builds a set from the given policies.
func NewPolicySet(ps ...Policy) *PolicySet { return core.NewPolicySet(ps...) }

// InternStats is a snapshot of the policy-set interning counters.
type InternStats = core.InternStats

// ReadInternStats returns the interning machinery's counters — table
// size, hit rates, memoized unions — for monitoring and benchmarks,
// and those of the table that gives decoded policies identity by
// content: Instances, InstanceHits, InstanceMisses, InstanceRotations.
// Long-lived policy sets can be canonicalized with PolicySet.Intern;
// see docs/ARCHITECTURE.md.
func ReadInternStats() InternStats { return core.ReadInternStats() }

// NewTaintReadFilter builds a read filter whose policy set is built
// once and interned — the efficient way for input boundaries to taint
// high volumes of data with the same policies.
func NewTaintReadFilter(ps ...Policy) *TaintReadFilter { return core.NewTaintReadFilter(ps...) }

// Concat concatenates tracked strings with character-level propagation.
func Concat(parts ...String) String { return core.Concat(parts...) }

// Join concatenates elems with sep between each pair.
func Join(elems []String, sep String) String { return core.Join(elems, sep) }

// Format is the tracked analogue of fmt.Sprintf (verbs %s %v %d %q %%).
func Format(format string, args ...any) String { return core.Format(format, args...) }

// Checksum computes an additive checksum, merging all byte policies.
func Checksum(t String) (Int, error) { return core.Checksum(t) }

// MergePolicies merges two policy sets per §3.4.2.
func MergePolicies(a, b *PolicySet) (*PolicySet, error) { return core.MergePolicies(a, b) }

// NewContext builds a context for a boundary of the given kind.
func NewContext(kind string) *Context { return core.NewContext(kind) }

// NewChannel creates a boundary with an explicit filter chain.
func NewChannel(rt *Runtime, kind string, filters ...Filter) *Channel {
	return core.NewChannel(rt, kind, filters...)
}

// RegisterPolicyClass registers a policy class for persistent
// serialization (§3.4.1). The prototype must be a pointer to a struct.
func RegisterPolicyClass(name string, prototype Policy) {
	core.RegisterPolicyClass(name, prototype)
}

// RegisterFilterClass registers a filter class for persistent filter
// objects stored in file extended attributes (§3.2.3).
func RegisterFilterClass(name string, prototype Filter) {
	core.RegisterFilterClass(name, prototype)
}

// EncodePolicy serializes a policy object (class name + data fields).
func EncodePolicy(p Policy) ([]byte, error) { return core.EncodePolicy(p) }

// DecodePolicy re-instantiates a serialized policy object.
func DecodePolicy(data []byte) (Policy, error) { return core.DecodePolicy(data) }

// EncodeSpans serializes a tracked string's policy annotation.
func EncodeSpans(t String) ([]byte, error) { return core.EncodeSpans(t) }

// DecodeSpans attaches a serialized policy annotation to raw data.
func DecodeSpans(raw string, annotation []byte) (String, error) {
	return core.DecodeSpans(raw, annotation)
}

// IsAssertionError reports whether err is or wraps an *AssertionError.
func IsAssertionError(err error) (*AssertionError, bool) { return core.IsAssertionError(err) }

// Default and utility filter objects.
type (
	// ExportCheckFilter is the default output filter (Figure 3).
	ExportCheckFilter = core.ExportCheckFilter
	// ReadCheckFilter invokes ReadCheck on incoming data's policies.
	ReadCheckFilter = core.ReadCheckFilter
	// TaintReadFilter taints all incoming data with fixed policies.
	TaintReadFilter = core.TaintReadFilter
	// StripPolicyFilter removes matching policies from in-transit data.
	StripPolicyFilter = core.StripPolicyFilter
	// RejectSequenceFilter vetoes forbidden byte sequences (HTTP response
	// splitting defense).
	RejectSequenceFilter = core.RejectSequenceFilter
	// WriteFilterFunc adapts a function to WriteFilter.
	WriteFilterFunc = core.WriteFilterFunc
	// ReadFilterFunc adapts a function to ReadFilter.
	ReadFilterFunc = core.ReadFilterFunc
	// FuncFilterFunc adapts a function to FuncFilter.
	FuncFilterFunc = core.FuncFilterFunc
)
