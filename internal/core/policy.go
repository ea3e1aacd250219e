// Package core implements the RESIN data-flow assertion runtime: policy
// objects, character-level data tracking, and filter objects at data-flow
// boundaries (Yip et al., SOSP 2009).
//
// Programmers annotate sensitive data with policy objects (Policy). The
// runtime propagates those policies as the data is copied, concatenated,
// sliced and reassembled (String, Int). When data crosses a data-flow
// boundary (Channel), filter objects (WriteFilter, ReadFilter, FuncFilter)
// run; the default filter invokes each policy's ExportCheck, which vetoes
// the flow by returning an error — the Go analogue of the paper's thrown
// exception.
package core

import (
	"fmt"
	"reflect"
)

// Policy is a policy object (§3.3 of the paper). A policy object is
// attached to data and travels with it; filter objects consult it when the
// data crosses a data-flow boundary.
//
// Policy objects should be pointers to structs so that identity is
// well-defined and so that the serialization machinery (RegisterPolicyClass)
// can round-trip their exported fields.
type Policy interface {
	// ExportCheck checks whether the data-flow assertion allows exporting
	// the tagged data through the boundary described by ctx. A non-nil
	// error vetoes the flow; the runtime wraps it in *AssertionError and
	// aborts the write.
	ExportCheck(ctx *Context) error
}

// Merger is an optional extension of Policy for custom merge semantics
// (§3.4.2). When two data elements with policies are merged by an operation
// that cannot preserve character-level tracking (integer addition,
// checksums, hashing), the runtime calls Merge on each policy of each
// operand, passing the entire policy set of the other operand. Merge
// returns the set of policies (typically zero or one) that should apply to
// the merged result, or an error if the merge must be refused outright.
//
// A policy that does not implement Merger gets the default union strategy:
// it propagates itself onto the result.
type Merger interface {
	Policy
	Merge(other *PolicySet) ([]Policy, error)
}

// ReadChecker is an optional extension of Policy consulted by input-side
// default filters. It is the mirror image of ExportCheck for data entering
// the runtime — for example, the interpreter's code-import channel asks
// each policy whether the data may be used as code.
type ReadChecker interface {
	Policy
	ReadCheck(ctx *Context) error
}

// samePolicy reports whether two policy objects are the same object:
// equal by == — identity for pointer policies, value equality for
// comparable value policies. Uncomparable value policies are never the
// same object. Interface == compares dynamic types first and panics only
// on two values of one uncomparable type, so a's type decides.
func samePolicy(a, b Policy) bool {
	if a == nil {
		return b == nil
	}
	return reflect.TypeOf(a).Comparable() && a == b
}

// PolicyName returns a human-readable name for a policy object: its
// registered class name if it has one, otherwise its Go type name.
func PolicyName(p Policy) string {
	if p == nil {
		return "<nil>"
	}
	if name, ok := RegisteredPolicyName(p); ok {
		return name
	}
	t := reflect.TypeOf(p)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// AssertionError is returned (wrapped) when a data-flow assertion fails: a
// policy's ExportCheck, ReadCheck or Merge vetoed a flow. It is the Go
// analogue of the exception thrown by export_check in the paper.
type AssertionError struct {
	// Policy is the policy object that vetoed the flow.
	Policy Policy
	// Context describes the boundary at which the flow was vetoed; nil for
	// merge failures, which happen inside the runtime rather than at a
	// boundary.
	Context *Context
	// Op names the runtime operation that detected the violation
	// ("export_check", "read_check", "merge").
	Op string
	// Err is the error returned by the policy.
	Err error
}

func (e *AssertionError) Error() string {
	where := "internal"
	if e.Context != nil {
		where = e.Context.Type()
	}
	by := "filter object"
	if e.Policy != nil {
		by = "policy " + PolicyName(e.Policy)
	}
	return fmt.Sprintf("resin: data flow assertion failed: %s vetoed %s at %s boundary: %v",
		by, e.Op, where, e.Err)
}

func (e *AssertionError) Unwrap() error { return e.Err }

// IsAssertionError reports whether err is or wraps an *AssertionError, and
// returns it if so.
func IsAssertionError(err error) (*AssertionError, bool) {
	for err != nil {
		if ae, ok := err.(*AssertionError); ok {
			return ae, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		err = u.Unwrap()
	}
	return nil, false
}
