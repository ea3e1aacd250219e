package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
)

// Persistent policies (§3.4.1): RESIN serializes policy objects when data
// leaves the runtime for files or database cells, and re-instantiates them
// when the data is read back, so assertions survive across program
// executions and can even be checked by other RESIN-aware programs (the
// web server's static file path).
//
// "RESIN only serializes the class name and data fields of a policy
// object" — so a policy class must be registered under a stable name, and
// its data fields round-trip through encoding/json. Deserialized policies
// are instantiated from the stored bytes, so their class code is whatever
// the current program defines, which is what lets programmers evolve
// export_check behaviour without migrating stored policies. Instantiation
// is per distinct encoded policy, not per read: every decode of the same
// bytes returns one canonical instance (see DecodePolicy), so decoded
// policies are shared plain data and must not be mutated.

type classRegistry struct {
	mu     sync.RWMutex
	byName map[string]reflect.Type
	byType map[reflect.Type]string
}

func newClassRegistry() *classRegistry {
	return &classRegistry{
		byName: make(map[string]reflect.Type),
		byType: make(map[reflect.Type]string),
	}
}

func (r *classRegistry) register(name string, prototype any) {
	t := reflect.TypeOf(prototype)
	if t == nil {
		panic("resin: register class: nil prototype")
	}
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("resin: register class %q: prototype must be a pointer to struct, got %T", name, prototype))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok && old != t {
		panic(fmt.Sprintf("resin: class name %q already registered for %v", name, old))
	}
	r.byName[name] = t
	r.byType[t] = name
}

func (r *classRegistry) nameOf(v any) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	name, ok := r.byType[reflect.TypeOf(v)]
	return name, ok
}

func (r *classRegistry) instantiate(name string) (any, bool) {
	r.mu.RLock()
	t, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return reflect.New(t.Elem()).Interface(), true
}

var (
	policyClasses = newClassRegistry()
	filterClasses = newClassRegistry()
)

// RegisterPolicyClass registers a policy class for persistent
// serialization under a stable name. The prototype must be a pointer to a
// struct; its exported fields are the serialized "data fields".
// Registration typically happens in an init function of the package
// defining the policy.
func RegisterPolicyClass(name string, prototype Policy) {
	policyClasses.register(name, prototype)
}

// RegisteredPolicyName returns the class name p was registered under.
func RegisteredPolicyName(p Policy) (string, bool) { return policyClasses.nameOf(p) }

// RegisterFilterClass registers a filter class for persistent filter
// objects (§3.2.3), which are stored in file/directory extended attributes.
func RegisterFilterClass(name string, prototype Filter) {
	filterClasses.register(name, prototype)
}

// RegisteredFilterName returns the class name f was registered under.
func RegisteredFilterName(f Filter) (string, bool) { return filterClasses.nameOf(f) }

// wireObject is the serialized form of a policy or filter object: the
// class name plus the JSON encoding of the object's data fields.
type wireObject struct {
	Class  string          `json:"class"`
	Fields json.RawMessage `json:"fields"`
}

func encodeObject(reg *classRegistry, what string, v any) ([]byte, error) {
	name, ok := reg.nameOf(v)
	if !ok {
		return nil, fmt.Errorf("resin: cannot serialize unregistered %s class %T", what, v)
	}
	fields, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("resin: serialize %s %s: %w", what, name, err)
	}
	return json.Marshal(wireObject{Class: name, Fields: fields})
}

func decodeObject(reg *classRegistry, what string, data []byte) (any, error) {
	var w wireObject
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("resin: decode %s: %w", what, err)
	}
	v, ok := reg.instantiate(w.Class)
	if !ok {
		return nil, fmt.Errorf("resin: decode %s: unknown class %q", what, w.Class)
	}
	if len(w.Fields) > 0 {
		if err := json.Unmarshal(w.Fields, v); err != nil {
			return nil, fmt.Errorf("resin: decode %s %s fields: %w", what, w.Class, err)
		}
	}
	return v, nil
}

// EncodePolicy serializes a policy object as {"class": ..., "fields": ...}.
func EncodePolicy(p Policy) ([]byte, error) { return encodeObject(policyClasses, "policy", p) }

// policyInstances maps an encoded policy to its canonical decoded
// instance, so for decoded policies pointer identity is content identity
// and everything keyed on identity — samePolicy, Union, Intern, the union
// cache — works across serialization boundaries. The key is the bytes as
// received: EncodePolicy is deterministic, and a foreign encoder's
// variant spelling merely gets its own instance. Evicting is safe: an
// evicted policy is merely a distinct-but-equal object again.
var policyInstances = NewCache[string, Policy](maxInternedSets, 0, maxPolicyInstanceBytes)

// maxPolicyInstanceBytes bounds one canonicalized encoding; a larger
// policy is instantiated per decode rather than pinned.
const maxPolicyInstanceBytes = 4 << 10

// DecodePolicy returns the policy object serialized by EncodePolicy. For
// a registered class it is the canonical instance of those bytes: two
// decodes of one encoding yield the same pointer for as long as the
// instance table remembers it. Merger classes are instantiated per
// decode — two equal-content operands must still reach Merge (§3.4.2) —
// and so are encodings over maxPolicyInstanceBytes.
func DecodePolicy(data []byte) (Policy, error) {
	if p, ok := lookup(policyInstances, data); ok {
		return p, nil
	}
	v, err := decodeObject(policyClasses, "policy", data)
	if err != nil {
		return nil, err
	}
	p, ok := v.(Policy)
	if !ok {
		return nil, fmt.Errorf("resin: decoded class %T is not a Policy", v)
	}
	if _, merger := p.(Merger); merger {
		return p, nil
	}
	return policyInstances.Add(string(data), p, len(data)), nil
}

// EncodeFilter serializes a persistent filter object (§3.2.3).
func EncodeFilter(f Filter) ([]byte, error) { return encodeObject(filterClasses, "filter", f) }

// DecodeFilter re-instantiates a persistent filter object.
func DecodeFilter(data []byte) (Filter, error) {
	return decodeObject(filterClasses, "filter", data)
}

// wireSpan is the serialized form of one policy span of a tracked string.
type wireSpan struct {
	Start    int               `json:"start"`
	End      int               `json:"end"`
	Policies []json.RawMessage `json:"policies"`
}

// EncodeSpans serializes the policy annotation of a tracked string — the
// metadata the default file filter writes into a file's extended
// attributes and the SQL filter writes into policy columns. Returns nil
// for an untainted string. Policies that are not registered for
// serialization are skipped with an error so that confidentiality
// policies are never silently dropped.
func EncodeSpans(t String) ([]byte, error) {
	if !t.IsTainted() {
		return nil, nil
	}
	if lineageOn() {
		lineageRecordSpans(t, "serialize", "core.encode")
	}
	var ws []wireSpan
	err := t.EachTaintedSpan(func(start, end int, ps *PolicySet) error {
		w := wireSpan{Start: start, End: end}
		if err := ps.Each(func(p Policy) error {
			enc, err := EncodePolicy(p)
			if err != nil {
				return err
			}
			w.Policies = append(w.Policies, enc)
			return nil
		}); err != nil {
			return err
		}
		ws = append(ws, w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(ws)
}

// CompiledAnnotation is a policy annotation parsed, instantiated, and
// interned once, applicable to any number of raw values. The SQL
// filter's batched decode path compiles each distinct annotation of a
// result set once and applies it per cell, so a SELECT returning N rows
// pays JSON parsing and policy instantiation per distinct annotation,
// not per cell. Compiled annotations are immutable.
type CompiledAnnotation struct {
	// spans is the canonical span list the annotation's spans attach
	// (the String invariants, with no string bound), which Apply hands
	// out shared: Strings are immutable and Builders copy on write.
	spans []span
}

// Apply attaches the compiled spans to raw, clipped to its bounds. A
// value that covers the annotation's extent — every SQL cell, whose
// annotation was written against the exact cell string — shares the
// compiled span list and allocates nothing.
func (c *CompiledAnnotation) Apply(raw string) String {
	if c == nil || len(c.spans) == 0 {
		return NewString(raw)
	}
	if c.spans[len(c.spans)-1].end <= len(raw) {
		return String{s: raw, spans: c.spans}
	}
	return makeString(raw, c.spans)
}

// PolicySet returns the interned union of every span's policy set —
// the whole-value policy content of the annotation, independent of
// which byte ranges carry it. The SQL filter uses this to attach
// aggregate outputs (where span positions are meaningless) with the
// union of their inputs' policies. A nil or empty annotation yields
// nil, which callers treat as untainted.
func (c *CompiledAnnotation) PolicySet() *PolicySet {
	if c == nil {
		return nil
	}
	var set *PolicySet
	for _, s := range c.spans {
		set = set.Union(s.ps)
	}
	return set
}

// annCompileMemo caches compiled annotations per annotation bytes — the
// one byte-keyed memo in front of JSON parsing. A working set of up to
// 4096 annotations and 8 MiB (one generation) never misses; an
// annotation over 64 KiB compiles per call rather than pin the memo.
var annCompileMemo = NewCache[string, *CompiledAnnotation](8192, 16<<20, 64<<10)

// CompileAnnotation parses a policy annotation (the EncodeSpans wire
// form) into a reusable CompiledAnnotation: each policy resolved to its
// canonical instance (DecodePolicy) and each span's policy set interned.
// Results are memoized per annotation bytes, so re-reading a stored cell
// or file costs a map lookup; a miss after an eviction parses the JSON
// again but yields the same policy objects and interned sets as before. A
// nil/empty annotation yields nil, which Apply treats as untainted.
func CompileAnnotation(ann []byte) (*CompiledAnnotation, error) { return compileAnnotation(ann) }

// CompileAnnotationString is CompileAnnotation for a caller that holds
// the annotation as a string (a SQL policy-column cell): a memo hit
// copies nothing.
func CompileAnnotationString(ann string) (*CompiledAnnotation, error) { return compileAnnotation(ann) }

func compileAnnotation[A string | []byte](annotation A) (*CompiledAnnotation, error) {
	if c, ok := lookup(annCompileMemo, annotation); ok || len(annotation) == 0 {
		return c, nil
	}
	var ws []wireSpan
	if err := json.Unmarshal([]byte(annotation), &ws); err != nil {
		return nil, fmt.Errorf("resin: decode spans: %w", err)
	}
	c := &CompiledAnnotation{}
	for _, w := range ws {
		ps := make([]Policy, 0, len(w.Policies))
		for _, enc := range w.Policies {
			p, err := DecodePolicy(enc)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		// Canonical policies make Intern a hit whenever the set was seen
		// before. A canonical set listing the members in another order is
		// passed over: re-encoding must reproduce the annotation bytes.
		set := NewPolicySet(ps...)
		if canon := set.Intern(); slices.EqualFunc(canon.policies, set.policies, samePolicy) {
			set = canon
		}
		// Fold the span in exactly as attaching it to a long enough
		// string would; an encoder's own output passes through as is.
		if start := max(w.Start, 0); start < w.End && !set.IsEmpty() {
			c.spans = unionRange(c.spans, start, w.End, set)
		}
	}
	c.spans = slices.Clone(c.spans) // exact size: the memo holds thousands
	return annCompileMemo.Add(string(annotation), c, len(annotation)), nil
}

// DecodeSpans attaches the policy annotation serialized by EncodeSpans to
// the raw string data: CompileAnnotation, Apply, and the lineage record
// of the boundary crossing. A nil/empty annotation yields an untainted
// string. The policy objects are the canonical instances of their
// encodings and the sets are interned, so the pointer-identity fast
// paths apply to deserialized data; they are shared plain data (§3.4.1:
// the class name and data fields) and must not be mutated after decode.
func DecodeSpans(raw string, annotation []byte) (String, error) {
	comp, err := CompileAnnotation(annotation)
	if err != nil {
		return String{}, err
	}
	t := comp.Apply(raw)
	if lineageOn() && len(t.spans) > 0 {
		lineageRecordSpans(t, "deserialize", "core.decode")
	}
	return t, nil
}
