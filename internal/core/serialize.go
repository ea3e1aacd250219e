package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
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
//
// Decoding fails closed: the stored fields must have exactly the keys
// the class encodes today. An unknown key (a renamed field) or a missing
// one would otherwise decode to a zero field and could silently weaken
// the assertion, so both fail with a *PolicyDecodeError.

type classRegistry struct {
	mu     sync.RWMutex
	byName map[string]regType
	byType map[reflect.Type]regClass
}

// regClass is a class's name and its encoding's `{"class":…,"fields":` prefix.
type regClass struct{ name, prefix string }

// regType is a class's type and the sorted keys of its fields object.
type regType struct {
	t    reflect.Type
	keys []string
}

func newClassRegistry() *classRegistry {
	return &classRegistry{
		byName: make(map[string]regType),
		byType: make(map[reflect.Type]regClass),
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
	// The key set comes from a zero instance's encoding, so a class must
	// not mark fields omitempty.
	var fields map[string]json.RawMessage
	zero, err := json.Marshal(reflect.New(t.Elem()).Interface())
	if err == nil {
		err = json.Unmarshal(zero, &fields)
	}
	if err != nil {
		panic(fmt.Sprintf("resin: register class %q: fields do not encode as a JSON object: %v", name, err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok && old.t != t {
		panic(fmt.Sprintf("resin: class name %q already registered for %v", name, old.t))
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	jname, _ := json.Marshal(name)
	r.byName[name] = regType{t, keys}
	r.byType[t] = regClass{name, `{"class":` + string(jname) + `,"fields":`}
}

func (r *classRegistry) classOf(v any) (regClass, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byType[reflect.TypeOf(v)]
	return c, ok
}

func (r *classRegistry) lookupName(name string) (regType, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rt, ok := r.byName[name]
	return rt, ok
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
func RegisteredPolicyName(p Policy) (string, bool) {
	c, ok := policyClasses.classOf(p)
	return c.name, ok
}

// RegisterFilterClass registers a filter class for persistent filter
// objects (§3.2.3), which are stored in file/directory extended attributes.
func RegisterFilterClass(name string, prototype Filter) {
	filterClasses.register(name, prototype)
}

// RegisteredFilterName returns the class name f was registered under.
func RegisteredFilterName(f Filter) (string, bool) {
	c, ok := filterClasses.classOf(f)
	return c.name, ok
}

// wireObject is the serialized form of a policy or filter object: the
// class name plus the JSON encoding of the object's data fields.
type wireObject struct {
	Class  string          `json:"class"`
	Fields json.RawMessage `json:"fields"`
}

// appendObject appends v's wireObject encoding to dst: json.Marshal has
// compacted and HTML-escaped the fields just as a second pass would.
func appendObject(dst []byte, reg *classRegistry, what string, v any) ([]byte, error) {
	c, ok := reg.classOf(v)
	if !ok {
		return nil, fmt.Errorf("resin: cannot serialize unregistered %s class %T", what, v)
	}
	fields, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("resin: serialize %s %s: %w", what, c.name, err)
	}
	return append(append(append(dst, c.prefix...), fields...), '}'), nil
}

// PolicyDecodeError reports a stored policy or filter object whose
// fields do not have exactly the keys its class encodes, once each:
// Unknown lists the keys the class does not have, Missing the class's
// keys that are absent, and Duplicate the keys given more than once
// (encoding/json would keep the last silently).
type PolicyDecodeError struct {
	Kind                        string // "policy" or "filter"
	Class                       string
	Unknown, Missing, Duplicate []string
}

func (e *PolicyDecodeError) Error() string {
	msg := fmt.Sprintf("resin: decode %s %s: unknown keys %q, missing keys %q", e.Kind, e.Class, e.Unknown, e.Missing)
	if e.Duplicate != nil {
		msg += fmt.Sprintf(", duplicate keys %q", e.Duplicate)
	}
	return msg
}

func decodeObject(reg *classRegistry, what string, data []byte) (any, error) {
	var w wireObject
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("resin: decode %s: %w", what, err)
	}
	rt, ok := reg.lookupName(w.Class)
	if !ok {
		return nil, fmt.Errorf("resin: decode %s: unknown class %q", what, w.Class)
	}
	if err := rt.checkKeys(w.Fields); err != nil {
		if de, ok := err.(*PolicyDecodeError); ok {
			de.Kind, de.Class = what, w.Class
			return nil, de
		}
		return nil, fmt.Errorf("resin: decode %s %s fields: %w", what, w.Class, err)
	}
	v := reflect.New(rt.t.Elem()).Interface()
	if len(w.Fields) > 0 {
		if err := json.Unmarshal(w.Fields, v); err != nil {
			return nil, fmt.Errorf("resin: decode %s %s fields: %w", what, w.Class, err)
		}
	}
	return v, nil
}

// checkKeys scans the top-level keys of fields, a JSON value the outer
// decode has already validated, against the class's keys without
// decoding a value. It returns a *PolicyDecodeError (Kind and Class left
// for the caller) unless every class key appears exactly once and no
// other key appears; absent or null fields have no keys.
func (rt regType) checkKeys(fields []byte) error {
	fields = bytes.TrimSpace(fields)
	if len(fields) > 0 && fields[0] != '{' && string(fields) != "null" {
		return errors.New("fields are not a JSON object")
	}
	seen := make([]bool, len(rt.keys))
	var bad PolicyDecodeError
	for i := 1; len(fields) > 0 && fields[0] == '{'; i++ { // i: past '{' or ','
		q := bytes.IndexByte(fields[i:], '"')
		if q < 0 {
			break // {}
		}
		end := skipString(fields, i+q)
		key := fields[i+q+1 : end]
		if bytes.IndexByte(key, '\\') >= 0 {
			var k string
			if err := json.Unmarshal(fields[i+q:end+1], &k); err != nil {
				return err
			}
			key = []byte(k)
		}
		switch k := slices.Index(rt.keys, string(key)); {
		case k >= 0 && !seen[k]:
			seen[k] = true
		case k >= 0 || slices.Contains(bad.Unknown, string(key)):
			bad.Duplicate = append(bad.Duplicate, string(key))
		default:
			bad.Unknown = append(bad.Unknown, string(key))
		}
		if i = skipValue(fields, end+1); fields[i] == '}' {
			break
		}
	}
	for k, ok := range seen {
		if !ok {
			bad.Missing = append(bad.Missing, rt.keys[k])
		}
	}
	if bad.Unknown == nil && bad.Missing == nil && bad.Duplicate == nil {
		return nil
	}
	slices.Sort(bad.Unknown)
	slices.Sort(bad.Duplicate)
	return &bad
}

// skipString returns the index of the quote that closes the string
// opening at b[i].
func skipString(b []byte, i int) int {
	for i++; b[i] != '"'; i++ {
		if b[i] == '\\' {
			i++
		}
	}
	return i
}

// skipValue returns the index of the ',' or '}' that ends the object
// member whose ':' or value is at b[i].
func skipValue(b []byte, i int) int {
	for depth := 0; ; i++ {
		switch b[i] {
		case '"':
			i = skipString(b, i)
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			depth--
		case ',':
			if depth == 0 {
				return i
			}
		}
	}
}

// EncodePolicy serializes a policy object as {"class": ..., "fields": ...}.
func EncodePolicy(p Policy) ([]byte, error) { return appendObject(nil, policyClasses, "policy", p) }

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
func EncodeFilter(f Filter) ([]byte, error) { return appendObject(nil, filterClasses, "filter", f) }

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
// for an untainted string. It is AppendSpans into a fresh buffer.
func EncodeSpans(t String) ([]byte, error) {
	if !t.IsTainted() {
		return nil, nil
	}
	return AppendSpans(make([]byte, 0, 128), t)
}

// AppendSpans appends the policy annotation of t to dst (nothing for an
// untainted string) and returns the extended buffer. Policies that are
// not registered for serialization are skipped with an error so that
// confidentiality policies are never silently dropped. The bytes are
// json.Marshal of the []wireSpan (spans and their sets are never empty),
// appended here.
func AppendSpans(dst []byte, t String) ([]byte, error) {
	if !t.IsTainted() {
		return dst, nil
	}
	if lineageOn() {
		lineageRecordSpans(t, "serialize", "core.encode")
	}
	buf := append(dst, '[')
	for i, sp := range t.spans {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(append(buf, `{"start":`...), int64(sp.start), 10)
		buf = strconv.AppendInt(append(buf, `,"end":`...), int64(sp.end), 10)
		buf = append(buf, `,"policies":[`...)
		for j, p := range sp.ps.policies {
			if j > 0 {
				buf = append(buf, ',')
			}
			var err error
			if buf, err = appendObject(buf, policyClasses, "policy", p); err != nil {
				return nil, err
			}
		}
		buf = append(buf, "]}"...)
	}
	return append(buf, ']'), nil
}

// annotationStrings holds one string per distinct encoded annotation for
// every SQL cell, version and replica to share; over 64 KiB, none.
var annotationStrings = NewCache[string, string](maxInternedSets, 16<<20, 64<<10)

// AnnotationString returns an annotation's canonical string; a hit
// copies nothing.
func AnnotationString[A string | []byte](ann A) string {
	if s, ok := lookup(annotationStrings, ann); ok {
		return s
	}
	s := string(ann)
	return annotationStrings.Add(s, s, len(s))
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
