package core

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements the string operation suite with character-level
// policy propagation (§3.4). In the paper these are the PHP virtual machine
// opcode handlers (assignment, concatenation) and the C library functions
// (substr, printf, ...) that were modified to propagate policies; here they
// are methods and functions over String.

// Concat concatenates any number of tracked strings; each input's spans are
// shifted into place, so "foo"+p1 . "bar"+p2 yields spans [0:3 p1][3:6 p2].
func Concat(parts ...String) String {
	switch len(parts) {
	case 0:
		return String{}
	case 1:
		return parts[0]
	}
	nbytes, nspans := 0, 0
	for _, p := range parts {
		nbytes += len(p.s)
		nspans += len(p.spans)
	}
	lin := lineageOn()
	var b Builder
	b.Grow(nbytes, nspans)
	for _, p := range parts {
		if lin && len(p.spans) > 0 {
			lineageRecordSpans(p, "concat", "core.concat")
		}
		b.appendQuiet(p)
	}
	return b.String()
}

// Slice returns the substring [i, j) with the policies of exactly those
// bytes: taking the first three bytes of "foobar" back out recovers "foo"
// carrying only p1. Indices are clipped to the string bounds. The whole
// range is the receiver itself, and the clipped spans of a canonical
// list are canonical already.
func (t String) Slice(i, j int) String {
	if i < 0 {
		i = 0
	}
	if j > len(t.s) {
		j = len(t.s)
	}
	if i >= j {
		return String{}
	}
	if i == 0 && j == len(t.s) {
		return t
	}
	var spans []span
	for _, sp := range t.spans {
		s, e := sp.start, sp.end
		if e <= i || s >= j {
			continue
		}
		if s < i {
			s = i
		}
		if e > j {
			e = j
		}
		spans = append(spans, span{s - i, e - i, sp.ps})
	}
	return String{s: t.s[i:j], spans: spans}
}

// ByteAt returns the byte at index i together with its policy set.
func (t String) ByteAt(i int) (byte, *PolicySet) {
	return t.s[i], t.PoliciesAt(i)
}

// Repeat returns the string repeated n times, each copy keeping its spans.
func (t String) Repeat(n int) String {
	if n <= 0 {
		return String{}
	}
	parts := make([]String, n)
	for i := range parts {
		parts[i] = t
	}
	return Concat(parts...)
}

// Index returns the byte offset of the first occurrence of sub, or -1.
func (t String) Index(sub string) int { return strings.Index(t.s, sub) }

// Contains reports whether sub occurs in the string.
func (t String) Contains(sub string) bool { return strings.Contains(t.s, sub) }

// HasPrefix reports whether the string begins with prefix.
func (t String) HasPrefix(prefix string) bool { return strings.HasPrefix(t.s, prefix) }

// HasSuffix reports whether the string ends with suffix.
func (t String) HasSuffix(suffix string) bool { return strings.HasSuffix(t.s, suffix) }

// EqualsRaw reports whether the raw text equals s (policies ignored;
// comparisons are control flow, which RESIN deliberately does not track).
func (t String) EqualsRaw(s string) bool { return t.s == s }

// Split splits around every instance of sep, propagating each fragment's
// policies. sep must be non-empty.
func (t String) Split(sep string) []String {
	if sep == "" {
		out := make([]String, 0, len(t.s))
		for i := range t.s {
			out = append(out, t.Slice(i, i+1))
		}
		return out
	}
	var out []String
	start := 0
	for {
		i := strings.Index(t.s[start:], sep)
		if i < 0 {
			out = append(out, t.Slice(start, len(t.s)))
			return out
		}
		out = append(out, t.Slice(start, start+i))
		start += i + len(sep)
	}
}

// SplitN is like Split but returns at most n fragments; the last fragment
// holds the unsplit remainder. n <= 0 behaves like Split.
func (t String) SplitN(sep string, n int) []String {
	if n <= 0 || sep == "" {
		return t.Split(sep)
	}
	var out []String
	start := 0
	for len(out) < n-1 {
		i := strings.Index(t.s[start:], sep)
		if i < 0 {
			break
		}
		out = append(out, t.Slice(start, start+i))
		start += i + len(sep)
	}
	out = append(out, t.Slice(start, len(t.s)))
	return out
}

// Fields splits the string around runs of ASCII whitespace, propagating
// each field's policies.
func (t String) Fields() []String {
	var out []String
	i := 0
	for i < len(t.s) {
		for i < len(t.s) && isSpace(t.s[i]) {
			i++
		}
		j := i
		for j < len(t.s) && !isSpace(t.s[j]) {
			j++
		}
		if j > i {
			out = append(out, t.Slice(i, j))
		}
		i = j
	}
	return out
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// Join concatenates elems, inserting sep between each pair; all policies
// propagate by position.
func Join(elems []String, sep String) String {
	var b Builder
	for i, e := range elems {
		if i > 0 {
			b.Append(sep)
		}
		b.Append(e)
	}
	return b.String()
}

// TrimSpace returns the string with leading and trailing ASCII whitespace
// removed, keeping the surviving bytes' policies.
func (t String) TrimSpace() String {
	i, j := 0, len(t.s)
	for i < j && isSpace(t.s[i]) {
		i++
	}
	for j > i && isSpace(t.s[j-1]) {
		j--
	}
	return t.Slice(i, j)
}

// TrimPrefix returns the string without the given leading prefix.
func (t String) TrimPrefix(prefix string) String {
	if strings.HasPrefix(t.s, prefix) {
		return t.Slice(len(prefix), len(t.s))
	}
	return t
}

// TrimSuffix returns the string without the given trailing suffix.
func (t String) TrimSuffix(suffix string) String {
	if strings.HasSuffix(t.s, suffix) {
		return t.Slice(0, len(t.s)-len(suffix))
	}
	return t
}

// Replace returns a copy with the first n non-overlapping instances of old
// replaced by new (all if n < 0). Bytes copied from the receiver keep
// their policies; every inserted copy of new keeps new's policies. old
// must be non-empty.
func (t String) Replace(old string, new String, n int) String {
	if old == "" || n == 0 {
		return t
	}
	if lineageOn() {
		if len(t.spans) > 0 {
			lineageRecordSpans(t, "replace", "core.replace")
		}
		if len(new.spans) > 0 {
			lineageRecordSpans(new, "replace", "core.replace")
		}
	}
	var b Builder
	start := 0
	for n != 0 {
		i := strings.Index(t.s[start:], old)
		if i < 0 {
			break
		}
		b.appendQuiet(t.Slice(start, start+i))
		b.appendQuiet(new)
		start += i + len(old)
		if n > 0 {
			n--
		}
	}
	b.appendQuiet(t.Slice(start, len(t.s)))
	return b.String()
}

// ReplaceAll replaces every non-overlapping instance of old with new.
func (t String) ReplaceAll(old string, new String) String { return t.Replace(old, new, -1) }

// MapBytes returns a copy with each byte replaced by fn(byte); the length
// is unchanged so every byte keeps its policy set. Used for case mapping
// and in-place escapes that preserve length.
func (t String) MapBytes(fn func(byte) byte) String {
	if len(t.s) == 0 {
		return t
	}
	buf := make([]byte, len(t.s))
	for i := 0; i < len(t.s); i++ {
		buf[i] = fn(t.s[i])
	}
	return String{s: string(buf), spans: t.spans}
}

// ToUpper returns the string with ASCII letters upper-cased; spans are
// unchanged because the mapping is length-preserving.
func (t String) ToUpper() String {
	return t.MapBytes(func(c byte) byte {
		if 'a' <= c && c <= 'z' {
			return c - 'a' + 'A'
		}
		return c
	})
}

// ToLower returns the string with ASCII letters lower-cased.
func (t String) ToLower() String {
	return t.MapBytes(func(c byte) byte {
		if 'A' <= c && c <= 'Z' {
			return c - 'A' + 'a'
		}
		return c
	})
}

// ToInt parses the string as a base-10 integer. Converting characters to a
// number is a merging operation (§3.4.2): the result is a single datum, so
// the policies of every byte are merged into the Int's policy set.
func (t String) ToInt() (Int, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(t.s), 10, 64)
	if err != nil {
		return Int{}, err
	}
	ps := EmptySet
	for _, sp := range t.spans {
		merged, merr := MergePolicies(ps, sp.ps)
		if merr != nil {
			return Int{}, merr
		}
		ps = merged
	}
	return Int{v: v, ps: ps}, nil
}

// Builder incrementally assembles a tracked string, the analogue of
// strings.Builder. The zero value is ready to use.
//
// The span list is an arena the builder appends into, kept canonical as
// it goes (coalescing adjacent same-policy spans with a pointer-fast
// Equal). String() hands the arena to the produced String without
// copying; the builder then goes copy-on-write, cloning the arena only
// if it is mutated again afterwards. The common build-once pattern
// (Concat, Format, query rewriting) therefore allocates no span copy at
// all, and Reset lets a long-lived builder reuse the arena across
// renders.
type Builder struct {
	buf   strings.Builder
	spans []span
	// shared marks the spans arena as referenced by a String produced
	// by a previous String() call; any further mutation must clone it
	// first (copy-on-write).
	shared bool
}

// own ensures the spans arena is exclusively the builder's, cloning it
// if a produced String still references it.
func (b *Builder) own() {
	if b.shared {
		b.spans = append([]span(nil), b.spans...)
		b.shared = false
	}
}

// Grow pre-allocates capacity for at least nbytes more bytes and nspans
// more policy spans, the way strings.Builder.Grow does for text.
func (b *Builder) Grow(nbytes, nspans int) {
	if nbytes > 0 {
		b.buf.Grow(nbytes)
	}
	// A shared arena must be replaced even when it has spare capacity:
	// the next mutation would otherwise clone it to an exact-length
	// slice and discard this reservation.
	if nspans > 0 && (b.shared || cap(b.spans)-len(b.spans) < nspans) {
		grown := make([]span, len(b.spans), len(b.spans)+nspans)
		copy(grown, b.spans)
		b.spans = grown
		b.shared = false
	}
}

// Reset empties the builder for reuse, keeping the spans arena when no
// produced String references it.
func (b *Builder) Reset() {
	b.buf.Reset()
	if b.shared {
		b.spans = nil
		b.shared = false
	} else {
		b.spans = b.spans[:0]
	}
}

// Append adds a tracked string to the builder.
func (b *Builder) Append(t String) {
	if len(t.spans) > 0 && lineageOn() {
		lineageRecordSpans(t, "append", "core.append")
	}
	b.appendQuiet(t)
}

// appendQuiet is Append without the lineage report; compound ops
// (Concat, Replace) record one edge at their own level instead of one
// per internal append.
func (b *Builder) appendQuiet(t String) {
	off := b.buf.Len()
	b.buf.WriteString(t.s)
	if len(t.spans) == 0 {
		return
	}
	b.own()
	for _, sp := range t.spans {
		// Coalesce with the previous span when possible to keep the span
		// list canonical as we go.
		if n := len(b.spans); n > 0 && b.spans[n-1].end == sp.start+off && b.spans[n-1].ps.Equal(sp.ps) {
			b.spans[n-1].end = sp.end + off
			continue
		}
		b.spans = append(b.spans, span{sp.start + off, sp.end + off, sp.ps})
	}
}

// AppendRaw adds an untracked raw string to the builder.
func (b *Builder) AppendRaw(s string) { b.buf.WriteString(s) }

// AppendByte adds one untracked byte.
func (b *Builder) AppendByte(c byte) { b.buf.WriteByte(c) }

// AppendBytePolicies adds one byte carrying the given policy set.
func (b *Builder) AppendBytePolicies(c byte, ps *PolicySet) {
	off := b.buf.Len()
	b.buf.WriteByte(c)
	if ps.IsEmpty() {
		return
	}
	b.own()
	if n := len(b.spans); n > 0 && b.spans[n-1].end == off && b.spans[n-1].ps.Equal(ps) {
		b.spans[n-1].end = off + 1
		return
	}
	b.spans = append(b.spans, span{off, off + 1, ps})
}

// Len returns the number of bytes accumulated so far.
func (b *Builder) Len() int { return b.buf.Len() }

// String returns the accumulated tracked string without copying the
// span arena; the builder clones it lazily if mutated again.
func (b *Builder) String() String {
	if len(b.spans) == 0 {
		return String{s: b.buf.String()}
	}
	b.shared = true
	return String{s: b.buf.String(), spans: b.spans}
}

// Format is the tracked analogue of fmt.Sprintf for the verbs the
// applications need: %s and %v accept String (propagating policies), Int
// (propagating its set across the rendered digits), or any plain Go value;
// %d accepts Int or plain integers; %q quotes like fmt; %% is a literal
// percent. Unknown verbs fall back to fmt.Sprintf on the raw value.
func Format(format string, args ...any) String {
	// Size the text and the span arena from the tracked arguments, so a
	// format over them grows neither.
	nbytes, nspans := len(format), 0
	for _, a := range args {
		if s, ok := a.(String); ok {
			nbytes += len(s.s)
			nspans += len(s.spans)
		}
	}
	var b Builder
	b.Grow(nbytes, nspans)
	ai := 0
	next := func() any {
		if ai < len(args) {
			a := args[ai]
			ai++
			return a
		}
		return "%!(MISSING)"
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			b.AppendByte(c)
			continue
		}
		if i+1 >= len(format) {
			b.AppendByte('%')
			break
		}
		i++
		verb := format[i]
		switch verb {
		case '%':
			b.AppendByte('%')
		case 's', 'v', 'd', 'q':
			appendArg(&b, verb, next())
		default:
			b.AppendRaw(fmt.Sprintf("%"+string(verb), next()))
		}
	}
	return b.String()
}

func appendArg(b *Builder, verb byte, a any) {
	switch v := a.(type) {
	case String:
		if verb == 'q' {
			// Quoting reshapes the bytes; attach the union of the input's
			// policies to the whole quoted form (a merge, conservatively
			// via union since quoting is structure-preserving enough).
			b.Append(NewString(strconv.Quote(v.Raw())).withSet(v.Policies()))
			return
		}
		b.Append(v)
	case Int:
		b.Append(v.ToString())
	default:
		b.AppendRaw(fmt.Sprintf("%"+string(verb), a))
	}
}

// withSet attaches ps to every byte (internal helper; keeps WithPolicy's
// variadic signature clean for the public path).
func (t String) withSet(ps *PolicySet) String {
	return t.withSetRange(0, len(t.s), ps)
}
