package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// fuzzSpanPolicy is a registered policy class for the annotation
// round-trip fuzz; its one data field makes field serialization part of
// what the fuzz exercises.
type fuzzSpanPolicy struct {
	Tag string `json:"tag"`
}

func (p *fuzzSpanPolicy) ExportCheck(ctx *Context) error { return nil }

func init() {
	RegisterPolicyClass("test.FuzzSpanPolicy", &fuzzSpanPolicy{})
}

// FuzzCompileAnnotation fuzzes the two halves of the stored-annotation
// contract the SQL filter and the WAL both lean on:
//
//  1. decoding arbitrary annotation bytes (CompileAnnotation and its
//     Apply) never panics — it either yields a compiled annotation or an
//     error;
//  2. a real annotation round-trips: EncodeSpans of a tainted string,
//     decoded and re-applied to the same raw bytes, re-encodes to the
//     identical annotation;
//  3. EncodeSpans writes exactly the bytes of its three-Marshal
//     reference, for fuzzed field bytes over fuzzed span layouts;
//  4. decode is strict: every policy of an annotation that compiles
//     re-encodes with exactly the keys it was given, each once.
func FuzzCompileAnnotation(f *testing.F) {
	f.Add([]byte(`not json`), "raw data", uint8(0), uint8(4))
	f.Add([]byte(`[]`), "", uint8(0), uint8(0))
	f.Add([]byte(`[{"start":0,"end":8,"policies":[{"class":"test.FuzzSpanPolicy","fields":{"tag":"x"}}]}]`),
		"s3cretpw", uint8(2), uint8(6))
	f.Add([]byte(`[{"start":-5,"end":999999,"policies":[{"class":"nope","fields":{}}]}]`), "abc", uint8(1), uint8(2))
	f.Add([]byte(`[{"start":3,"end":1,"policies":null}]`), "xyzw", uint8(3), uint8(3))
	f.Add([]byte(`[{"start":0,"end":2,"policies":[{"class":"test.FuzzSpanPolicy","fields":{"tag":"a","t\u0061g":"b"}}]}]`), "ab", uint8(0), uint8(2))
	f.Add([]byte(`[{"start":0,"end":2,"policies":[{"class":"test.FuzzSpanPolicy","fields":{"Tag":"a"}}]}]`), "ab", uint8(0), uint8(2))
	f.Add([]byte(`[{"start":0,"end":2,"policies":[{"class":"test.FuzzSpanPolicy","fields":{ "tag" : "a\"},{\"" , "x":{"tag":[1,{"}":"]"}]}}}]}]`), "ab", uint8(0), uint8(2))

	f.Fuzz(func(t *testing.T, ann []byte, raw string, a, b uint8) {
		// 1. Arbitrary bytes: decode must not panic; a successful compile
		// must apply cleanly to any raw value.
		if c, err := CompileAnnotation(ann); err == nil {
			_ = c.Apply(raw)
			_ = c.Apply("")
			// 4. What compiled was strict: each policy's given keys are
			// its re-encoding's keys. An empty annotation is no spans.
			var ws []wireSpan
			if err := json.Unmarshal(ann, &ws); err != nil && len(ann) > 0 {
				t.Fatalf("compiled annotation %q is not a span list: %v", ann, err)
			}
			for _, w := range ws {
				for _, given := range w.Policies {
					p, err := DecodePolicy(given)
					if err != nil {
						t.Fatalf("policy %s of a compiled annotation: %v", given, err)
					}
					enc, err := EncodePolicy(p)
					if err != nil {
						t.Fatalf("re-encode %s: %v", given, err)
					}
					if a, b := fieldKeys(t, given), fieldKeys(t, enc); !slices.Equal(a, b) {
						t.Fatalf("policy %s decoded and re-encoded as %s: keys %q, given %q", given, enc, b, a)
					}
				}
			}
		}

		// 3. Direct encoding = reference encoding: two spans, the second
		// with two members, fields carrying the fuzzed bytes.
		multi := NewString(raw).WithPolicyRange(0, int(a), &fuzzSpanPolicy{Tag: string(ann)}).
			WithPolicyRange(int(b), len(raw), &fuzzSpanPolicy{Tag: raw}, &fuzzSpanPolicy{Tag: "<&>\u2028"})
		if err := encodeMatchesReference(multi); err != nil {
			t.Fatal(err)
		}

		// 2. Round-trip: taint raw over a clipped [start, end) range,
		// encode, decode, re-apply, re-encode — byte-identical.
		start, end := int(a), int(b)
		if start > len(raw) {
			start = len(raw)
		}
		if end > len(raw) {
			end = len(raw)
		}
		if end <= start {
			return
		}
		tainted := NewString(raw).WithPolicyRange(start, end, &fuzzSpanPolicy{Tag: "rt"})
		enc, err := EncodeSpans(tainted)
		if err != nil {
			t.Fatalf("EncodeSpans of a registered policy: %v", err)
		}
		comp, err := CompileAnnotation(enc)
		if err != nil {
			t.Fatalf("decode of own encoding %s: %v", enc, err)
		}
		enc2, err := EncodeSpans(comp.Apply(raw))
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("annotation round-trip diverged:\n first: %s\nsecond: %s", enc, enc2)
		}
	})
}

// fieldKeys lists the top-level keys of obj's fields object in sorted
// order, a repeated key as often as it is given, through encoding/json's
// token reader — a reader independent of decodeObject's key scan.
func fieldKeys(t *testing.T, obj []byte) []string {
	var w wireObject
	if err := json.Unmarshal(obj, &w); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(w.Fields))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil // absent or null fields
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(keys)
	return keys
}

// referenceEncodeSpans is EncodeSpans in its three-Marshal formulation:
// each policy's fields, the wireObject around them, then the []wireSpan,
// each a json.Marshal. The direct encoder must match it byte for byte,
// and error for error.
func referenceEncodeSpans(t String) ([]byte, error) {
	if !t.IsTainted() {
		return nil, nil
	}
	var ws []wireSpan
	err := t.EachTaintedSpan(func(start, end int, ps *PolicySet) error {
		w := wireSpan{Start: start, End: end}
		if err := ps.Each(func(p Policy) error {
			name, ok := RegisteredPolicyName(p)
			if !ok {
				return fmt.Errorf("resin: cannot serialize unregistered policy class %T", p)
			}
			fields, err := json.Marshal(p)
			if err != nil {
				return fmt.Errorf("resin: serialize policy %s: %w", name, err)
			}
			enc, err := json.Marshal(wireObject{Class: name, Fields: fields})
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

// encodeMatchesReference reports how EncodeSpans and
// referenceEncodeSpans disagree on s, or nil if they agree.
func encodeMatchesReference(s String) error {
	got, gerr := EncodeSpans(s)
	want, werr := referenceEncodeSpans(s)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(got, want) {
		return fmt.Errorf("EncodeSpans(%s):\n got %s (error %v)\nwant %s (error %v)", s.Describe(), got, gerr, want, werr)
	}
	return nil
}
