package core_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"resin/internal/core"
	// Every importable package that registers a policy class.
	_ "resin/internal/apps/filemgr"
	_ "resin/internal/apps/forum"
	_ "resin/internal/apps/hotcrp"
	_ "resin/internal/apps/loginlib"
	_ "resin/internal/apps/wiki"
	_ "resin/internal/microbench"
	_ "resin/internal/sanitize"
	_ "resin/internal/script"
)

// spacedPolicy's MarshalJSON emits whitespace and HTML characters, which
// encoding/json compacts and escapes.
type spacedPolicy struct{}

func (*spacedPolicy) ExportCheck(*core.Context) error { return nil }
func (*spacedPolicy) MarshalJSON() ([]byte, error) {
	return []byte("{ \"a\" : [ 1, 2 ] ,\n\t\"b\" : \"<x&y> \" }"), nil
}

type unregisteredPolicy struct{ Secret string }

func (*unregisteredPolicy) ExportCheck(*core.Context) error { return nil }

func init() { core.RegisterPolicyClass("test.SpacedPolicy", &spacedPolicy{}) }

// awkward holds what encoding/json escapes or replaces: HTML
// characters, U+2028/U+2029 and invalid UTF-8.
const awkward = "<b>&amp;\u2028\u2029\xff\xfe end"

// filled returns a new instance of p's class with every settable string,
// string-slice and integer field set.
func filled(p core.Policy) core.Policy {
	v := reflect.New(reflect.TypeOf(p).Elem())
	for i := 0; i < v.Elem().NumField(); i++ {
		switch f := v.Elem().Field(i); {
		case !f.CanSet():
		case f.Kind() == reflect.String:
			f.SetString(awkward)
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.String:
			f.Set(reflect.ValueOf([]string{awkward, "x"}).Convert(f.Type()))
		case f.CanInt():
			f.SetInt(-42)
		}
	}
	return v.Interface().(core.Policy)
}

// TestEncodeSpansMatchesJSONReference: EncodeSpans appends its output
// directly, and must write exactly what the three-Marshal formulation
// (core's referenceEncodeSpans) writes — for every policy class the
// tree's packages register, zero and filled with awkward field bytes,
// alone and over several spans of several members, and with the same
// error for an unregistered class.
func TestEncodeSpansMatchesJSONReference(t *testing.T) {
	protos := core.PolicyPrototypes()
	for _, name := range []string{"hotcrp.PaperPolicy", "forum.MessagePolicy", "resin.UntrustedData", "resin.CodeApproval", "microbench.Empty", "test.SpacedPolicy"} {
		if protos[name] == nil {
			t.Fatalf("policy class %s is not registered", name)
		}
	}
	names := make([]string, 0, len(protos))
	for name := range protos {
		names = append(names, name)
	}
	sort.Strings(names)
	var cases []core.String
	all := core.NewString(strings.Repeat("x", 64))
	for i, name := range names {
		full := filled(protos[name])
		cases = append(cases, core.NewString("value").WithPolicy(protos[name]), core.NewString("value").WithPolicy(full))
		all = all.WithPolicyRange(i%8*4, 16+i%5*9, full, filled(protos[names[(i+1)%len(names)]]))
	}
	unreg := &unregisteredPolicy{Secret: awkward}
	cases = append(cases, all,
		core.NewString("nope").WithPolicy(unreg),
		core.NewString("half").WithPolicyRange(0, 2, &spacedPolicy{}).WithPolicyRange(2, 4, unreg))
	for _, c := range cases {
		if err := core.EncodeMatchesReference(c); err != nil {
			t.Error(err)
		}
	}
	if _, err := core.EncodeSpans(core.NewString("nope").WithPolicy(unreg)); err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Errorf("unregistered class: error %v, want the unregistered-class error", err)
	}
	if enc, _ := core.EncodeSpans(all); strings.Count(string(enc), `"start"`) < 8 {
		t.Errorf("the many-span case encodes only %s", enc)
	}
}
