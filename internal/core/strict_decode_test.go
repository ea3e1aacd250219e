package core_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"resin/internal/core"
)

// TestDecodeFailsClosed: a stored policy or filter whose fields do not
// have exactly its class's keys, once each, fails with a
// *PolicyDecodeError naming the class and the keys, instead of decoding
// with a zero field. The renamed key is the case that showed an
// anonymous author list to a PC member: "anon" decoded to Anonymous:
// false. A repeated key would decode to its last value, so
// "anonymous":true followed by an escaped spelling of "anonymous":false
// fails too.
func TestDecodeFailsClosed(t *testing.T) {
	for _, c := range []struct {
		kind, enc                   string
		unknown, missing, duplicate []string
	}{
		{"policy", `{"class":"hotcrp.AuthorListPolicy","fields":{"paper_id":1,"anon":true,"authors":["a"]}}`, []string{"anon"}, []string{"anonymous"}, nil},
		{"policy", `{"class":"hotcrp.AuthorListPolicy","fields":{"paper_id":1,"authors":["a"]}}`, nil, []string{"anonymous"}, nil},
		{"policy", `{"class":"hotcrp.AuthorListPolicy"}`, nil, []string{"anonymous", "authors", "paper_id"}, nil},
		{"filter", `{"class":"wiki.PageWriteFilter","fields":{"acl":["a"],"owner":"b"}}`, []string{"owner"}, nil, nil},
		{"policy", `{"class":"hotcrp.AuthorListPolicy","fields":{"paper_id":1,"anonymous":true,"authors":["a"],"anonym\u006fus":false}}`, nil, nil, []string{"anonymous"}},
		{"policy", `{"class":"hotcrp.AuthorListPolicy","fields":{"paper_id":1,"anonymous":true,"authors":["a"],"anon":1,"anon":2}}`, []string{"anon"}, nil, []string{"anon"}},
	} {
		var err error
		if c.kind == "policy" {
			_, err = core.DecodePolicy([]byte(c.enc))
		} else {
			_, err = core.DecodeFilter([]byte(c.enc))
		}
		var de *core.PolicyDecodeError
		if !errors.As(err, &de) || de.Kind != c.kind || !strings.Contains(c.enc, `"`+de.Class+`"`) ||
			!slices.Equal(de.Unknown, c.unknown) || !slices.Equal(de.Missing, c.missing) || !slices.Equal(de.Duplicate, c.duplicate) {
			t.Errorf("%s: err = %v, want a %s decode error with unknown %q, missing %q, duplicate %q", c.enc, err, c.kind, c.unknown, c.missing, c.duplicate)
		}
	}
	if _, err := core.DecodePolicy([]byte(`{"class":"hotcrp.AuthorListPolicy","fields":[1]}`)); err == nil {
		t.Error("fields that are not a JSON object decoded")
	}
	// Every registered class's own encoding still decodes.
	for name, p := range core.PolicyPrototypes() {
		enc, err := core.EncodePolicy(p)
		if err == nil {
			_, err = core.DecodePolicy(enc)
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
