package core

import "testing"

// TestStringOpsMatchOracle checks operations that keep or drop parts of a
// tainted string against the per-byte oracle: every byte of a result
// must carry exactly the policies of the byte it came from.
func TestStringOpsMatchOracle(t *testing.T) {
	a, b := &allowPolicy{Name: "A"}, &allowPolicy{Name: "B"}
	// "key=val;rest" tainted A throughout and B on "val".
	src := NewStringPolicy("key=val;rest", a).WithPolicyRange(4, 7, b)
	o := oracleOf(src)
	sep := NewStringPolicy(", ", b)
	elems := []String{NewStringPolicy("x", a), NewString("y"), src}

	for _, c := range []struct {
		name string
		got  []String
		want []oracle
	}{
		{"Join with a tainted separator", []String{Join(elems, sep)},
			[]oracle{oracleOf(elems[0]).concat(oracleOf(sep)).concat(oracleOf(elems[1])).concat(oracleOf(sep)).concat(o)}},
		{"SplitN's last fragment", src.SplitN("=", 2), []oracle{o.slice(0, 3), o.slice(4, 12)}},
		{"SplitN with no separator", src.SplitN("#", 2), []oracle{o}},
		{"TrimPrefix", []String{src.TrimPrefix("key=")}, []oracle{o.slice(4, 12)}},
		{"TrimSuffix", []String{src.TrimSuffix(";rest")}, []oracle{o.slice(0, 7)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if len(c.got) != len(c.want) {
				t.Fatalf("%d fragments, want %d", len(c.got), len(c.want))
			}
			for i := range c.got {
				c.want[i].equalString(t, c.got[i])
			}
		})
	}
}
