package script

import (
	"errors"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/vfs"
)

// FuzzRSL: any source, run through RunSource under the default import
// filter with a registered builtin, returns nil, a SyntaxError, a
// RuntimeError or the vfs error of an include that names no file (a
// missing path, a directory, or a path under a file). It
// never panics, never takes more than maxSteps steps, and leaves the
// call depth back at zero.
func FuzzRSL(f *testing.F) {
	for _, seed := range []string{
		`echo "welcome to the gallery";`,
		`let theme = "plain"; echo "theme: " . theme;`,
		`let key = "name"; echo "sorted by " . key;`,
		`echo secret();`,
		`func banner(name) { return "== " . name . " =="; } echo banner("ocean theme");`,
		`include "/lib.rsl"; echo tag("b", "i"); # trailing comment`,
		`include "/uploads/evil.rsl";`,
		`include "/";`,
		`include "/lib.rsl/x";`,
		`func f() { return f(); } echo f();`,
		`func d(s) { return d(s . s); } echo d("x\n\t\"");`,
		"echo " + strings.Repeat("f(", maxNesting+1) + `"x"` + strings.Repeat(")", maxNesting+1) + ";",
		"echo " + strings.Repeat("(", maxNesting+1) + `"x"` + strings.Repeat(")", maxNesting+1) + ";",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, fs, in, out := setup(t)
		fs.WriteFile("/lib.rsl", core.NewString(`func tag(t, s) { return "<" . t . ">" . s; }`), nil)
		in.Register("secret", func([]core.String) (core.String, error) {
			return core.NewString("s3cr3t"), nil
		})
		err := in.RunSource(core.NewString(src), out)
		var se *SyntaxError
		var re *RuntimeError
		if err != nil && !errors.As(err, &se) && !errors.As(err, &re) &&
			!errors.Is(err, vfs.ErrNotExist) && !errors.Is(err, vfs.ErrIsDir) && !errors.Is(err, vfs.ErrNotDir) {
			t.Fatalf("%q: unexpected error %T: %v", src, err, err)
		}
		if se != nil {
			return
		}
		prog, err := parseRSL(core.NewString(src))
		if err != nil {
			t.Fatalf("%q: parsed only on the first try: %v", src, err)
		}
		st := &execState{in: in, out: out}
		st.execBlock(prog, newEnv())
		if st.steps > maxSteps {
			t.Fatalf("%q: took %d steps, bound %d", src, st.steps, maxSteps)
		}
		if st.depth != 0 {
			t.Fatalf("%q: call depth %d after the run", src, st.depth)
		}
	})
}
