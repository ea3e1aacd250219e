package script

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/vfs"
)

func setup(t *testing.T) (*core.Runtime, *vfs.FS, *Interp, *core.Channel) {
	t.Helper()
	rt := core.NewRuntime()
	fs := vfs.New(rt)
	in := New(rt, fs)
	out := core.NewChannel(rt, core.KindHTTP, core.ExportCheckFilter{})
	return rt, fs, in, out
}

func runSrc(t *testing.T, in *Interp, out *core.Channel, src string) error {
	t.Helper()
	return in.RunSource(core.NewString(src), out)
}

func TestUserFunctions(t *testing.T) {
	_, _, in, out := setup(t)
	err := runSrc(t, in, out, `
		func greet(greeting, name) {
			let line = greeting . ", " . name;
			return line;
		}
		func noop() { let unused = "x"; }
		echo greet("Hi", "ada") . "!";
		echo greet("Hi", "bob") . "[" . noop() . "]";
	`)
	if err != nil {
		t.Fatal(err)
	}
	// A function that ends without return yields the empty string.
	if out.RawOutput() != "Hi, ada!Hi, bob[]" {
		t.Errorf("output = %q", out.RawOutput())
	}
}

func TestBuiltins(t *testing.T) {
	_, _, in, out := setup(t)
	in.Register("upper", func(args []core.String) (core.String, error) {
		return args[0].ToUpper(), nil
	})
	if err := runSrc(t, in, out, `echo upper("shout");`); err != nil {
		t.Fatal(err)
	}
	if out.RawOutput() != "SHOUT" {
		t.Errorf("output = %q", out.RawOutput())
	}
}

func TestPolicyFlowsThroughScript(t *testing.T) {
	rt, _, in, out := setup(t)
	_ = rt
	taintP := &sanitize.UntrustedData{Source: "test"}
	in.Register("userinput", func(args []core.String) (core.String, error) {
		return core.NewStringPolicy("<evil>", taintP), nil
	})
	if err := runSrc(t, in, out, `echo "pre-" . userinput() . "-post";`); err != nil {
		t.Fatal(err)
	}
	body := out.Output()
	if body.Raw() != "pre-<evil>-post" {
		t.Fatalf("raw = %q", body.Raw())
	}
	// The tainted middle keeps its policy through script concatenation.
	mid := body.Slice(4, 10)
	if !mid.HasPolicyEverywhere(sanitize.IsUntrusted) {
		t.Error("script concat must propagate policies")
	}
	if body.Slice(0, 4).IsTainted() {
		t.Error("script literal gained policies")
	}
}

// TestConcatChainMatchesPairwise pins that one n-ary Concat over a
// "."-chain gives the bytes and per-byte policies of concatenating the
// terms pairwise from the left.
func TestConcatChainMatchesPairwise(t *testing.T) {
	_, _, in, out := setup(t)
	a := core.NewStringPolicy("aa", &sanitize.UntrustedData{Source: "a"})
	b := core.NewStringPolicy("bb", &sanitize.UntrustedData{Source: "b"})
	in.Register("a", func([]core.String) (core.String, error) { return a, nil })
	in.Register("b", func([]core.String) (core.String, error) { return b, nil })
	if err := runSrc(t, in, out, `echo a() . a() . "-" . b() . "" . a();`); err != nil {
		t.Fatal(err)
	}
	want := core.NewString("")
	for _, part := range []core.String{a, a, core.NewString("-"), b, core.NewString(""), a} {
		want = core.Concat(want, part)
	}
	got := out.Output()
	if got.Raw() != want.Raw() || got.Describe() != want.Describe() {
		t.Fatalf("got %s, want %s", got.Describe(), want.Describe())
	}
	for i := 0; i < got.Len(); i++ {
		gp, wp := got.PoliciesAt(i).Policies(), want.PoliciesAt(i).Policies()
		if len(gp) != len(wp) {
			t.Fatalf("byte %d: %d policies, want %d", i, len(gp), len(wp))
		}
		for j := range gp {
			if gp[j] != wp[j] {
				t.Errorf("byte %d: policy %d is %v, want %v", i, j, gp[j], wp[j])
			}
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	_, _, in, out := setup(t)
	cases := []string{
		`echo nope;`,                        // undefined variable
		`echo missing();`,                   // undefined function
		`func f(a) { return a; } echo f();`, // arity
		`echo true;`,                        // true is an ordinary name
	}
	for _, src := range cases {
		var re *RuntimeError
		if err := runSrc(t, in, out, src); !errors.As(err, &re) {
			t.Errorf("%q: want a RuntimeError, got %v", src, err)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	_, _, in, out := setup(t)
	cases := []string{
		`echo "unterminated;`,
		`let = 3;`,
		`if x { }`,
		`echo 1 +;`,
		`while (1) echo 1;`,
		`let x & 3;`,
		`@`,
		`func f(a b) { }`,
		`echo f("a",);`,
		`func f() { echo "x";`,
		// Assignment, numbers, booleans, grouping, arithmetic, comparison
		// and logic are not RSL.
		`let x = "a"; x = "b";`,
		`echo 1;`,
		`echo ("a");`,
		`echo "a" + "b";`,
		`echo "a" == "b";`,
		`echo !"a";`,
		`echo "a" && "b";`,
	}
	for _, src := range cases {
		var se *SyntaxError
		if err := runSrc(t, in, out, src); !errors.As(err, &se) {
			t.Errorf("%q: want a SyntaxError, got %v", src, err)
		}
	}
}

// TestNestingBound: a million nested calls or parentheses fail with a
// SyntaxError instead of overflowing the parser's stack.
func TestNestingBound(t *testing.T) {
	_, _, in, out := setup(t)
	const n = 1000000
	for _, src := range []string{
		"echo " + strings.Repeat("f(", n) + `"x"` + strings.Repeat(")", n) + ";",
		"echo " + strings.Repeat("(", n) + `"x"` + strings.Repeat(")", n) + ";",
		strings.Repeat("func f() { ", n) + strings.Repeat("}", n),
	} {
		var se *SyntaxError
		if err := runSrc(t, in, out, src); !errors.As(err, &se) {
			t.Errorf("%.20q...: want a SyntaxError, got %v", src, err)
		}
	}
	// maxNesting levels still parse.
	src := "func f(s) { return s; } echo " + strings.Repeat("f(", maxNesting) + `"x"` + strings.Repeat(")", maxNesting) + ";"
	if err := runSrc(t, in, out, src); err != nil {
		t.Fatal(err)
	}
}

// TestStepLimitStopsRunaway: a shallow run that makes too many calls —
// a doubling chain, 2^17 calls of f0 at depth 18 — stops at the step
// bound.
func TestStepLimitStopsRunaway(t *testing.T) {
	_, _, in, out := setup(t)
	src := `func f0() { return ""; }`
	for i := 1; i <= 17; i++ {
		src += fmt.Sprintf(" func f%d() { return f%d() . f%d(); }", i, i-1, i-1)
	}
	want := fmt.Sprintf("exceeded %d steps", maxSteps)
	var re *RuntimeError
	if err := runSrc(t, in, out, src+" echo f17();"); !errors.As(err, &re) || !strings.Contains(err.Error(), want) {
		t.Errorf("doubling chain: want the %q error, got %v", want, err)
	}
}

// TestCallDepthStopsRecursion: unbounded recursion, through a call or
// through include, stops at the call-depth bound, long before the step
// bound could.
func TestCallDepthStopsRecursion(t *testing.T) {
	_, fs, in, out := setup(t)
	fs.WriteFile("/loop.rsl", core.NewString(`include "/loop.rsl";`), nil)
	want := fmt.Sprintf("exceeded call depth %d", maxDepth)
	for name, run := range map[string]func() error{
		"call":    func() error { return runSrc(t, in, out, `func f() { return f(); } echo f();`) },
		"include": func() error { return in.RunFile("/loop.rsl", out, nil) },
	} {
		var re *RuntimeError
		if err := run(); !errors.As(err, &re) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: want the %q error, got %v", name, want, err)
		}
	}
}

// TestByteLimitStopsBlowup: a value that doubles at each call stops at
// the byte bound long before the step bound.
func TestByteLimitStopsBlowup(t *testing.T) {
	_, _, in, out := setup(t)
	err := runSrc(t, in, out, `func d(s) { return d(s . s); } echo d("x");`)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeded %d bytes", maxBytes)) {
		t.Errorf("doubling should hit the byte limit: %v", err)
	}
}

func TestRunFileAndInclude(t *testing.T) {
	_, fs, in, out := setup(t)
	fs.MkdirAll("/app", nil)
	fs.WriteFile("/app/lib.rsl", core.NewString(`func tag(s) { return "<" . s . ">"; }`), nil)
	fs.WriteFile("/app/main.rsl", core.NewString(`include "/app/lib.rsl"; echo tag("b");`), nil)
	if err := in.RunFile("/app/main.rsl", out, nil); err != nil {
		t.Fatal(err)
	}
	if out.RawOutput() != "<b>" {
		t.Errorf("output = %q", out.RawOutput())
	}
}

func TestApprovedCodeFilterBlocksUnapproved(t *testing.T) {
	_, fs, in, out := setup(t)
	fs.MkdirAll("/app", nil)
	fs.MkdirAll("/uploads", nil)
	fs.WriteFile("/app/theme.rsl", core.NewString(`echo "legit theme";`), nil)
	// Developer approves the installed code.
	if err := MakeFileExecutable(fs, "/app/theme.rsl"); err != nil {
		t.Fatal(err)
	}
	// Adversary uploads a file with code in it.
	fs.WriteFile("/uploads/avatar.png", core.NewString(`echo "owned";`), nil)

	in.RequireApprovedCode()

	if err := in.RunFile("/app/theme.rsl", out, nil); err != nil {
		t.Fatalf("approved code must run: %v", err)
	}
	if out.RawOutput() != "legit theme" {
		t.Errorf("output = %q", out.RawOutput())
	}
	err := in.RunFile("/uploads/avatar.png", out, nil)
	if !errors.Is(err, ErrNotExecutable) {
		t.Fatalf("unapproved code must be blocked: %v", err)
	}
}

func TestApprovalSurvivesPersistence(t *testing.T) {
	// The CodeApproval policy rides in the file's xattrs: a fresh
	// interpreter (fresh policy objects) still honours it.
	rt := core.NewRuntime()
	fs := vfs.New(rt)
	fs.MkdirAll("/app", nil)
	fs.WriteFile("/app/a.rsl", core.NewString(`echo "ok";`), nil)
	MakeFileExecutable(fs, "/app/a.rsl")

	in2 := New(rt, fs)
	in2.RequireApprovedCode()
	out := core.NewChannel(rt, core.KindHTTP)
	if err := in2.RunFile("/app/a.rsl", out, nil); err != nil {
		t.Fatalf("persisted approval must be honoured: %v", err)
	}
}

func TestIncludeGoesThroughImportChannel(t *testing.T) {
	// Even if the top-level file is approved, including an unapproved
	// file must fail: the include path is the attack surface.
	_, fs, in, out := setup(t)
	fs.MkdirAll("/app", nil)
	fs.MkdirAll("/uploads", nil)
	fs.WriteFile("/app/main.rsl", core.NewString(`include "/uploads/evil.rsl";`), nil)
	MakeFileExecutable(fs, "/app/main.rsl")
	fs.WriteFile("/uploads/evil.rsl", core.NewString(`echo "owned";`), nil)
	in.RequireApprovedCode()
	if err := in.RunFile("/app/main.rsl", out, nil); !errors.Is(err, ErrNotExecutable) {
		t.Fatalf("unapproved include must be blocked: %v", err)
	}
	if strings.Contains(out.RawOutput(), "owned") {
		t.Error("evil include produced output")
	}
}

func TestPartialApprovalRejected(t *testing.T) {
	// A file that is only partially approved (e.g. attacker appended to an
	// approved file) must be rejected: every character needs the policy.
	_, fs, in, out := setup(t)
	fs.WriteFile("/a.rsl", core.NewString(`echo "ok";`), nil)
	MakeFileExecutable(fs, "/a.rsl")
	// Append unapproved code.
	fs.AppendFile("/a.rsl", core.NewString(` echo "injected";`), nil)
	in.RequireApprovedCode()
	if err := in.RunFile("/a.rsl", out, nil); !errors.Is(err, ErrNotExecutable) {
		t.Fatalf("partially approved code must be blocked: %v", err)
	}
}

func TestDefaultImportFilterPermitsPlainCode(t *testing.T) {
	// Without the assertion, the default filter passes unapproved code —
	// the vulnerable baseline.
	_, fs, in, out := setup(t)
	fs.MkdirAll("/uploads", nil)
	fs.WriteFile("/uploads/evil.rsl", core.NewString(`echo "owned";`), nil)
	if err := in.RunFile("/uploads/evil.rsl", out, nil); err != nil {
		t.Fatalf("default filter should permit policy-less code: %v", err)
	}
	if out.RawOutput() != "owned" {
		t.Errorf("output = %q", out.RawOutput())
	}
}

func TestEchoWithoutChannelFails(t *testing.T) {
	_, _, in, _ := setup(t)
	if err := in.RunSource(core.NewString(`echo "x";`), nil); err == nil {
		t.Fatal("echo with nil channel must error")
	}
}
