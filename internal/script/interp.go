package script

import (
	"errors"
	"fmt"

	"resin/internal/core"
	"resin/internal/vfs"
)

// CodeApproval is the policy of Figure 6: an empty policy object attached
// to every file the developer marks executable. The interpreter's import
// filter requires it on every character of loaded code, so
// adversary-uploaded files — which lack the policy — are never executed.
type CodeApproval struct{}

// ExportCheck always passes (Figure 6: "function export_check($context) {}").
func (p *CodeApproval) ExportCheck(ctx *core.Context) error { return nil }

func init() {
	core.RegisterPolicyClass("resin.CodeApproval", &CodeApproval{})
}

// IsCodeApproval reports whether p is a CodeApproval policy.
func IsCodeApproval(p core.Policy) bool {
	_, ok := p.(*CodeApproval)
	return ok
}

// ErrNotExecutable is the Figure 6 rejection: loaded code lacks the
// CodeApproval policy on some character.
var ErrNotExecutable = errors.New("script: not executable (missing CodeApproval policy)")

// ApprovedCodeFilter is the InterpreterFilter of Figure 6: a read filter
// that only allows code whose every character carries a CodeApproval
// policy. It replaces the interpreter's default import filter — the
// default filter "always permits data that has no policy", which is
// exactly wrong for code.
type ApprovedCodeFilter struct{}

// FilterRead verifies the CodeApproval policy on each character of buf.
func (f *ApprovedCodeFilter) FilterRead(ch *core.Channel, data core.String, off int64) (core.String, error) {
	if !data.HasPolicyEverywhere(IsCodeApproval) {
		return core.String{}, &core.AssertionError{
			Context: ch.Context(), Op: "read_check", Err: ErrNotExecutable,
		}
	}
	return data, nil
}

// MakeFileExecutable is Figure 6's make_file_executable: the developer
// reads the installed file, tags its contents with a persistent
// CodeApproval policy, and writes it back. The policy rides in the file's
// extended attributes from then on.
func MakeFileExecutable(fs *vfs.FS, path string) error {
	data, err := fs.ReadFile(path, nil)
	if err != nil {
		return err
	}
	return fs.WriteFile(path, data.WithPolicy(&CodeApproval{}), nil)
}

// Builtin is a host function callable from RSL.
type Builtin func(args []core.String) (core.String, error)

// RuntimeError is an RSL evaluation error.
type RuntimeError struct{ Msg string }

func (e *RuntimeError) Error() string { return "script: " + e.Msg }

func rerrf(format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// A run stops with a RuntimeError after maxSteps statements and terms,
// once calls and includes nest deeper than maxDepth, or once the bytes
// it includes, concatenates and echoes pass maxBytes, so a runaway or
// hostile script cannot hang the host or exhaust its stack or memory.
const (
	maxSteps = 100000
	maxDepth = 256
	maxBytes = 16 << 20
)

// Interp is the RSL interpreter. Code reaches it only through the
// code-import channel; applications replace the channel's filters to
// enforce the script-injection assertion.
type Interp struct {
	fs       *vfs.FS
	importCh *core.Channel
	builtins map[string]Builtin
}

// New returns an interpreter bound to rt loading code from fs. The import
// channel starts with the permissive default filter (ReadCheckFilter):
// like the paper's default boundary, it checks policies that are present
// but passes code with no policy at all.
func New(rt *core.Runtime, fs *vfs.FS) *Interp {
	in := &Interp{
		fs:       fs,
		importCh: core.NewChannel(rt, core.KindCode, core.ReadCheckFilter{}),
		builtins: make(map[string]Builtin),
	}
	rt.RegisterChannel("interpreter", in.importCh)
	return in
}

// ImportChannel returns the interpreter's code-import boundary — the
// programmer overrides its filters "in a global configuration file, to
// ensure the filter is set before any other code executes" (§5.2).
func (in *Interp) ImportChannel() *core.Channel { return in.importCh }

// RequireApprovedCode replaces the import filter with the Figure 6
// assertion filter.
func (in *Interp) RequireApprovedCode() {
	in.importCh.SetFilters(&ApprovedCodeFilter{})
}

// Register adds a host builtin callable from scripts.
func (in *Interp) Register(name string, fn Builtin) { in.builtins[name] = fn }

// env is a script execution scope.
type env struct {
	vars  map[string]core.String
	funcs map[string]*stmt
}

func newEnv() *env {
	return &env{vars: make(map[string]core.String), funcs: make(map[string]*stmt)}
}

// execState carries per-run interpreter state.
type execState struct {
	in                  *Interp
	out                 *core.Channel
	steps, depth, bytes int
	ret                 *core.String // non-nil while unwinding a return
}

// RunFile loads the file at path through the code-import channel and
// executes it; echo output goes to out (which may be an HTTP response
// channel, so output assertions still apply). ctx carries the requesting
// user for the file read.
func (in *Interp) RunFile(path string, out *core.Channel, ctx *core.Context) error {
	src, err := in.fs.ReadFile(path, ctx)
	if err != nil {
		return err
	}
	code, err := in.importCh.Read(src)
	if err != nil {
		return err
	}
	return in.run(code, out)
}

// RunSource executes source text through the import channel (the eval
// path — the same boundary guards it).
func (in *Interp) RunSource(src core.String, out *core.Channel) error {
	code, err := in.importCh.Read(src)
	if err != nil {
		return err
	}
	return in.run(code, out)
}

func (in *Interp) run(code core.String, out *core.Channel) error {
	prog, err := parseRSL(code)
	if err != nil {
		return err
	}
	st := &execState{in: in, out: out}
	return st.execBlock(prog, newEnv())
}

func (st *execState) step() error {
	if st.steps == maxSteps {
		return rerrf("execution exceeded %d steps", maxSteps)
	}
	st.steps++
	return nil
}

// spend charges n bytes against the run's byte budget.
func (st *execState) spend(n int) error {
	if st.bytes += n; st.bytes > maxBytes {
		return rerrf("execution exceeded %d bytes", maxBytes)
	}
	return nil
}

// execBlock runs a program, an included file or a function body; each
// nests one level deeper.
func (st *execState) execBlock(stmts []stmt, e *env) (err error) {
	if st.depth == maxDepth {
		return rerrf("execution exceeded call depth %d", maxDepth)
	}
	st.depth++
	for i := range stmts {
		if err = st.exec(&stmts[i], e); err != nil || st.ret != nil {
			break
		}
	}
	st.depth--
	return err
}

func (st *execState) exec(s *stmt, e *env) error {
	if err := st.step(); err != nil {
		return err
	}
	if s.kw == "func" {
		e.funcs[s.name] = s
		return nil
	}
	val, err := st.eval(s.x, e)
	if err != nil {
		return err
	}
	switch s.kw {
	case "echo":
		if st.out == nil {
			return rerrf("echo with no output channel")
		}
		if err := st.spend(val.Len()); err != nil {
			return err
		}
		return st.out.Write(val)
	case "let":
		e.vars[s.name] = val
	case "include":
		// The included file flows through the same import channel — this
		// is the attack surface of theme/plugin loading, and the reason
		// the approval filter must guard *all* code paths.
		src, err := st.in.fs.ReadFile(val.Raw(), nil)
		if err != nil {
			return err
		}
		code, err := st.in.importCh.Read(src)
		if err != nil {
			return err
		}
		if err := st.spend(code.Len()); err != nil {
			return err
		}
		prog, err := parseRSL(code)
		if err != nil {
			return err
		}
		return st.execBlock(prog, e) // include shares scope, like PHP
	case "return":
		st.ret = &val
	}
	return nil
}

// eval evaluates the terms of x left to right and joins them with one
// Concat, which carries every byte's policies into the result.
func (st *execState) eval(x expr, e *env) (core.String, error) {
	parts := make([]core.String, len(x))
	n := 0
	for i := range x {
		v, err := st.term(&x[i], e)
		if err != nil {
			return core.String{}, err
		}
		parts[i] = v
		n += v.Len()
	}
	if len(parts) > 1 {
		if err := st.spend(n); err != nil {
			return core.String{}, err
		}
	}
	return core.Concat(parts...), nil
}

func (st *execState) term(t *term, e *env) (core.String, error) {
	if err := st.step(); err != nil {
		return core.String{}, err
	}
	switch {
	case t.name == "":
		return t.lit, nil
	case !t.call:
		val, ok := e.vars[t.name]
		if !ok {
			return core.String{}, rerrf("undefined variable %q", t.name)
		}
		return val, nil
	}
	args := make([]core.String, len(t.args))
	for i, a := range t.args {
		v, err := st.eval(a, e)
		if err != nil {
			return core.String{}, err
		}
		args[i] = v
	}
	if fn, ok := e.funcs[t.name]; ok {
		if len(args) != len(fn.params) {
			return core.String{}, rerrf("%s expects %d args, got %d", t.name, len(fn.params), len(args))
		}
		// Script functions get a fresh variable scope sharing functions.
		fe := &env{vars: make(map[string]core.String), funcs: e.funcs}
		for i, p := range fn.params {
			fe.vars[p] = args[i]
		}
		if err := st.execBlock(fn.body, fe); err != nil {
			return core.String{}, err
		}
		// A function that ends without return yields the empty string.
		var out core.String
		if st.ret != nil {
			out, st.ret = *st.ret, nil
		}
		return out, nil
	}
	if fn, ok := st.in.builtins[t.name]; ok {
		return fn(args)
	}
	return core.String{}, rerrf("undefined function %q", t.name)
}
