package sqldb

import (
	"fmt"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// Prepared statements, and the execute half of the one query route. A
// Stmt is query text compiled once — one tokenize, at most one parse
// (plan.go) — together with the verdicts the §5.3 injection assertions
// reach on that text; every execution binds argument *values* (tracked
// or plain) into the compiled form and sends it through the SQL
// channel. DB.Query, Tx.Query and the wire server's one-shot query are
// Prepare followed by Stmt.Query, so an assertion holds on all of them
// or on none. Bound values never appear in query text, so they cannot
// reshape the statement: injection through a bound slot is structurally
// impossible, and the assertions skip bound slots by construction (they
// inspect the text, and the text holds only `?`). Policies on bound
// values flow into shadow policy columns exactly as literal policies do
// (Figure 4), because binding produces the same literal expressions the
// parser would have.
//
// Repeated executions of one Stmt run at 0 tokenizes and 0 parses per
// operation — TokenizeCount and ParseCount pin this in tests and in
// BenchmarkSQLPreparedLookup.

// argExpr converts one bound argument into the literal expression the
// parser would have produced for it, built in lit: tracked values keep
// their policy sets (core.String per-character; core.Int whole-value,
// rendered onto its digits for policy-column persistence), plain Go
// values bind untainted.
func argExpr(a any, lit *argLit) (Expr, error) {
	str := func(v core.String) Expr { lit.s.Val = v; return &lit.s }
	num := func(v int64) Expr { lit.i.Val = v; return &lit.i }
	switch v := a.(type) {
	case nil:
		return &NullLit{}, nil
	case NamedArg:
		return nil, fmt.Errorf("sqldb: named argument %q where a value is expected", v.Name)
	case core.String:
		return str(v), nil
	case core.Int:
		lit.i.Src = v.ToString()
		return num(v.Value()), nil
	case string:
		return str(core.NewString(v)), nil
	case []byte:
		return str(core.NewString(string(v))), nil
	case int:
		return num(int64(v)), nil
	case int64:
		return num(v), nil
	case int32:
		return num(int64(v)), nil
	case int16:
		return num(int64(v)), nil
	case int8:
		return num(int64(v)), nil
	case uint8:
		return num(int64(v)), nil
	case uint16:
		return num(int64(v)), nil
	case uint32:
		return num(int64(v)), nil
	case bool:
		if v {
			return num(1), nil
		}
		return num(0), nil
	default:
		return nil, fmt.Errorf("sqldb: cannot bind %T (want core.String, core.Int, string, []byte, integer, bool, or nil)", a)
	}
}

// boundArgs is one execution's bound arguments: exprs[i] binds
// placeholder ordinal i. The literal nodes of the first inlineArgs
// arguments live in the block, and so do the SQL channel's call
// arguments, which carry the block by pointer: binding a short argument
// list and sending it through the channel is one allocation.
type boundArgs struct {
	exprs []Expr
	call  [4]any // Stmt.run's channel arguments
	ex    [inlineArgs]Expr
	lits  [inlineArgs]argLit
}

const inlineArgs = 4

// argLit is the room for one bound argument's literal node.
type argLit struct {
	i IntLit
	s StringLit
}

func newBoundArgs(n int) *boundArgs {
	ba := &boundArgs{}
	if n <= inlineArgs {
		ba.exprs = ba.ex[:n]
	} else {
		ba.exprs = make([]Expr, n)
	}
	return ba
}

// set binds argument a to ordinal i.
func (ba *boundArgs) set(i int, a any) error {
	var lit *argLit
	if i < inlineArgs {
		lit = &ba.lits[i]
	} else {
		lit = new(argLit)
	}
	ex, err := argExpr(a, lit)
	ba.exprs[i] = ex
	return err
}

// bindPositional binds an argument list in order: index i binds
// placeholder ?i.
func bindPositional(args []any) (*boundArgs, error) {
	ba := newBoundArgs(len(args))
	for i, a := range args {
		if err := ba.set(i, a); err != nil {
			return nil, fmt.Errorf("%w (argument %d)", err, i)
		}
	}
	return ba, nil
}

// NamedArg binds a value to a `:name` placeholder by name instead of by
// position. Construct one with Named. A statement execution must bind
// either all positionally or all by name.
type NamedArg struct {
	Name  string
	Value any
}

// Named returns a NamedArg binding value to the `:name` placeholder.
func Named(name string, value any) NamedArg { return NamedArg{Name: name, Value: value} }

// Stmt is a prepared statement: query text compiled once, executed many
// times with bound arguments. Create one with DB.Prepare or Tx.Prepare;
// a Stmt is immutable and safe for concurrent use (per-execution state
// lives in the execution's boundArgs), so every DB.Prepare of the same
// remembered text returns the same Stmt.
type Stmt struct {
	db *DB
	tx *Tx // non-nil when prepared inside a transaction

	query    core.String
	queryArg any // query, boxed once for the channel call
	compiled     // the text under the standard tokenizer

	// s1 and s2 are the verdicts of the strategy-1 and strategy-2
	// assertions on the immutable query text (nil: passes), computed
	// once so executions consult the filter's flags without
	// re-tokenizing.
	s1, s2 error
	// textUntrusted notes untrusted bytes in the text itself; with
	// auto-sanitize on, such text is compiled per execution under the
	// taint-aware tokenizer (the slow, faithful path).
	textUntrusted bool
	// err defers a standard lex or parse failure on untrusted text to
	// execution time: the taint-aware tokenizer may accept what the
	// standard one rejects (an unbalanced untrusted quote, a breakout
	// that leaves the standard stream unparseable), so the verdict
	// belongs to the mode active at execution.
	err error
}

// prepareStmt compiles query text into a Stmt against db's plan cache.
// The text is tokenized exactly once here — not at all when it is plain
// (no policy span, within the memo's length bound) and the plan cache
// remembers its bytes, which returns the remembered Stmt itself — and
// executions tokenize zero times (TokenizeCount pins all three). Text
// carrying any span, untrusted or not, is always compiled and judged
// afresh: the verdicts depend on where the spans fall, not on the bytes.
func prepareStmt(db *DB, tx *Tx, q core.String) (*Stmt, error) {
	plans := db.filter.planner()
	plain := !q.IsTainted() && q.Len() <= textMemoMaxLen
	if plain {
		if st, ok := plans.texts.Get(q.Raw()); ok {
			return st.in(tx), nil
		}
	}
	s := &Stmt{db: db, query: q, queryArg: q}
	_, _, s.textUntrusted = q.FindPolicy(sanitize.IsUntrusted)
	toks, err := Lex(q)
	s.s1, s.s2 = injectionVerdicts(q, toks, err)
	if err == nil {
		s.compiled, err = plans.compile(toks)
	}
	if err != nil {
		if !s.textUntrusted {
			return nil, err
		}
		s.err = err
	}
	// Text without a policy span that compiled and passed both injection
	// assertions: only such a statement is a function of its bytes.
	if plain && err == nil && s.s1 == nil && s.s2 == nil {
		s = plans.texts.Add(q.Raw(), s, 0)
	}
	return s.in(tx), nil
}

// in returns s executing inside tx: s itself outside a transaction,
// otherwise a copy, so a remembered Stmt never carries a transaction.
func (s *Stmt) in(tx *Tx) *Stmt {
	if tx == nil {
		return s
	}
	cp := *s
	cp.tx = tx
	return &cp
}

// NumArgs returns the number of `?` placeholders the statement binds.
func (s *Stmt) NumArgs() int { return s.nargs }

// Text returns the prepared query text.
func (s *Stmt) Text() core.String { return s.query }

// bind returns the plan and the slot values of one execution. auto
// selects the auto-sanitizing mode: text carrying untrusted bytes is
// then compiled afresh under the taint-aware tokenizer, which keeps them
// inert.
func (s *Stmt) bind(bound []Expr, auto bool) (*cachedPlan, []Expr, error) {
	cp, err := s.compiled, s.err
	if auto && s.textUntrusted {
		cp, err = s.db.filter.planner().compileAutoSanitized(s.query)
	}
	if err != nil {
		return nil, nil, err
	}
	slots, err := cp.slots(bound)
	return cp.plan, slots, err
}

// bindArgs binds the caller's argument list to placeholder ordinals.
// Positional calls bind in order; NamedArg calls bind by `:name`, in any
// order, with repeats of a name sharing one ordinal. Mixing the two
// styles in one call is an error, as is an unknown, missing, or
// duplicate name.
func (cp *compiled) bindArgs(args []any) (*boundArgs, error) {
	named := 0
	for _, a := range args {
		if _, ok := a.(NamedArg); ok {
			named++
		}
	}
	if named == 0 {
		return bindPositional(args)
	}
	if named != len(args) {
		return nil, fmt.Errorf("sqldb: cannot mix named and positional arguments in one execution")
	}
	ba := newBoundArgs(cp.nargs)
	for _, a := range args {
		na := a.(NamedArg)
		ord := -1
		for i, n := range cp.names {
			if n != "" && n == na.Name {
				ord = i
				break
			}
		}
		if ord < 0 {
			return nil, fmt.Errorf("sqldb: no placeholder named %q in statement", na.Name)
		}
		if ba.exprs[ord] != nil {
			return nil, fmt.Errorf("sqldb: placeholder %q bound twice", na.Name)
		}
		if err := ba.set(ord, na.Value); err != nil {
			return nil, fmt.Errorf("%w (argument %q)", err, na.Name)
		}
	}
	for i, ex := range ba.exprs {
		if ex == nil {
			return nil, fmt.Errorf("sqldb: placeholder %q not bound", cp.names[i])
		}
	}
	return ba, nil
}

// ReadOnly reports whether the statement is a SELECT — the only
// statement form a read replica will execute. Statements whose compile
// was deferred (untrusted text needing the auto-sanitizing lexer) report
// false: their shape is unknown until execution.
func (s *Stmt) ReadOnly() bool {
	if s.err != nil {
		return false
	}
	_, ok := s.plan.stmt.(*Select)
	return ok
}

// Query executes the prepared statement with the given arguments bound
// into its placeholders — positionally for `?`, or via Named values for
// `:name` — and returns the tracked result.
func (s *Stmt) Query(args ...any) (*Result, error) {
	bound, err := s.bindArgs(args)
	if err != nil {
		return nil, err
	}
	if s.tx == nil {
		return s.run(s.db.Engine(), bound)
	}
	s.tx.mu.Lock()
	defer s.tx.mu.Unlock()
	if s.tx.done {
		return nil, ErrTxDone
	}
	return s.run(s.tx.spec, bound)
}

// run executes the statement against engine. It is the one call site of
// the SQL channel: with tracking enabled the call passes through the
// filter chain (injection assertions + policy persistence), which
// consumes it and answers with the *Result; otherwise the statement
// executes untracked through the same bound plan — still 0 tokenizes /
// 0 parses.
func (s *Stmt) run(engine *Engine, bound *boundArgs) (*Result, error) {
	bound.call = [4]any{s.queryArg, engine, s, bound}
	out, err := s.db.channel.Call(bound.call[:])
	if err != nil {
		return nil, err
	}
	if len(out) == 1 {
		if res, ok := out[0].(*Result); ok {
			return res, nil
		}
	}
	plan, slots, err := s.bind(bound.exprs, false)
	if err != nil {
		return nil, err
	}
	return executePlanned(s.db.filter.planner(), plan, engine, plan.stmt, slots, false)
}

// Exec executes the prepared statement and returns the number of rows
// affected (INSERT/UPDATE/DELETE; 0 for other statements).
func (s *Stmt) Exec(args ...any) (int, error) {
	res, err := s.Query(args...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// Prepare compiles query text — with `?` binding placeholders — into a
// Stmt executing against this database. The text is tokenized and
// parsed exactly once; see the package comment in this file for the
// binding and assertion semantics.
func (db *DB) Prepare(q core.String) (*Stmt, error) {
	return prepareStmt(db, nil, q)
}

// PrepareRaw is Prepare for untracked query text.
func (db *DB) PrepareRaw(q string) (*Stmt, error) { return db.Prepare(core.NewString(q)) }

// MustPrepare compiles untracked query text and panics on error; used
// by application startup code preparing its hot statements.
func (db *DB) MustPrepare(q string) *Stmt {
	st, err := db.PrepareRaw(q)
	if err != nil {
		panic(fmt.Sprintf("sqldb: prepare %s: %v", q, err))
	}
	return st
}

// Prepare compiles query text into a Stmt executing against this
// transaction's speculative state. The Stmt becomes unusable once the
// transaction commits or rolls back (ErrTxDone).
func (tx *Tx) Prepare(q core.String) (*Stmt, error) {
	return prepareStmt(tx.db, tx, q)
}

// PrepareRaw is Prepare for untracked query text.
func (tx *Tx) PrepareRaw(q string) (*Stmt, error) { return tx.Prepare(core.NewString(q)) }
