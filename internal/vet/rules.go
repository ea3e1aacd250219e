package vet

import (
	"fmt"
	"go/ast"
	"strconv"
	"strings"
)

// textSinkMethods are methods that accept dialect text to tokenize and
// parse; their first argument must be provably constant.
var textSinkMethods = map[string]bool{
	"Query":       true,
	"QueryRaw":    true,
	"Exec":        true,
	"MustExec":    true,
	"Prepare":     true,
	"PrepareRaw":  true,
	"MustPrepare": true,
}

// textSinkRecv are receiver types whose textSinkMethods parse dialect
// text.
var textSinkRecv = map[string]bool{
	"sqldb.DB":   true,
	"sqldb.Tx":   true,
	"sqldb.View": true,
	"wire.Conn":  true,
}

// preparedRecv are receiver types whose Query/Exec bind values into an
// already-parsed statement; calls on them always pass the sql-concat
// rule.
var preparedRecv = map[string]bool{
	"sqldb.Stmt": true,
	"wire.Stmt":  true,
}

// coreAllow is the public boundary API of internal/core: value
// constructors, policy/context/runtime surface, and error predicates.
// Channel minting, filter-chain replacement, and intern internals are
// deliberately absent — an app reaching for them is bypassing the
// boundary the other rules assume.
var coreAllow = map[string]bool{
	// tracked values
	"String": true, "NewString": true, "NewStringPolicy": true,
	"Format": true, "Concat": true, "Builder": true,
	// policies and contexts
	"Policy": true, "PolicySet": true, "Context": true, "NewContext": true,
	"RegisterPolicyClass": true, "RegisterFilterClass": true,
	// runtimes
	"Runtime": true, "NewRuntime": true, "NewUntrackedRuntime": true,
	// channel kinds (for filter declarations) and the channel type
	// itself — constructing one (NewChannel) is not allowed.
	"Channel": true, "KindHTTP": true, "KindFile": true, "KindEmail": true,
	// error predicates
	"IsAssertionError": true,
	// the module's one bounded table, for an app's own memos: it holds
	// what the app puts in and reaches no channel, filter or policy set
	"Cache": true, "NewCache": true,
}

// importAllow is the set of resin/internal packages an application
// package may import: the boundary surface plus the libraries that sit
// on it.
var importAllow = map[string]bool{
	"core": true, "httpd": true, "sqldb": true, "sanitize": true,
	"script": true, "vfs": true, "whois": true, "mail": true,
}

const modulePrefix = "resin/"

// scanFile applies every rule to one parsed file.
func (p *pkg) scanFile(f *ast.File, rel string) []Finding {
	fileIdx := -1
	for i, r := range p.fileRel {
		if r == rel {
			fileIdx = i
			break
		}
	}
	var findings []Finding

	// Rule core-boundary, import half: the only module-internal imports
	// allowed are the boundary packages.
	imports := make(map[string]bool) // local name → is a package ident
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = true
		if strings.HasPrefix(path, modulePrefix) && !importAllow[strings.TrimPrefix(path, modulePrefix+"internal/")] {
			findings = append(findings, p.report(fileIdx, imp.Pos(), RuleCoreBoundary,
				fmt.Sprintf("import %q is outside the application boundary allowlist", path)))
		}
	}

	isPkgIdent := func(sc *scope, e ast.Expr) (string, bool) {
		id, ok := e.(*ast.Ident)
		if !ok || !imports[id.Name] || sc.vars[id.Name] != "" {
			return "", false
		}
		return id.Name, true
	}

	scan := func(sc *scope, n ast.Node) {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			// Rule core-boundary, selector half.
			if name, ok := isPkgIdent(sc, x.X); ok && name == "core" && !coreAllow[x.Sel.Name] {
				findings = append(findings, p.report(fileIdx, x.Pos(), RuleCoreBoundary,
					fmt.Sprintf("core.%s is outside the public boundary API", x.Sel.Name)))
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			method := sel.Sel.Name
			if _, pkgCall := isPkgIdent(sc, sel.X); pkgCall {
				return // package-level function, not a method sink
			}
			recv := sc.typeOf(sel.X)
			switch {
			case textSinkRecv[recv] && textSinkMethods[method]:
				if len(x.Args) > 0 && !sc.constExpr(x.Args[0], 0) {
					findings = append(findings, p.report(fileIdx, x.Pos(), RuleSQLConcat,
						fmt.Sprintf("%s.%s called with non-constant dialect text; bind through a prepared statement or pass a constant query", recv, method)))
				}
			case preparedRecv[recv]:
				// Prepared-statement execution: text was parsed once at
				// Prepare time; arguments bind structurally.
			case (recv == "httpd.Response" || recv == "core.Channel") && method == "WriteRaw":
				if len(x.Args) > 0 && !sc.displaySafe(x.Args[0], 0) {
					findings = append(findings, p.report(fileIdx, x.Pos(), RuleRawOutput,
						"WriteRaw argument is not provably display-safe; route it through Write so the channel filter chain can inspect it"))
				}
			case recv == "" && (textSinkMethods[method] || method == "WriteRaw"):
				findings = append(findings, p.report(fileIdx, x.Pos(), RuleUnresolved,
					fmt.Sprintf("cannot type the receiver of sink-shaped call .%s; unanalyzable code is a finding, not a pass", method)))
			}
		}
	}

	emptyScope := &scope{pkg: p, vars: map[string]string{}, assigns: map[string][]ast.Expr{}}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			sc := p.newScope(fn)
			ast.Inspect(fn, func(n ast.Node) bool { scan(sc, n); return true })
			continue
		}
		ast.Inspect(d, func(n ast.Node) bool { scan(emptyScope, n); return true })
	}
	return findings
}
