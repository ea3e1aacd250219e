package core_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// allowedImports is the architecture guard's table: for each guarded
// package (a directory relative to this one), the packages of this
// module its non-test files may import. The standard library is always
// allowed; anything else — another module, or a package of this module
// missing from the row — fails the test. See docs/ARCHITECTURE.md.
var allowedImports = []struct {
	pkg     string
	dir     string
	allowed []string
	why     string
}{
	{
		pkg: "internal/core", dir: ".",
		why: "policy objects, data tracking, filter objects and interning are the runtime layer: " +
			"boundary adapters (httpd, sqldb, mail, vfs, remote) depend on it, never the other way around",
	},
	{
		pkg: "internal/sqldb", dir: "../sqldb",
		allowed: []string{"resin/internal/core", "resin/internal/sanitize"},
		why: "the query route (compile, assert, bind, execute) must stay reachable without wire, lineage or an app: " +
			"an assertion that holds on the route holds for every caller layered above it",
	},
	{
		pkg: "internal/lineage", dir: "../lineage",
		allowed: []string{"resin/internal/core"},
		why: "the flow monitor is reached only through core's hooks and gate: " +
			"it observes every boundary adapter, so it may depend on none of them",
	},
	{
		pkg: "internal/httpd", dir: "../httpd",
		allowed: []string{"resin/internal/core", "resin/internal/sanitize", "resin/internal/vfs", "resin/internal/lineage"},
		why: "the HTTP boundary taints input, filters output, serves static files through vfs and lineage's /audit: " +
			"it must not reach into the SQL engine or the wire protocol",
	},
	{
		pkg: "internal/wire", dir: "../wire",
		allowed: []string{"resin/internal/core", "resin/internal/sqldb"},
		why: "the wire protocol carries sqldb's query route and core's policy encoding over TCP and nothing else: " +
			"what is asserted in-process is what is asserted over the socket",
	},
	{
		pkg: "internal/remote", dir: "../remote",
		allowed: []string{"resin/internal/core"},
		why:     "cross-runtime links serialize policies through core alone",
	},
	{
		pkg: "internal/vfs", dir: "../vfs",
		allowed: []string{"resin/internal/core"},
		why:     "the file boundary persists policies and filters through core alone, so httpd's static path can sit above it",
	},
}

// TestAllowedImports checks every row of allowedImports. A stdlib import
// path has no dot in its first element ("encoding/json", "sync"); so
// does "resin", which is why module-internal imports are matched against
// the row explicitly.
func TestAllowedImports(t *testing.T) {
	for _, row := range allowedImports {
		t.Run(row.pkg, func(t *testing.T) {
			files, err := filepath.Glob(filepath.Join(row.dir, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no Go files in %s (%v)", row.dir, err)
			}
			allowed := make(map[string]bool, len(row.allowed))
			for _, p := range row.allowed {
				allowed[p] = true
			}
			fset := token.NewFileSet()
			for _, name := range files {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
				if err != nil {
					t.Errorf("parse %s: %v", name, err)
					continue
				}
				for _, imp := range f.Imports {
					path := strings.Trim(imp.Path.Value, `"`)
					first, _, _ := strings.Cut(path, "/")
					if allowed[path] || (first != "resin" && !strings.Contains(first, ".")) {
						continue
					}
					t.Errorf("%s imports %s: allowed are the standard library and %v — %s", name, path, row.allowed, row.why)
				}
			}
		})
	}
}
