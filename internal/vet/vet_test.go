package vet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a synthetic repo root: internal/apps/demo with the
// given file contents.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		p := filepath.Join(root, "internal", "apps", "demo", name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func scanDemo(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	fs, err := ScanApps(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func one(t *testing.T, fs []Finding, rule string) Finding {
	t.Helper()
	if len(fs) != 1 || fs[0].Rule != rule {
		t.Fatalf("findings = %+v, want exactly one %s", fs, rule)
	}
	return fs[0]
}

const demoHeader = `package demo

import (
	"resin/internal/core"
	"resin/internal/httpd"
	"resin/internal/sqldb"
)

type App struct {
	DB     *sqldb.DB
	Server *httpd.Server
	sel    *sqldb.Stmt
}
`

func TestSQLConcatFlagsNonConstantText(t *testing.T) {
	fs := scanDemo(t, map[string]string{"app.go": demoHeader + `
func (a *App) search(req *httpd.Request) {
	a.DB.QueryRaw("SELECT * FROM t WHERE name = '" + req.ParamRaw("name") + "'")
}
`})
	f := one(t, fs, RuleSQLConcat)
	if f.Line != 16 || f.Suppressed {
		t.Fatalf("finding = %+v", f)
	}
}

func TestSQLConcatFlagsTrackedDynamicText(t *testing.T) {
	// The checked text path (tracked core.String) is runtime-guarded but
	// still a static finding when the text is not provably constant.
	fs := scanDemo(t, map[string]string{"app.go": demoHeader + `
func (a *App) search(req *httpd.Request) {
	q := core.Concat(core.NewString("SELECT * FROM t WHERE name = '"), req.Param("name"), core.NewString("'"))
	a.DB.Query(q)
}
`})
	one(t, fs, RuleSQLConcat)
}

func TestSQLConstantAndPreparedPass(t *testing.T) {
	fs := scanDemo(t, map[string]string{"app.go": demoHeader + `
const listQuery = "SELECT * FROM t ORDER BY id"

func (a *App) init() {
	a.DB.MustExec("CREATE TABLE t (id INT, name TEXT)")
	a.sel = a.DB.MustPrepare("SELECT * FROM t WHERE id = ?")
}

func (a *App) read(req *httpd.Request) {
	a.sel.Query(req.Param("id"))
	a.DB.QueryRaw(listQuery)
	a.DB.Query(core.NewString("SELECT * FROM t WHERE id = ?"), req.Param("id"))
}
`})
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none", fs)
	}
}

func TestRawOutputFlagsUnprovenWrites(t *testing.T) {
	fs := scanDemo(t, map[string]string{"app.go": demoHeader + `
func (a *App) hello(req *httpd.Request, resp *httpd.Response) {
	resp.WriteRaw("hello " + req.ParamRaw("user"))
}
`})
	one(t, fs, RuleRawOutput)
}

func TestRawOutputAllowsProvablySafeWrites(t *testing.T) {
	fs := scanDemo(t, map[string]string{"app.go": `package demo

import (
	"strconv"

	"resin/internal/httpd"
	"resin/internal/sanitize"
)

func hello(req *httpd.Request, resp *httpd.Response) {
	resp.WriteRaw("<html><body>")
	resp.WriteRaw("count " + strconv.Itoa(7))
	resp.WriteRaw(sanitize.HTMLEscape(req.Param("user")).Raw())
	resp.Write(req.Param("user"))
}
`})
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none", fs)
	}
}

func TestCoreBoundaryFlagsNonBoundaryImportAndSelector(t *testing.T) {
	fs := scanDemo(t, map[string]string{"app.go": `package demo

import (
	"resin/internal/core"
	"resin/internal/lineage"
)

var memo = core.NewCache[string, bool](8, 0, 0) // allowed: a bounded table reaches no boundary

func bypass(ch *core.Channel) {
	lineage.Trace(nil)
	core.NewChannel(core.KindHTTP)
}
`})
	var rules []string
	for _, f := range fs {
		rules = append(rules, f.Rule)
	}
	if len(fs) != 2 || fs[0].Rule != RuleCoreBoundary || fs[1].Rule != RuleCoreBoundary {
		t.Fatalf("rules = %v, want two core-boundary findings", rules)
	}
	if !strings.Contains(fs[0].Detail, "resin/internal/lineage") {
		t.Errorf("import finding detail = %q", fs[0].Detail)
	}
	if !strings.Contains(fs[1].Detail, "core.NewChannel") {
		t.Errorf("selector finding detail = %q", fs[1].Detail)
	}
}

func TestUnresolvedReceiverIsAFindingNotAPass(t *testing.T) {
	fs := scanDemo(t, map[string]string{"app.go": `package demo

func sneak() {
	db := obtain()
	db.QueryRaw("SELECT * FROM t")
}
`})
	one(t, fs, RuleUnresolved)
}

func TestSuppressionCoversAndReports(t *testing.T) {
	fs := scanDemo(t, map[string]string{"app.go": demoHeader + `
func (a *App) search(req *httpd.Request) {
	//resin:vet-allow sql-concat deliberate demo bug
	a.DB.QueryRaw("SELECT * FROM t WHERE name = '" + req.ParamRaw("name") + "'")
}
`})
	f := one(t, fs, RuleSQLConcat)
	if !f.Suppressed || f.Reason != "deliberate demo bug" {
		t.Fatalf("finding = %+v, want suppressed with reason", f)
	}
}

func TestSuppressionWrongRuleDoesNotCover(t *testing.T) {
	fs := scanDemo(t, map[string]string{"app.go": demoHeader + `
func (a *App) search(req *httpd.Request) {
	//resin:vet-allow raw-output wrong rule
	a.DB.QueryRaw("SELECT * FROM t WHERE name = '" + req.ParamRaw("name") + "'")
}
`})
	// The sql-concat finding stays unsuppressed AND the vet-allow
	// comment itself is flagged as unused. Sorted by line, the comment
	// precedes the call.
	if len(fs) != 2 {
		t.Fatalf("findings = %+v, want unused-allow + sql-concat", fs)
	}
	if fs[0].Rule != RuleUnusedAllow {
		t.Fatalf("first = %+v", fs[0])
	}
	if fs[1].Rule != RuleSQLConcat || fs[1].Suppressed {
		t.Fatalf("second = %+v", fs[1])
	}
}

func TestUnusedSuppressionIsAFinding(t *testing.T) {
	fs := scanDemo(t, map[string]string{"app.go": `package demo

//resin:vet-allow sql-concat nothing here anymore
func fine() {}
`})
	one(t, fs, RuleUnusedAllow)
}

func TestFindingIDsAreStableAndSorted(t *testing.T) {
	fs := scanDemo(t, map[string]string{
		"b.go": demoHeader + `
func (a *App) two(req *httpd.Request) {
	a.DB.QueryRaw("SELECT * FROM t WHERE x = '" + req.ParamRaw("x") + "'")
}
`,
		"a.go": `package demo

import "resin/internal/lineage"

var _ = lineage.Trace
`,
	})
	if len(fs) != 2 {
		t.Fatalf("findings = %+v", fs)
	}
	if fs[0].File >= fs[1].File {
		t.Fatalf("not sorted: %s then %s", fs[0].File, fs[1].File)
	}
	want := findingID(fs[1].Rule, fs[1].File, fs[1].Line)
	if fs[1].ID != want {
		t.Fatalf("ID = %q, want %q", fs[1].ID, want)
	}
}

// TestRepoScanIsCleanWithDocumentedSuppressions is the acceptance
// criterion run as a test: scanning the real tree yields zero
// unsuppressed findings, and exactly the admissions app's three
// deliberate evaluation bugs as suppressed sql-concat findings.
func TestRepoScanIsCleanWithDocumentedSuppressions(t *testing.T) {
	fs, err := ScanApps("../..")
	if err != nil {
		t.Fatal(err)
	}
	var suppressed []Finding
	for _, f := range fs {
		if !f.Suppressed {
			t.Errorf("unsuppressed finding in tree: %s: %s", f.ID, f.Detail)
			continue
		}
		suppressed = append(suppressed, f)
	}
	if len(suppressed) != 3 {
		t.Fatalf("suppressed findings = %d, want the 3 admissions evaluation bugs", len(suppressed))
	}
	for _, f := range suppressed {
		if f.Rule != RuleSQLConcat || f.File != "internal/apps/admissions/app.go" {
			t.Errorf("unexpected suppression %s", f.ID)
		}
		if f.Reason == "" {
			t.Errorf("suppression %s has no reason", f.ID)
		}
	}
}
