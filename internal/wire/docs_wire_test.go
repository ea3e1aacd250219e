package wire

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
)

// wiretripBlock extracts the worked-example block of docs/WIRE.md §7:
// the INSERT, the SELECT, and the pinned annotation line.
func wiretripBlock(t *testing.T) (insert, query, annotation string) {
	t.Helper()
	data, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatalf("docs/WIRE.md must exist: %v", err)
	}
	text := string(data)
	start := strings.Index(text, "<!-- wiretrip:begin -->")
	end := strings.Index(text, "<!-- wiretrip:end -->")
	if start < 0 || end < 0 || end < start {
		t.Fatal("docs/WIRE.md lost its wiretrip:begin/end markers")
	}
	var stmts []string
	for _, line := range strings.Split(text[start:end], "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "```") ||
			strings.HasPrefix(line, "--") || strings.HasPrefix(line, "<!--") {
			continue
		}
		stmts = append(stmts, line)
	}
	if len(stmts) != 3 {
		t.Fatalf("wiretrip block must pin INSERT, SELECT, and annotation; got %d lines", len(stmts))
	}
	return stmts[0], stmts[1], stmts[2]
}

// TestWireDocWorkedExample executes docs/WIRE.md §7 against a real
// server over TCP: the documented INSERT with the documented tracked
// value, the documented SELECT, and the pinned annotation — which must
// also equal the in-process read's, byte for byte.
func TestWireDocWorkedExample(t *testing.T) {
	insert, query, wantAnn := wiretripBlock(t)

	rt := core.NewRuntime()
	db := sqldb.Open(rt)
	db.MustExec("CREATE TABLE notes (id INT, body TEXT)")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db, Config{})
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	// The tracked value exactly as the doc's comment describes it.
	body := sanitize.Taint(core.NewString("hello <b>resin</b>"), "form:body")
	if _, err := c.QueryRaw(insert, body); err != nil {
		t.Fatalf("documented INSERT: %v", err)
	}

	overWire, err := c.QueryRaw(query)
	if err != nil {
		t.Fatalf("documented SELECT: %v", err)
	}
	if overWire.Len() != 1 {
		t.Fatalf("rows: %d", overWire.Len())
	}
	gotAnn, err := core.EncodeSpans(overWire.Get(0, "body").Str)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotAnn) != wantAnn {
		t.Errorf("wire annotation drifted from docs/WIRE.md §7:\n  got %s\n  doc %s", gotAnn, wantAnn)
	}

	inProc, err := db.QueryRaw(query)
	if err != nil {
		t.Fatal(err)
	}
	localAnn, err := core.EncodeSpans(inProc.Get(0, "body").Str)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotAnn) != string(localAnn) {
		t.Errorf("wire annotation %s != in-process %s", gotAnn, localAnn)
	}
}

// TestWireDocPinsFrameBound keeps the documented 64 MiB bound honest.
func TestWireDocPinsFrameBound(t *testing.T) {
	data, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatalf("docs/WIRE.md must exist: %v", err)
	}
	if !strings.Contains(string(data), "`MaxFrame = sqldb.WALMaxRecord` (64 MiB)") {
		t.Fatal("docs/WIRE.md no longer documents MaxFrame = sqldb.WALMaxRecord (64 MiB)")
	}
	if MaxFrame != 64<<20 {
		t.Fatalf("MaxFrame is %d, docs say 64 MiB — update docs/WIRE.md §2", MaxFrame)
	}
}

// TestWireDocListsEveryMessage: docs/WIRE.md §2's message table names
// exactly proto.go's msg* constants, each with its tag.
func TestWireDocListsEveryMessage(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	code := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "msg") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				tag, err := strconv.Unquote(lit.Value)
				if !ok || lit.Kind != token.CHAR || err != nil {
					t.Fatalf("%s is not a character constant", name.Name)
				}
				code[name.Name] = tag
			}
		}
	}

	data, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatalf("docs/WIRE.md must exist: %v", err)
	}
	text := string(data)
	start, end := strings.Index(text, "## §2"), strings.Index(text, "## §3")
	if start < 0 || end < start {
		t.Fatal("docs/WIRE.md lost its §2 or §3 heading")
	}
	doc := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(.)` \\| `(msg\\w+)` \\|").FindAllStringSubmatch(text[start:end], -1) {
		if _, dup := doc[m[2]]; dup {
			t.Errorf("§2 lists %s twice", m[2])
		}
		doc[m[2]] = m[1]
	}
	if len(code) == 0 {
		t.Fatal("no msg* constants in proto.go")
	}
	for name, tag := range code {
		if doc[name] != tag {
			t.Errorf("proto.go's %s is %q; docs/WIRE.md §2 lists it as %q", name, tag, doc[name])
		}
	}
	for name := range doc {
		if _, ok := code[name]; !ok {
			t.Errorf("docs/WIRE.md §2 lists %s, which proto.go does not define", name)
		}
	}
}
