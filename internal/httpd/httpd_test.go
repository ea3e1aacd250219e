package httpd

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/vfs"
)

type denyHTTPPolicy struct {
	AllowUser string `json:"allow_user"`
}

func (p *denyHTTPPolicy) ExportCheck(ctx *core.Context) error {
	if u, _ := ctx.GetString("user"); u == p.AllowUser {
		return nil
	}
	return errors.New("not allowed")
}

func init() {
	core.RegisterPolicyClass("httpdtest.DenyHTTPPolicy", &denyHTTPPolicy{})
}

func TestRequestParamsAreTainted(t *testing.T) {
	s := NewServer(core.NewRuntime())
	var got core.String
	s.Handle("/echo", func(req *Request, resp *Response) error {
		got = req.Param("q")
		return resp.Write(sanitize.HTMLEscape(got))
	})
	resp, err := s.Do("GET", "/echo", map[string]string{"q": "<b>hi</b>"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasPolicyEverywhere(sanitize.IsUntrusted) {
		t.Error("parameters must be tainted on entry")
	}
	if resp.RawBody() != "&lt;b&gt;hi&lt;/b&gt;" {
		t.Errorf("body = %q", resp.RawBody())
	}
	if got.Raw() != "<b>hi</b>" || resp.Status != 200 {
		t.Errorf("raw=%q status=%d", got.Raw(), resp.Status)
	}
}

func TestRequestParamHelpers(t *testing.T) {
	s := NewServer(core.NewRuntime())
	s.Handle("/h", func(req *Request, resp *Response) error {
		if !req.HasParam("a") || req.HasParam("zz") {
			t.Error("HasParam wrong")
		}
		if req.ParamRaw("a") != "1" {
			t.Error("ParamRaw wrong")
		}
		names := req.ParamNames()
		if len(names) != 2 || names[0] != "a" || names[1] != "b" {
			t.Errorf("names = %v", names)
		}
		if !req.Param("missing").IsEmpty() {
			t.Error("missing param should be empty")
		}
		return nil
	})
	if _, err := s.Do("GET", "/h", map[string]string{"a": "1", "b": "2"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUntrackedRuntimeDoesNotTaint(t *testing.T) {
	s := NewServer(core.NewUntrackedRuntime())
	s.Handle("/e", func(req *Request, resp *Response) error {
		if req.Param("q").IsTainted() {
			t.Error("untracked runtime must not taint")
		}
		return nil
	})
	if _, err := s.Do("GET", "/e", map[string]string{"q": "x"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotFound(t *testing.T) {
	s := NewServer(core.NewRuntime())
	resp, err := s.Do("GET", "/nope", nil, nil)
	if !errors.Is(err, ErrNotFound) || resp.Status != 404 {
		t.Errorf("err=%v status=%d", err, resp.Status)
	}
}

func TestSessionContextReachesPolicies(t *testing.T) {
	s := NewServer(core.NewRuntime())
	p := &denyHTTPPolicy{AllowUser: "alice"}
	secret := core.NewStringPolicy("classified", p)
	s.Handle("/page", func(req *Request, resp *Response) error {
		return resp.Write(secret)
	})
	alice := s.NewSession("alice")
	mallory := s.NewSession("mallory")
	if _, err := s.Do("GET", "/page", nil, alice); err != nil {
		t.Fatalf("alice should pass: %v", err)
	}
	resp, err := s.Do("GET", "/page", nil, mallory)
	if err == nil {
		t.Fatal("mallory must be vetoed")
	}
	if strings.Contains(resp.RawBody(), "classified") {
		t.Error("vetoed content leaked into body")
	}
}

func TestSessionStore(t *testing.T) {
	s := NewServer(core.NewRuntime())
	sess := s.NewSession("u")
	if sess.ID == "" || sess.User != "u" {
		t.Errorf("session = %+v", sess)
	}
	sess.Set("k", 42)
	v, ok := sess.Get("k")
	if !ok || v.(int) != 42 {
		t.Error("session kv wrong")
	}
	if _, ok := sess.Get("missing"); ok {
		t.Error("missing key reported present")
	}
	s2 := s.NewSession("u2")
	if s2.ID == sess.ID {
		t.Error("session IDs must be unique")
	}
}

func TestResponseSplittingBlocked(t *testing.T) {
	s := NewServer(core.NewRuntime())
	s.Handle("/redir", func(req *Request, resp *Response) error {
		return resp.SetHeader("Location", core.Concat(core.NewString("/home?u="), req.Param("u")))
	})
	// Benign redirect passes.
	resp, err := s.Do("GET", "/redir", map[string]string{"u": "alice"}, nil)
	if err != nil {
		t.Fatalf("benign: %v", err)
	}
	if resp.Header("Location") != "/home?u=alice" {
		t.Errorf("header = %q", resp.Header("Location"))
	}
	// CRLF injection via the parameter is blocked.
	if _, err := s.Do("GET", "/redir", map[string]string{"u": "x\r\nSet-Cookie: evil"}, nil); err == nil {
		t.Fatal("splitting must be blocked")
	}
}

func TestOutputBufferingOnResponse(t *testing.T) {
	s := NewServer(core.NewRuntime())
	p := &denyHTTPPolicy{AllowUser: "nobody"}
	authors := core.NewStringPolicy("Alice, Bob", p)
	s.Handle("/paper", func(req *Request, resp *Response) error {
		resp.WriteRaw("<h1>Paper</h1>")
		ch := resp.Channel()
		ch.BeginBuffer()
		if err := resp.Write(authors); err != nil {
			ch.DiscardBuffer()
			resp.WriteRaw("Anonymous")
		} else {
			ch.ReleaseBuffer()
		}
		return nil
	})
	resp, err := s.Do("GET", "/paper", nil, s.NewSession("pc-member"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RawBody() != "<h1>Paper</h1>Anonymous" {
		t.Errorf("body = %q", resp.RawBody())
	}
}

func TestStaticServingHonoursPersistentPolicies(t *testing.T) {
	rt := core.NewRuntime()
	fs := vfs.New(rt)
	fs.MkdirAll("/www", nil)
	// A password accidentally written into a world-readable file in the
	// docroot (the myPHPscripts bug shape).
	pw := core.NewStringPolicy("s3cret", &denyHTTPPolicy{AllowUser: "owner-only"})
	if err := fs.WriteFile("/www/passwords.txt", pw, nil); err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("/www/index.html", core.NewString("<h1>hello</h1>"), nil)

	s := NewServer(rt)
	s.ServeStatic(fs, "/www")

	// Plain file is served.
	resp, err := s.Do("GET", "/index.html", nil, nil)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	if resp.RawBody() != "<h1>hello</h1>" {
		t.Errorf("index body = %q", resp.RawBody())
	}
	// The password file is blocked by its restored policy.
	resp, err = s.Do("GET", "/passwords.txt", nil, nil)
	if err == nil {
		t.Fatal("password file must be blocked")
	}
	if strings.Contains(resp.RawBody(), "s3cret") {
		t.Error("password leaked")
	}
	if _, ok := core.IsAssertionError(err); !ok {
		t.Errorf("want AssertionError, got %v", err)
	}
}

func TestStaticServingTraversalConfined(t *testing.T) {
	rt := core.NewRuntime()
	fs := vfs.New(rt)
	fs.MkdirAll("/www", nil)
	fs.WriteFile("/secret.txt", core.NewString("outside"), nil)
	s := NewServer(rt)
	s.ServeStatic(fs, "/www")
	resp, err := s.Do("GET", "/../secret.txt", nil, nil)
	if !errors.Is(err, ErrNotFound) || resp.Status != 404 {
		t.Errorf("traversal out of docroot must 404: err=%v status=%d body=%q", err, resp.Status, resp.RawBody())
	}
}

func TestStaticMissingAndDir(t *testing.T) {
	rt := core.NewRuntime()
	fs := vfs.New(rt)
	fs.MkdirAll("/www/sub", nil)
	s := NewServer(rt)
	s.ServeStatic(fs, "/www")
	if _, err := s.Do("GET", "/missing.txt", nil, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
	if _, err := s.Do("GET", "/sub", nil, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("dir: %v", err)
	}
	if _, err := s.Do("POST", "/missing", nil, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("POST does not hit static: %v", err)
	}
}

func TestXSSStrategy1(t *testing.T) {
	s := NewServer(core.NewRuntime())
	s.AddBodyFilter(&XSSFilter{RequireSanitizedMarkers: true})
	s.Handle("/unsafe", func(req *Request, resp *Response) error {
		return resp.Write(core.Concat(core.NewString("<p>"), req.Param("q"), core.NewString("</p>")))
	})
	s.Handle("/safe", func(req *Request, resp *Response) error {
		return resp.Write(core.Concat(core.NewString("<p>"), sanitize.HTMLEscape(req.Param("q")), core.NewString("</p>")))
	})
	if _, err := s.Do("GET", "/unsafe", map[string]string{"q": "<script>evil()</script>"}, nil); err == nil {
		t.Fatal("unsanitized output must be rejected")
	}
	resp, err := s.Do("GET", "/safe", map[string]string{"q": "<script>evil()</script>"}, nil)
	if err != nil {
		t.Fatalf("sanitized output rejected: %v", err)
	}
	if strings.Contains(resp.RawBody(), "<script>") {
		t.Error("escaped output still contains raw script tag")
	}
}

func TestXSSStrategy2(t *testing.T) {
	s := NewServer(core.NewRuntime())
	s.AddBodyFilter(&XSSFilter{RejectTaintedStructure: true})
	s.Handle("/p", func(req *Request, resp *Response) error {
		return resp.Write(core.Concat(core.NewString("<p>"), req.Param("q"), core.NewString("</p>")))
	})
	s.Handle("/js", func(req *Request, resp *Response) error {
		return resp.Write(core.Concat(
			core.NewString("<script>var q='"), req.Param("q"), core.NewString("';</script>")))
	})
	// Tainted plain text in an element: allowed by strategy 2.
	resp, err := s.Do("GET", "/p", map[string]string{"q": "just text"}, nil)
	if err != nil {
		t.Fatalf("plain text rejected: %v", err)
	}
	if resp.RawBody() != "<p>just text</p>" {
		t.Errorf("body = %q", resp.RawBody())
	}
	// Tainted tag injection: rejected.
	if _, err := s.Do("GET", "/p", map[string]string{"q": "<img src=x onerror=evil()>"}, nil); err == nil {
		t.Fatal("tainted tag must be rejected")
	}
	// Any tainted byte inside a script element: rejected.
	if _, err := s.Do("GET", "/js", map[string]string{"q": "x';evil();//"}, nil); err == nil {
		t.Fatal("tainted script content must be rejected")
	}
}

func TestScanTaintedHTMLStructureEdges(t *testing.T) {
	// Untainted script content is fine.
	ok := core.NewString("<script>var x = 1;</script><p>text</p>")
	if err := scanTaintedHTMLStructure(ok); err != nil {
		t.Errorf("untainted page rejected: %v", err)
	}
	// Unclosed script tag consumes to the end without panicking.
	page := core.Concat(core.NewString("<script"), core.NewString(" nothing"))
	if err := scanTaintedHTMLStructure(page); err != nil {
		t.Errorf("unclosed script: %v", err)
	}
	// Case-insensitive script detection.
	evil := core.Concat(core.NewString("<SCRIPT>"), sanitize.Taint(core.NewString("evil()"), "q"), core.NewString("</SCRIPT>"))
	if err := scanTaintedHTMLStructure(evil); err == nil {
		t.Error("uppercase script must still be scanned")
	}
	// Tainted '>' in text position.
	gt := sanitize.Taint(core.NewString(">"), "q")
	if err := scanTaintedHTMLStructure(gt); err == nil {
		t.Error("tainted '>' must be rejected")
	}
	// Tainted delimiter inside a tag.
	attr := core.Concat(core.NewString("<a href="), sanitize.Taint(core.NewString("x>"), "q"))
	if err := scanTaintedHTMLStructure(attr); err == nil {
		t.Error("tainted '>' inside tag must be rejected")
	}
}

func TestAddBodyFilterAppliesToNewResponsesOnly(t *testing.T) {
	s := NewServer(core.NewRuntime())
	s.Handle("/w", func(req *Request, resp *Response) error {
		return resp.Write(sanitize.Taint(core.NewString("<x>"), "q"))
	})
	if _, err := s.Do("GET", "/w", nil, nil); err != nil {
		t.Fatalf("no filter yet: %v", err)
	}
	s.AddBodyFilter(&XSSFilter{RejectTaintedStructure: true})
	if _, err := s.Do("GET", "/w", nil, nil); err == nil {
		t.Fatal("filter must apply to subsequent responses")
	}
}

// TestTaintFilterNameChurn: requests carrying 3× maxTaintFilters
// distinct parameter names keep the filter cache bounded, leave a
// parameter that every request carries on its one filter, and move the
// intern table by at most one entry per new name and at most one
// rotation.
func TestTaintFilterNameChurn(t *testing.T) {
	s := NewServer(core.NewRuntime())
	s.Handle("/p", func(req *Request, resp *Response) error { return nil })
	hot := s.taintFilter("q")
	before := core.ReadInternStats()
	const names = 3 * maxTaintFilters
	for i := 0; i < names; i++ {
		params := map[string]string{"q": "x", fmt.Sprintf("churn%d", i): "y"}
		if _, err := s.Do("GET", "/p", params, nil); err != nil {
			t.Fatal(err)
		}
	}
	after := core.ReadInternStats()
	if n := s.taintFilters.Len(); n > maxTaintFilters {
		t.Errorf("taint filter cache holds %d filters, cap %d", n, maxTaintFilters)
	}
	if s.taintFilter("q") != hot {
		t.Error("a parameter on every request lost its filter to churned names")
	}
	if misses := after.SetMisses - before.SetMisses; misses > names {
		t.Errorf("%d new names interned %d sets, want at most one each", names, misses)
	}
	if flushes := after.Flushes - before.Flushes; flushes > 1 {
		t.Errorf("%d new names rotated the intern table %d times, want at most 1", names, flushes)
	}
}

// TestAddBodyFilterKeepsExistingResponseChain: the body chain is shared
// copy-on-write, so a filter added while a response exists reaches only
// the responses built after it.
func TestAddBodyFilterKeepsExistingResponseChain(t *testing.T) {
	s := NewServer(core.NewRuntime())
	var chains []int
	s.Handle("/w", func(req *Request, resp *Response) error {
		s.AddBodyFilter(&XSSFilter{RejectTaintedStructure: true})
		chains = append(chains, len(resp.Channel().Filters()))
		return resp.Write(sanitize.Taint(core.NewString("<x>"), "q"))
	})
	if _, err := s.Do("GET", "/w", nil, nil); err != nil {
		t.Fatalf("filter added mid-response reached that response: %v", err)
	}
	if _, err := s.Do("GET", "/w", nil, nil); err == nil {
		t.Fatal("filter must apply to the next response")
	}
	if len(chains) != 2 || chains[0] != 1 || chains[1] != 2 {
		t.Errorf("body chain lengths %v, want [1 2]", chains)
	}
}

// TestLazyHeaderChannel: the header channel built on the first
// SetHeader rejects tainted CR/LF on that call and on later ones, and
// carries the session's user like the body channel does.
func TestLazyHeaderChannel(t *testing.T) {
	s := NewServer(core.NewRuntime())
	evil := map[string]string{"u": "x\r\nSet-Cookie: evil"}
	s.Handle("/first", func(req *Request, resp *Response) error {
		return resp.SetHeader("Location", req.Param("u"))
	})
	if _, err := s.Do("GET", "/first", evil, nil); err == nil {
		t.Fatal("tainted CR/LF on the first SetHeader must be rejected")
	}
	s.Handle("/later", func(req *Request, resp *Response) error {
		if err := resp.SetHeader("X-Ok", core.NewString("fine")); err != nil {
			return err
		}
		if resp.Header("X-Ok") != "fine" {
			t.Errorf("X-Ok = %q", resp.Header("X-Ok"))
		}
		return resp.SetHeader("Location", req.Param("u"))
	})
	if _, err := s.Do("GET", "/later", evil, nil); err == nil {
		t.Fatal("tainted CR/LF on a later SetHeader must be rejected")
	}
	secret := core.NewStringPolicy("v", &denyHTTPPolicy{AllowUser: "alice"})
	s.Handle("/user", func(req *Request, resp *Response) error {
		return resp.SetHeader("X-Secret", secret)
	})
	if _, err := s.Do("GET", "/user", nil, s.NewSession("alice")); err != nil {
		t.Errorf("header channel lost the session user: %v", err)
	}
	if _, err := s.Do("GET", "/user", nil, s.NewSession("mallory")); err == nil {
		t.Error("header channel let another user's data out")
	}
}
