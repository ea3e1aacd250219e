// Package wiki re-implements the MoinMoin slice the RESIN paper evaluates:
// wiki pages with per-page read/write ACLs, stored as a directory of
// revision files (§5.1). It contains the two previously-known missing
// read-access-control bugs of Table 4 — the include-directive path
// (CVE-2008-6548) and a raw-export path — plus the Figure 5 read assertion
// (8 LoC in the paper) and the §5.1 write assertion (15 LoC).
package wiki

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"

	"resin/internal/core"
	"resin/internal/httpd"
	"resin/internal/sanitize"
	"resin/internal/vfs"
)

// ACL is a page's access control list.
type ACL struct {
	Read  []string `json:"read"`
	Write []string `json:"write"`
}

// May reports whether user may perform op ("read" or "write"). The
// wildcard entry "*" grants everyone.
func (a ACL) May(user, op string) bool {
	var list []string
	if op == "read" {
		list = a.Read
	} else {
		list = a.Write
	}
	for _, u := range list {
		if u == "*" || u == user {
			return true
		}
	}
	return false
}

const pagesRoot = "/wiki/pages"

// App is one wiki instance.
type App struct {
	RT     *core.Runtime
	FS     *vfs.FS
	Server *httpd.Server

	assertions bool
}

// New builds a wiki over rt with the request handlers registered. With
// withAssertions set, pages saved from then on carry PagePolicy objects
// and page directories get persistent write filters.
func New(rt *core.Runtime, withAssertions bool) *App {
	return NewWithFS(rt, vfs.New(rt), withAssertions)
}

// NewWithFS builds a wiki over an existing filesystem — a "restart" of
// the wiki process: pages, their persisted PagePolicy annotations, and
// their persistent write filters are all already on disk and keep being
// enforced by the fresh instance.
func NewWithFS(rt *core.Runtime, fs *vfs.FS, withAssertions bool) *App {
	a := &App{
		RT:         rt,
		FS:         fs,
		Server:     httpd.NewServer(rt),
		assertions: withAssertions,
	}
	if err := a.FS.MkdirAll(pagesRoot, nil); err != nil {
		panic(err)
	}
	a.Server.Handle("/view", a.handleView)
	a.Server.Handle("/raw", a.handleRaw)
	a.Server.Handle("/edit", a.handleEdit)
	return a
}

func pageDir(name string) string { return pagesRoot + "/" + name }

// CreatePage creates a page with an ACL and initial body.
func (a *App) CreatePage(name string, acl ACL, body string, author string) error {
	dir := pageDir(name)
	if err := a.FS.MkdirAll(dir, nil); err != nil {
		return err
	}
	aclJSON, err := json.Marshal(acl)
	if err != nil {
		return err
	}
	if err := a.FS.SetXattr(dir, "user.wiki.acl", aclJSON); err != nil {
		return err
	}
	if a.assertions {
		// The write assertion (§5.1): a persistent filter on the page
		// directory restricts creating/removing revision files, and each
		// revision file gets it when created, restricting modification.
		if err := a.FS.SetPersistentFilter(dir, &PageWriteFilter{ACL: acl.Write}); err != nil {
			return err
		}
	}
	return a.updateBody(name, core.NewString(body), author)
}

// PageACL reads a page's ACL.
func (a *App) PageACL(name string) (ACL, error) {
	raw, err := a.FS.GetXattr(pageDir(name), "user.wiki.acl")
	if err != nil {
		return ACL{}, fmt.Errorf("wiki: no ACL for page %q: %w", name, err)
	}
	var acl ACL
	if err := json.Unmarshal(raw, &acl); err != nil {
		return ACL{}, err
	}
	return acl, nil
}

// updateBody is Figure 5's update_body: it attaches a PagePolicy (carrying
// a copy of the read ACL) to the page text and writes it as a new revision
// file; the default file filter persists the policy in the file's extended
// attributes.
func (a *App) updateBody(name string, text core.String, author string) error {
	dir := pageDir(name)
	if a.assertions {
		acl, err := a.PageACL(name)
		if err != nil {
			return err
		}
		text = a.RT.PolicyAdd(text, &PagePolicy{ACL: acl.Read})
	}
	revs, err := a.FS.List(dir)
	if err != nil {
		return err
	}
	n := 0
	for _, r := range revs {
		if strings.HasPrefix(r, "rev") {
			n++
		}
	}
	ctx := core.NewContext(core.KindFile)
	ctx.Set("user", author)
	path := fmt.Sprintf("%s/rev%05d", dir, n+1)
	return a.FS.WriteFile(path, text, ctx)
}

// latestBody reads the newest revision of a page — with tracking on, the
// persisted PagePolicy comes back attached.
func (a *App) latestBody(name string) (core.String, error) {
	dir := pageDir(name)
	revs, err := a.FS.List(dir)
	if err != nil {
		return core.String{}, err
	}
	last := ""
	for _, r := range revs {
		if strings.HasPrefix(r, "rev") && r > last {
			last = r
		}
	}
	if last == "" {
		return core.String{}, fmt.Errorf("wiki: page %q has no revisions", name)
	}
	return a.FS.ReadFile(dir+"/"+last, nil)
}

var includeRe = regexp.MustCompile(`\{\{include:([A-Za-z0-9_-]+)\}\}`)

// render expands {{include:Page}} directives. This is the CVE-2008-6548
// shape: the included page's content is fetched WITHOUT checking its ACL.
// (With assertions on, the included content still carries its PagePolicy,
// so the HTTP boundary catches the leak no matter how the data got there.)
func (a *App) render(body core.String) core.String {
	var out core.Builder
	raw := body.Raw()
	pos := 0
	for _, m := range includeRe.FindAllStringSubmatchIndex(raw, -1) {
		out.Append(body.Slice(pos, m[0]))
		inc, err := a.latestBody(raw[m[2]:m[3]])
		if err == nil {
			out.Append(inc) // missing ACL check — the bug
		} else {
			out.AppendRaw("[missing page]")
		}
		pos = m[1]
	}
	out.Append(body.Slice(pos, body.Len()))
	return out.String()
}

// annotate sets the channel context of Figure 5's process_client: the
// authenticated user.
func annotate(req *httpd.Request, resp *httpd.Response) string {
	user := ""
	if req.Session != nil {
		user = req.Session.User
	}
	resp.Channel().Context().Set("user", user)
	return user
}

// handleView renders a page. The direct ACL check is present and correct;
// the include path inside render is the vulnerable flow.
func (a *App) handleView(req *httpd.Request, resp *httpd.Response) error {
	user := annotate(req, resp)
	name := req.ParamRaw("page")
	acl, err := a.PageACL(name)
	if err != nil {
		resp.Status = 404
		return err
	}
	if !acl.May(user, "read") {
		resp.Status = 403
		return fmt.Errorf("wiki: %s may not read %s", user, name)
	}
	body, err := a.latestBody(name)
	if err != nil {
		return err
	}
	if werr := resp.Write(core.Format("<html><body><h1>%s</h1>\n<pre>", sanitize.HTMLEscape(req.Param("page")))); werr != nil {
		return werr
	}
	if werr := resp.Write(sanitize.HTMLEscape(a.render(body))); werr != nil {
		return werr
	}
	resp.WriteRaw("</pre></body></html>")
	return nil
}

// handleRaw is the second missing-check bug: a raw-export action that
// forgets the ACL check entirely.
func (a *App) handleRaw(req *httpd.Request, resp *httpd.Response) error {
	annotate(req, resp)
	name := req.ParamRaw("page")
	body, err := a.latestBody(name)
	if err != nil {
		resp.Status = 404
		return err
	}
	return resp.Write(body) // no ACL check — the bug
}

// handleEdit saves a new revision; the write ACL check here is correct.
func (a *App) handleEdit(req *httpd.Request, resp *httpd.Response) error {
	user := annotate(req, resp)
	name := req.ParamRaw("page")
	acl, err := a.PageACL(name)
	if err != nil {
		resp.Status = 404
		return err
	}
	if !acl.May(user, "write") {
		resp.Status = 403
		return fmt.Errorf("wiki: %s may not write %s", user, name)
	}
	if err := a.updateBody(name, req.Param("body"), user); err != nil {
		return err
	}
	return resp.WriteRaw("saved")
}
