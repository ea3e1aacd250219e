// Package filemgr re-implements the two web file managers the RESIN paper
// evaluates — File Thingie and PHP Navigator. Both confine each user's
// write access to a home directory, both have checking code in place, and
// both have a directory traversal bug that slips past it (Table 4: one
// newly discovered vulnerability each). The assertion is the §3.2.3 write
// access filter: persistent filter objects on the directories themselves,
// which hold no matter how the path was computed.
package filemgr

import (
	"fmt"
	"strings"

	"resin/internal/core"
	"resin/internal/httpd"
	"resin/internal/sanitize"
	"resin/internal/vfs"
)

const filesRoot = "/srv/files"

// Variant selects which of the two file managers to build; they share the
// storage layout but have different vulnerable code paths.
type Variant int

// The two file managers of Table 4.
const (
	FileThingie Variant = iota
	PHPNavigator
)

func (v Variant) String() string {
	if v == PHPNavigator {
		return "PHP Navigator"
	}
	return "File Thingie"
}

// App is one file-manager instance.
type App struct {
	RT      *core.Runtime
	FS      *vfs.FS
	Server  *httpd.Server
	variant Variant

	assertions bool
}

// New builds a file manager with per-user homes for alice and bob plus a
// server configuration file outside any home.
func New(rt *core.Runtime, variant Variant, withAssertions bool) *App {
	a := &App{
		RT:         rt,
		FS:         vfs.New(rt),
		Server:     httpd.NewServer(rt),
		variant:    variant,
		assertions: withAssertions,
	}
	must(a.FS.MkdirAll(filesRoot+"/home", nil))
	must(a.FS.MkdirAll("/srv/config", nil))
	must(a.FS.WriteFile("/srv/config/app.conf", core.NewString("admin_password=topsecret"), nil))
	for _, u := range []string{"alice", "bob"} {
		a.AddUser(u)
	}
	if withAssertions {
		a.enableWriteAssertion()
	}
	a.Server.Handle("/upload", a.handleUpload)
	a.Server.Handle("/view", a.handleView)
	a.Server.Handle("/move", a.handleMove)
	a.Server.Handle("/list", a.handleList)
	return a
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("filemgr: %v", err))
	}
}

// AddUser creates a user's home directory.
func (a *App) AddUser(user string) {
	must(a.FS.MkdirAll(home(user), nil))
	if a.assertions {
		must(a.FS.SetPersistentFilter(home(user), &HomeDirFilter{Owner: user}))
	}
}

func home(user string) string { return filesRoot + "/home/" + user }

func fileCtx(user string) *core.Context {
	ctx := core.NewContext(core.KindFile)
	ctx.Set("user", user)
	ctx.Set("home", home(user))
	return ctx
}

// checkName is the managers' own (flawed) filename validation: it rejects
// absolute paths and names that begin with "..", but misses ".." embedded
// after a legitimate first segment — the bug we discovered.
func checkName(name string) error {
	if strings.HasPrefix(name, "/") {
		return fmt.Errorf("filemgr: absolute paths not allowed")
	}
	if strings.HasPrefix(name, "..") {
		return fmt.Errorf("filemgr: parent references not allowed")
	}
	return nil
}

// handleUpload is File Thingie's vulnerable path: the checked-but-flawed
// name is joined under the user's home, so "photos/../../../config/x"
// escapes.
func (a *App) handleUpload(req *httpd.Request, resp *httpd.Response) error {
	user := sessionUser(req)
	name := req.ParamRaw("name")
	if err := checkName(name); err != nil {
		resp.Status = 400
		return err
	}
	target := vfs.Resolve(home(user) + "/" + name)
	dir := target[:strings.LastIndex(target, "/")]
	if dir != "" && !a.FS.Exists(dir) {
		if err := a.FS.MkdirAll(dir, fileCtx(user)); err != nil {
			resp.Status = 403
			return err
		}
	}
	if err := a.FS.WriteFile(target, req.Param("content"), fileCtx(user)); err != nil {
		resp.Status = 403
		return err
	}
	a.guardUpload(target, user)
	return resp.Write(core.Format("uploaded %s", sanitize.HTMLEscape(core.NewString(target))))
}

// handleMove is PHP Navigator's vulnerable path: the source is validated,
// the destination is not.
func (a *App) handleMove(req *httpd.Request, resp *httpd.Response) error {
	user := sessionUser(req)
	src := req.ParamRaw("src")
	dst := req.ParamRaw("dst")
	if err := checkName(src); err != nil {
		resp.Status = 400
		return err
	}
	// BUG: dst is never validated.
	srcPath := vfs.Resolve(home(user) + "/" + src)
	dstPath := vfs.Resolve(home(user) + "/" + dst)
	if err := a.FS.Rename(srcPath, dstPath, fileCtx(user)); err != nil {
		resp.Status = 403
		return err
	}
	return resp.Write(core.Format("moved to %s", sanitize.HTMLEscape(core.NewString(dstPath))))
}

// handleView reads a file within the user's home; the prefix check here
// is correct.
func (a *App) handleView(req *httpd.Request, resp *httpd.Response) error {
	user := sessionUser(req)
	target := vfs.Resolve(home(user) + "/" + req.ParamRaw("name"))
	if !strings.HasPrefix(target, home(user)+"/") {
		resp.Status = 403
		return fmt.Errorf("filemgr: outside home")
	}
	data, err := a.FS.ReadFile(target, fileCtx(user))
	if err != nil {
		resp.Status = 404
		return err
	}
	return resp.Write(data)
}

// handleList lists the user's home.
func (a *App) handleList(req *httpd.Request, resp *httpd.Response) error {
	user := sessionUser(req)
	names, err := a.FS.List(home(user))
	if err != nil {
		return err
	}
	return resp.Write(sanitize.HTMLEscape(core.NewString(strings.Join(names, "\n"))))
}

func sessionUser(req *httpd.Request) string {
	if req.Session == nil {
		return ""
	}
	return req.Session.User
}

// Variant returns which manager this instance models.
func (a *App) Variant() Variant { return a.variant }
