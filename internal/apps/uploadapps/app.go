// Package uploadapps models the five PHP applications of Table 4's
// server-side script injection row — the phpBB attachment mod
// (CVE-2004-1404), Kwalbum (CVE-2008-5677), AWStats Totals
// (CVE-2008-3922), phpMyAdmin (CVE-2008-4096) and wPortfolio
// (CVE-2008-5220). Each has a different shape of the same flaw: a way for
// adversary-supplied bytes to reach the interpreter as code.
//
// A single 12-LoC assertion (§5.2, Figure 6) prevents all five: installed
// code is tagged with a persistent CodeApproval policy, and the
// interpreter's import filter is replaced with one that requires the
// policy on every character — "whether through include statements, eval,
// or direct HTTP requests".
package uploadapps

import (
	"fmt"
	"strings"

	"resin/internal/core"
	"resin/internal/httpd"
	"resin/internal/sanitize"
	"resin/internal/script"
	"resin/internal/vfs"
)

const (
	siteRoot  = "/site"
	appDir    = siteRoot + "/app"
	uploadDir = siteRoot + "/uploads"
	// adminSecret is what successful code execution exfiltrates.
	adminSecret = "s3cr3t-dump"
)

// App is the script-hosting site all five scenarios share.
type App struct {
	RT     *core.Runtime
	FS     *vfs.FS
	Server *httpd.Server
	Interp *script.Interp

	assertions bool
}

// New installs the site: application scripts in /site/app, an upload
// directory, and the interpreter wired to execute site scripts. With
// withAssertions set, the install step approves the shipped code and the
// import filter requires approval.
func New(rt *core.Runtime, withAssertions bool) *App {
	a := &App{
		RT:         rt,
		FS:         vfs.New(rt),
		Server:     httpd.NewServer(rt),
		assertions: withAssertions,
	}
	a.Interp = script.New(rt, a.FS)
	a.Interp.Register("secret", func(args []core.String) (core.String, error) {
		return core.NewString(adminSecret), nil
	})

	must(a.FS.MkdirAll(appDir, nil))
	must(a.FS.MkdirAll(uploadDir, nil))
	must(a.FS.WriteFile(appDir+"/main.rsl", core.NewString(`echo "welcome to the gallery";`), nil))
	must(a.FS.WriteFile(appDir+"/config.rsl", core.NewString(`let theme = "plain"; echo "theme: " . theme;`), nil))

	if withAssertions {
		a.enableScriptInjectionAssertion()
	}

	a.Server.Handle("/run", a.handleRun)
	a.Server.Handle("/attach", a.handleAttach)
	a.Server.Handle("/albumupload", a.handleAlbumUpload)
	a.Server.Handle("/stats", a.handleStats)
	a.Server.Handle("/saveconfig", a.handleSaveConfig)
	a.Server.Handle("/wp/upload", a.handleWPUpload)
	a.Server.Handle("/page", a.handlePage)
	return a
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("uploadapps: %v", err))
	}
}

// handleRun executes a site script — the web server's script handler. It
// runs any file whose name mentions the script extension anywhere, which
// is how Apache's multiple-extension handling behaves (the trap behind
// CVE-2004-1404).
func (a *App) handleRun(req *httpd.Request, resp *httpd.Response) error {
	name := req.ParamRaw("script")
	if !strings.Contains(name, ".rsl") {
		resp.Status = 404
		return fmt.Errorf("uploadapps: not a script: %q", name)
	}
	path := vfs.Resolve(siteRoot + "/" + name)
	if !strings.HasPrefix(path, siteRoot+"/") {
		resp.Status = 404
		return httpd.ErrNotFound
	}
	if err := a.Interp.RunFile(path, resp.Channel(), nil); err != nil {
		resp.Status = 500
		return err
	}
	return nil
}

// handleAttach is the phpBB attachment mod: it checks that the name ends
// with an allowed extension, but keeps the full multi-extension name.
func (a *App) handleAttach(req *httpd.Request, resp *httpd.Response) error {
	name := req.ParamRaw("name")
	okExt := false
	for _, ext := range []string{".png", ".jpg", ".gif", ".txt"} {
		if strings.HasSuffix(name, ext) {
			okExt = true
		}
	}
	if !okExt || strings.Contains(name, "/") {
		resp.Status = 400
		return fmt.Errorf("uploadapps: attachment type not allowed")
	}
	if err := a.FS.WriteFile(uploadDir+"/"+name, req.Param("content"), nil); err != nil {
		return err
	}
	return resp.Write(core.Format("attached uploads/%s", sanitize.HTMLEscape(core.NewString(name))))
}

// handleAlbumUpload is Kwalbum: no validation at all.
func (a *App) handleAlbumUpload(req *httpd.Request, resp *httpd.Response) error {
	name := req.ParamRaw("name")
	if strings.Contains(name, "/") {
		resp.Status = 400
		return fmt.Errorf("uploadapps: bad name")
	}
	if err := a.FS.WriteFile(uploadDir+"/"+name, req.Param("content"), nil); err != nil {
		return err
	}
	return resp.Write(core.Format("uploaded uploads/%s", sanitize.HTMLEscape(core.NewString(name))))
}

// handleStats is AWStats Totals: the sort parameter is spliced into code
// handed to eval.
func (a *App) handleStats(req *httpd.Request, resp *httpd.Response) error {
	code := core.Concat(
		core.NewString(`let key = "`),
		req.Param("sort"), // BUG: adversary bytes become code
		core.NewString(`"; echo "sorted by " . key;`),
	)
	if err := a.Interp.RunSource(code, resp.Channel()); err != nil {
		resp.Status = 500
		return err
	}
	return nil
}

// handleSaveConfig is phpMyAdmin's setup script: it generates a config
// *script* containing an adversary-influenced value, which /page later
// includes as code.
func (a *App) handleSaveConfig(req *httpd.Request, resp *httpd.Response) error {
	cfg := core.Concat(
		core.NewString(`let theme = "`),
		req.Param("theme"), // BUG: value spliced into generated code
		core.NewString(`"; echo "theme: " . theme;`),
	)
	if err := a.FS.WriteFile(appDir+"/config.rsl", cfg, nil); err != nil {
		return err
	}
	return resp.WriteRaw("config saved")
}

// handlePage renders the themed page by including the config script.
func (a *App) handlePage(req *httpd.Request, resp *httpd.Response) error {
	if err := a.Interp.RunFile(appDir+"/config.rsl", resp.Channel(), nil); err != nil {
		resp.Status = 500
		return err
	}
	return nil
}

// handleWPUpload is wPortfolio: an upload endpoint that forgot its
// authentication check and writes straight into the web root.
func (a *App) handleWPUpload(req *httpd.Request, resp *httpd.Response) error {
	name := req.ParamRaw("name")
	if strings.Contains(name, "/") {
		resp.Status = 400
		return fmt.Errorf("uploadapps: bad name")
	}
	// BUG: no auth, and the target is the script-served site root.
	if err := a.FS.WriteFile(siteRoot+"/"+name, req.Param("content"), nil); err != nil {
		return err
	}
	return resp.Write(core.Format("uploaded %s", sanitize.HTMLEscape(core.NewString(name))))
}
