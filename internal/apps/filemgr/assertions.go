package filemgr

// The RESIN write-access assertion for the file managers (Table 4: 19 LoC
// for File Thingie, 17 for PHP Navigator in the paper). It is the §3.2.3
// mechanism: persistent filter objects stored in the extended attributes
// of the directories themselves. The application's path arithmetic can be
// arbitrarily wrong — the filters sit on the data, not on the code paths.

import (
	_ "embed"
	"fmt"
	"strings"

	"resin/internal/core"
)

// AssertionSource is this file's source, embedded for LoC accounting.
//
//go:embed assertions.go
var AssertionSource string

// BEGIN ASSERTION: filemgr-write-access

// HomeDirFilter is the persistent filter on a user's home directory: only
// the owner may create, delete, or rename entries beneath it, and only the
// owner may modify its files.
type HomeDirFilter struct {
	Owner string `json:"owner"`
}

// FilterDirOp vetoes directory modifications by anyone but the owner.
func (f *HomeDirFilter) FilterDirOp(op, name string, ctx *core.Context) error {
	if u, _ := ctx.GetString("user"); u == f.Owner {
		return nil
	}
	return fmt.Errorf("filemgr: only %s may modify this directory", f.Owner)
}

// FilterWrite vetoes file modifications by anyone but the owner.
func (f *HomeDirFilter) FilterWrite(ch *core.Channel, data core.String, off int64) (core.String, error) {
	if u, _ := ch.Context().GetString("user"); u == f.Owner {
		return data, nil
	}
	return core.String{}, fmt.Errorf("filemgr: only %s may write this file", f.Owner)
}

// SystemDirFilter is the persistent filter on everything outside the
// homes: web users (operations carrying a "user" in their context) may
// not modify it; server-internal operations (no user) may.
type SystemDirFilter struct{}

// FilterDirOp vetoes modifications arriving from web sessions.
func (f *SystemDirFilter) FilterDirOp(op, name string, ctx *core.Context) error {
	if u, _ := ctx.GetString("user"); u != "" {
		return fmt.Errorf("filemgr: system directory is read-only for web users")
	}
	return nil
}

// FilterWrite vetoes overwriting system files from web sessions.
func (f *SystemDirFilter) FilterWrite(ch *core.Channel, data core.String, off int64) (core.String, error) {
	if u, _ := ch.Context().GetString("user"); u != "" {
		return core.String{}, fmt.Errorf("filemgr: system file is read-only for web users")
	}
	return data, nil
}

// guardUpload gives the file an owner's upload wrote, and each directory
// between it and the owner's home, the owner's HomeDirFilter: the home's
// own filter guards only its direct entries, so without this another
// user could overwrite the file or create entries under a subdirectory.
func (a *App) guardUpload(p, owner string) {
	for ; a.assertions && strings.HasPrefix(p, home(owner)+"/"); p = p[:strings.LastIndex(p, "/")] {
		must(a.FS.SetPersistentFilter(p, &HomeDirFilter{Owner: owner}))
	}
}

// enableWriteAssertion installs the persistent filters on the system
// directories and their files (homes get theirs in AddUser).
func (a *App) enableWriteAssertion() {
	for _, dir := range []string{"/srv", filesRoot, filesRoot + "/home", "/srv/config"} {
		must(a.FS.SetPersistentFilter(dir, &SystemDirFilter{}))
	}
	must(a.FS.SetPersistentFilter("/srv/config/app.conf", &SystemDirFilter{}))
}

// END ASSERTION

func init() {
	core.RegisterFilterClass("filemgr.HomeDirFilter", &HomeDirFilter{})
	core.RegisterFilterClass("filemgr.SystemDirFilter", &SystemDirFilter{})
}
