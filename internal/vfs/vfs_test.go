package vfs

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"resin/internal/core"
)

// Test policy and filter classes.

type filePolicy struct {
	Owner string `json:"owner"`
}

func (p *filePolicy) ExportCheck(ctx *core.Context) error { return nil }

// ownerWriteFilter is a persistent file filter allowing writes only by its
// owner — the shape of the paper's write access control (§3.2.3).
type ownerWriteFilter struct {
	Owner string `json:"owner"`
}

func (f *ownerWriteFilter) FilterWrite(ch *core.Channel, data core.String, off int64) (core.String, error) {
	if u, _ := ch.Context().GetString("user"); u != f.Owner {
		return core.String{}, fmt.Errorf("vfs test: user %q may not write (owner %q)", u, f.Owner)
	}
	return data, nil
}

// ownerDirFilter is a persistent directory filter restricting
// modifications to its owner.
type ownerDirFilter struct {
	Owner string `json:"owner"`
}

func (f *ownerDirFilter) FilterDirOp(op, name string, ctx *core.Context) error {
	if u, _ := ctx.GetString("user"); u != f.Owner {
		return fmt.Errorf("vfs test: user %q may not %s %q", u, op, name)
	}
	return nil
}

// guardingDirFilter is an ownerDirFilter whose files get an
// ownerWriteFilter for the same owner when they are created.
type guardingDirFilter struct {
	ownerDirFilter
}

func (f *guardingDirFilter) FileFilter() any { return &ownerWriteFilter{Owner: f.Owner} }

func init() {
	core.RegisterPolicyClass("vfstest.FilePolicy", &filePolicy{})
	core.RegisterFilterClass("vfstest.OwnerWriteFilter", &ownerWriteFilter{})
	core.RegisterFilterClass("vfstest.OwnerDirFilter", &ownerDirFilter{})
	core.RegisterFilterClass("vfstest.GuardingDirFilter", &guardingDirFilter{})
}

// TestFileFiltererGuardsNewFiles: a file created under a FileFilterer
// directory carries the filter it names from its first byte, so only
// its owner can write it afterwards; a plain directory filter guards
// its entries, not the files' contents.
func TestFileFiltererGuardsNewFiles(t *testing.T) {
	fs := newFS(t)
	for dir, f := range map[string]any{"/guarded": &guardingDirFilter{ownerDirFilter{Owner: "alice"}}, "/plain": &ownerDirFilter{Owner: "alice"}} {
		if err := fs.Mkdir(dir, nil); err != nil {
			t.Fatal(err)
		}
		if err := fs.SetPersistentFilter(dir, f); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(dir+"/f", core.NewString("alice's"), userCtx("alice")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile("/guarded/f", core.NewString("mallory's"), userCtx("mallory")); err == nil {
		t.Error("mallory overwrote a file created under a FileFilterer directory")
	}
	if got, _ := fs.PersistentFilter("/guarded/f"); !reflect.DeepEqual(got, &ownerWriteFilter{Owner: "alice"}) {
		t.Errorf("new file's filter = %#v, want alice's ownerWriteFilter", got)
	}
	if got, _ := fs.PersistentFilter("/plain/f"); got != nil {
		t.Errorf("file under a plain directory filter got filter %#v", got)
	}
}

func newFS(t *testing.T) *FS {
	t.Helper()
	return New(core.NewRuntime())
}

func userCtx(user string) *core.Context {
	ctx := core.NewContext(core.KindFile)
	ctx.Set("user", user)
	return ctx
}

func TestResolve(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/", "/"},
		{"", "/"},
		{"/a/b", "/a/b"},
		{"a/b", "/a/b"},
		{"/a//b/", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/b/..", "/a"},
		{"/a/b/../..", "/"},
		{"/a/b/../../..", "/"},
		{"/srv/files/../secrets/pw", "/srv/secrets/pw"},
		{"../../etc/passwd", "/etc/passwd"},
	}
	for _, c := range cases {
		if got := Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/data/sub", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/data/sub/f.txt", core.NewString("hello"), nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/data/sub/f.txt", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Raw() != "hello" || got.IsTainted() {
		t.Errorf("read = %s", got.Describe())
	}
}

func TestPersistentPoliciesRoundTrip(t *testing.T) {
	fs := newFS(t)
	p := &filePolicy{Owner: "alice"}
	data := core.Concat(core.NewString("public-"), core.NewStringPolicy("secret", p))
	if err := fs.WriteFile("/f", data, nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Raw() != "public-secret" {
		t.Fatalf("raw = %q", got.Raw())
	}
	if got.Slice(0, 7).IsTainted() {
		t.Error("untainted prefix gained a policy")
	}
	tail := got.Slice(7, got.Len())
	names := tail.Policies().Policies()
	if len(names) != 1 {
		t.Fatalf("tail policies = %d", len(names))
	}
	fp, ok := names[0].(*filePolicy)
	if !ok || fp.Owner != "alice" {
		t.Errorf("restored policy = %#v", names[0])
	}
	// Must be a fresh object, not the original: re-instantiated from the
	// class name + fields.
	if fp == p {
		t.Error("persisted policy should be re-instantiated, not aliased")
	}
}

func TestPoliciesClearedOnOverwrite(t *testing.T) {
	fs := newFS(t)
	p := &filePolicy{Owner: "a"}
	if err := fs.WriteFile("/f", core.NewStringPolicy("x", p), nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", core.NewString("clean"), nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.IsTainted() {
		t.Error("overwrite with untainted data should clear the annotation")
	}
}

func TestAppendExtendsAnnotation(t *testing.T) {
	fs := newFS(t)
	p1 := &filePolicy{Owner: "p1"}
	p2 := &filePolicy{Owner: "p2"}
	if err := fs.WriteFile("/log", core.NewStringPolicy("aaa", p1), nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("/log", core.NewStringPolicy("bbb", p2), nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/log", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Raw() != "aaabbb" {
		t.Fatalf("raw = %q", got.Raw())
	}
	firstOwner := got.PoliciesAt(0).Policies()[0].(*filePolicy).Owner
	lastOwner := got.PoliciesAt(5).Policies()[0].(*filePolicy).Owner
	if firstOwner != "p1" || lastOwner != "p2" {
		t.Errorf("owners = %q %q", firstOwner, lastOwner)
	}
}

func TestAppendCreatesFile(t *testing.T) {
	fs := newFS(t)
	if err := fs.AppendFile("/new", core.NewString("x"), nil); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/new", nil)
	if got.Raw() != "x" {
		t.Errorf("append-create = %q", got.Raw())
	}
}

func TestPersistentWriteFilterEnforced(t *testing.T) {
	fs := newFS(t)
	if err := fs.WriteFile("/doc", core.NewString("v1"), userCtx("alice")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetPersistentFilter("/doc", &ownerWriteFilter{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/doc", core.NewString("v2"), userCtx("alice")); err != nil {
		t.Fatalf("owner write: %v", err)
	}
	if err := fs.WriteFile("/doc", core.NewString("evil"), userCtx("mallory")); err == nil {
		t.Fatal("non-owner write must be vetoed")
	}
	got, _ := fs.ReadFile("/doc", nil)
	if got.Raw() != "v2" {
		t.Errorf("content after vetoed write = %q", got.Raw())
	}
}

func TestPersistentDirFilterEnforced(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/pages/p1", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetPersistentFilter("/pages/p1", &ownerDirFilter{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	// Creating a version file inside: only alice.
	if err := fs.WriteFile("/pages/p1/v1", core.NewString("rev1"), userCtx("alice")); err != nil {
		t.Fatalf("owner create: %v", err)
	}
	if err := fs.WriteFile("/pages/p1/v2", core.NewString("evil"), userCtx("mallory")); err == nil {
		t.Fatal("non-owner create must be vetoed")
	}
	if err := fs.Remove("/pages/p1/v1", userCtx("mallory")); err == nil {
		t.Fatal("non-owner delete must be vetoed")
	}
	if err := fs.Remove("/pages/p1/v1", userCtx("alice")); err != nil {
		t.Fatalf("owner delete: %v", err)
	}
}

func TestRenameChecksBothDirectories(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/a", nil)
	fs.MkdirAll("/b", nil)
	fs.WriteFile("/a/f", core.NewString("x"), nil)
	if err := fs.SetPersistentFilter("/b", &ownerDirFilter{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a/f", "/b/f", userCtx("mallory")); err == nil {
		t.Fatal("rename into guarded dir must be vetoed")
	}
	if err := fs.Rename("/a/f", "/b/f", userCtx("alice")); err != nil {
		t.Fatalf("owner rename: %v", err)
	}
	if !fs.Exists("/b/f") || fs.Exists("/a/f") {
		t.Error("rename did not move the file")
	}
}

func TestTrackingDisabledSkipsFilters(t *testing.T) {
	rt := core.NewUntrackedRuntime()
	fs := New(rt)
	fs.WriteFile("/doc", core.NewString("v1"), nil)
	fs.SetPersistentFilter("/doc", &ownerWriteFilter{Owner: "alice"})
	if err := fs.WriteFile("/doc", core.NewString("v2"), userCtx("mallory")); err != nil {
		t.Fatalf("untracked runtime must skip persistent filters: %v", err)
	}
	// And no annotation is persisted.
	p := &filePolicy{Owner: "x"}
	fs.WriteFile("/t", core.NewString("s").WithPolicy(p), nil)
	if _, err := fs.GetXattr("/t", XattrPolicies); err == nil {
		t.Error("untracked write must not persist annotations")
	}
}

func TestErrors(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.ReadFile("/missing", nil); !errors.Is(err, ErrNotExist) {
		t.Errorf("read missing: %v", err)
	}
	fs.MkdirAll("/d", nil)
	if _, err := fs.ReadFile("/d", nil); !errors.Is(err, ErrIsDir) {
		t.Errorf("read dir: %v", err)
	}
	if err := fs.WriteFile("/d", core.NewString("x"), nil); !errors.Is(err, ErrIsDir) {
		t.Errorf("write dir: %v", err)
	}
	if err := fs.Mkdir("/d", nil); !errors.Is(err, ErrExist) {
		t.Errorf("mkdir existing: %v", err)
	}
	if err := fs.WriteFile("/no/such/dir/f", core.NewString("x"), nil); !errors.Is(err, ErrNotExist) {
		t.Errorf("write under missing dir: %v", err)
	}
	fs.WriteFile("/d/f", core.NewString("x"), nil)
	if err := fs.Remove("/d", nil); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("remove non-empty: %v", err)
	}
	if _, err := fs.List("/d/f"); !errors.Is(err, ErrNotDir) {
		t.Errorf("list file: %v", err)
	}
	if err := fs.Rename("/missing", "/x", nil); !errors.Is(err, ErrNotExist) {
		t.Errorf("rename missing: %v", err)
	}
	fs.WriteFile("/f2", core.NewString("y"), nil)
	if err := fs.Rename("/f2", "/d/f", nil); !errors.Is(err, ErrExist) {
		t.Errorf("rename onto existing: %v", err)
	}
}

func TestListAndWalk(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/a/b", nil)
	fs.WriteFile("/a/z.txt", core.NewString("z"), nil)
	fs.WriteFile("/a/b/c.txt", core.NewString("c"), nil)
	names, err := fs.List("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "b" || names[1] != "z.txt" {
		t.Errorf("list = %v", names)
	}
	var visited []string
	fs.Walk("/a", func(p string, info FileInfo) error {
		visited = append(visited, p)
		return nil
	})
	want := []string{"/a", "/a/b", "/a/b/c.txt", "/a/z.txt"}
	if len(visited) != len(want) {
		t.Fatalf("walk = %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Errorf("walk[%d] = %q, want %q", i, visited[i], want[i])
		}
	}
}

func TestXattrIsolation(t *testing.T) {
	fs := newFS(t)
	fs.WriteFile("/f", core.NewString("x"), nil)
	val := []byte("attr")
	fs.SetXattr("/f", "user.custom", val)
	val[0] = 'X' // caller mutation must not leak in
	got, err := fs.GetXattr("/f", "user.custom")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "attr" {
		t.Errorf("xattr = %q", got)
	}
	got[0] = 'Y' // returned slice mutation must not leak back
	again, _ := fs.GetXattr("/f", "user.custom")
	if string(again) != "attr" {
		t.Errorf("xattr after mutation = %q", again)
	}
}

func TestRemovePersistentFilter(t *testing.T) {
	fs := newFS(t)
	fs.WriteFile("/f", core.NewString("x"), userCtx("alice"))
	fs.SetPersistentFilter("/f", &ownerWriteFilter{Owner: "alice"})
	f, err := fs.PersistentFilter("/f")
	if err != nil || f == nil {
		t.Fatalf("filter = %v, %v", f, err)
	}
	if err := fs.SetPersistentFilter("/f", nil); err != nil {
		t.Fatal(err)
	}
	f, err = fs.PersistentFilter("/f")
	if err != nil || f != nil {
		t.Errorf("after removal: %v, %v", f, err)
	}
	if err := fs.WriteFile("/f", core.NewString("y"), userCtx("mallory")); err != nil {
		t.Errorf("write after filter removal: %v", err)
	}
}

func TestStat(t *testing.T) {
	fs := newFS(t)
	fs.WriteFile("/f", core.NewString("abcd"), nil)
	info, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir || info.Size != 4 || info.Path != "/f" {
		t.Errorf("stat = %+v", info)
	}
	if !fs.Exists("/f") || fs.Exists("/g") {
		t.Error("Exists wrong")
	}
}

// Property: write/read round-trips arbitrary content bytes exactly, for
// arbitrary resolved paths.
func TestQuickWriteReadRoundTrip(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/q", nil)
	i := 0
	f := func(content string) bool {
		i++
		p := fmt.Sprintf("/q/f%d", i)
		if err := fs.WriteFile(p, core.NewString(content), nil); err != nil {
			return false
		}
		got, err := fs.ReadFile(p, nil)
		return err == nil && got.Raw() == content
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Resolve never escapes the root and is idempotent.
func TestQuickResolveProperties(t *testing.T) {
	f := func(p string) bool {
		r := Resolve(p)
		if len(r) == 0 || r[0] != '/' {
			return false
		}
		return Resolve(r) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: policy annotations survive arbitrary span layouts through the
// file system.
func TestQuickPersistentPolicyLayout(t *testing.T) {
	fs := newFS(t)
	i := 0
	f := func(content string, start, end uint8) bool {
		if len(content) == 0 {
			return true
		}
		i++
		p := &filePolicy{Owner: "q"}
		s := int(start) % len(content)
		e := int(end) % (len(content) + 1)
		data := core.NewString(content).WithPolicyRange(s, e, p)
		path := fmt.Sprintf("/qf%d", i)
		if err := fs.WriteFile(path, data, nil); err != nil {
			return false
		}
		got, err := fs.ReadFile(path, nil)
		if err != nil || got.Raw() != content {
			return false
		}
		for k := 0; k < len(content); k++ {
			if (got.PoliciesAt(k).Len() > 0) != (data.PoliciesAt(k).Len() > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
