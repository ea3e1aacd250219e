// Package vfs is the filesystem substrate of the RESIN reproduction: an
// in-memory hierarchical filesystem with extended attributes.
//
// It implements two RESIN mechanisms:
//
//   - Persistent policies (§3.4.1): the default file filter serializes the
//     policy spans of written data into the file's extended attributes and
//     re-attaches them (as fresh policy objects) when the file is read, so
//     assertions survive across the runtime boundary.
//
//   - Persistent filter objects (§3.2.3): a programmer-specified filter
//     object can be stored in the extended attributes of a file or
//     directory; the runtime invokes it whenever data flows into or out of
//     that file, or when the directory is modified (create, delete,
//     rename). Applications use these for write access control.
//
// Path resolution is deliberately naive about "..": a path like
// "/srv/files/../secrets" resolves to "/srv/secrets". That is exactly the
// behaviour that makes directory traversal attacks (§2) expressible; the
// persistent filter objects are what stop them.
package vfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"resin/internal/core"
)

// Errors returned by filesystem operations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
)

// Extended attribute names used by the RESIN runtime.
const (
	// XattrPolicies holds the serialized policy spans of the file data.
	XattrPolicies = "user.resin.policies"
	// XattrFilter holds the serialized persistent filter object.
	XattrFilter = "user.resin.filter"
)

// DirFilter is the interface persistent directory filters implement; the
// runtime invokes it when the directory is modified. op is one of
// "create", "delete", "rename-from", "rename-to"; name is the affected
// entry; ctx is the operation context (carrying e.g. the current user).
type DirFilter interface {
	FilterDirOp(op, name string, ctx *core.Context) error
}

// FileFilterer is a persistent directory filter that names the
// persistent filter (an instance of a registered filter class) of every
// file created in its directory. The file gets it in the step that
// creates it, so no later write reaches the file unfiltered, whoever
// created it.
type FileFilterer interface {
	FileFilter() any
}

// node is one file or directory.
type node struct {
	dir      bool
	data     []byte
	children map[string]*node
	xattr    map[string][]byte
}

func newNode(dir bool) *node {
	n := &node{dir: dir, xattr: make(map[string][]byte)}
	if dir {
		n.children = make(map[string]*node)
	}
	return n
}

// FS is an in-memory filesystem bound to a RESIN runtime.
type FS struct {
	rt   *core.Runtime
	mu   sync.RWMutex
	root *node
}

// New returns an empty filesystem bound to rt. A nil runtime behaves like
// a runtime with tracking disabled.
func New(rt *core.Runtime) *FS {
	return &FS{rt: rt, root: newNode(true)}
}

// Runtime returns the runtime the filesystem is bound to.
func (fs *FS) Runtime() *core.Runtime { return fs.rt }

// Resolve normalizes a path the way the substrate's applications do:
// "." and empty segments are dropped and ".." pops a segment (never above
// the root). The result always begins with "/".
func Resolve(p string) string {
	segs := strings.Split(p, "/")
	var out []string
	for _, s := range segs {
		switch s {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, s)
		}
	}
	return "/" + strings.Join(out, "/")
}

// lookup walks to the node for a resolved path. Caller holds fs.mu.
func (fs *FS) lookup(resolved string) (*node, error) {
	cur := fs.root
	if resolved == "/" {
		return cur, nil
	}
	for _, seg := range strings.Split(strings.TrimPrefix(resolved, "/"), "/") {
		if !cur.dir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[seg]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, resolved)
		}
		cur = next
	}
	return cur, nil
}

// lookupParent returns the parent directory node and the final path
// segment. Caller holds fs.mu.
func (fs *FS) lookupParent(resolved string) (*node, string, error) {
	dir, base := path.Split(resolved)
	if base == "" {
		return nil, "", fmt.Errorf("vfs: %q has no base name", resolved)
	}
	parent, err := fs.lookup(Resolve(dir))
	if err != nil {
		return nil, "", err
	}
	if !parent.dir {
		return nil, "", ErrNotDir
	}
	return parent, base, nil
}

func (fs *FS) tracking() bool { return fs.rt.Tracking() }

// opContext builds the channel context for a file operation, merging the
// caller's context entries (typically the request's user) over the
// operation metadata.
func opContext(base *core.Context, p, op string) *core.Context {
	ctx := core.NewContext(core.KindFile)
	ctx.Set("path", p)
	ctx.Set("op", op)
	if base != nil {
		mergeContext(ctx, base)
	}
	return ctx
}

// mergeContext copies every key of src except "type" into dst.
func mergeContext(dst, src *core.Context) {
	// Context has no iteration API by design (it mirrors the paper's
	// opaque hash table), so we copy the conventional keys applications
	// use plus the user identity keys the substrates rely on.
	for _, k := range []string{"user", "email", "privChair", "session", "remote", "authenticated", "home"} {
		if v, ok := src.Get(k); ok {
			dst.Set(k, v)
		}
	}
}

// persistentFilter decodes the node's persistent filter object, if any.
func (fs *FS) persistentFilter(n *node) (core.Filter, error) {
	enc, ok := n.xattr[XattrFilter]
	if !ok {
		return nil, nil
	}
	return core.DecodeFilter(enc)
}

// inheritedFilter encodes the persistent filter a file created in dir
// starts with, if dir's filter names one (FileFilterer).
func (fs *FS) inheritedFilter(dir *node) ([]byte, error) {
	f, err := fs.persistentFilter(dir)
	if err != nil {
		return nil, err
	}
	if ff, ok := f.(FileFilterer); ok {
		return core.EncodeFilter(ff.FileFilter())
	}
	return nil, nil
}

// dirFilterCheck invokes the persistent directory filter for a
// modification of dir, if one is installed and tracking is on.
func (fs *FS) dirFilterCheck(dir *node, op, name string, ctx *core.Context) error {
	if !fs.tracking() {
		return nil
	}
	f, err := fs.persistentFilter(dir)
	if err != nil {
		return err
	}
	if df, ok := f.(DirFilter); ok {
		if err := df.FilterDirOp(op, name, ctx); err != nil {
			return err
		}
	}
	return nil
}

// Mkdir creates a single directory. The parent's persistent directory
// filter is consulted with op "create".
func (fs *FS) Mkdir(p string, ctx *core.Context) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	resolved := Resolve(p)
	if resolved == "/" {
		return ErrExist
	}
	parent, base, err := fs.lookupParent(resolved)
	if err != nil {
		return err
	}
	if _, ok := parent.children[base]; ok {
		return fmt.Errorf("%w: %s", ErrExist, resolved)
	}
	if err := fs.dirFilterCheck(parent, "create", base, opContext(ctx, resolved, "mkdir")); err != nil {
		return err
	}
	parent.children[base] = newNode(true)
	return nil
}

// MkdirAll creates a directory and any missing parents (no filter checks
// on parents that already exist; each created level is checked).
func (fs *FS) MkdirAll(p string, ctx *core.Context) error {
	resolved := Resolve(p)
	if resolved == "/" {
		return nil
	}
	segs := strings.Split(strings.TrimPrefix(resolved, "/"), "/")
	cur := ""
	for _, s := range segs {
		cur += "/" + s
		err := fs.Mkdir(cur, ctx)
		if err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// WriteFile writes data to the file at p, creating it if needed. With
// tracking enabled the write passes through the file's data-flow boundary:
//
//  1. the parent directory's persistent filter is consulted on create,
//     and a new file gets the filter it names (FileFilterer), tracking
//     or not;
//  2. the file's persistent filter object's FilterWrite runs (write
//     access control, §3.2.3);
//  3. the default file filter serializes the data's policy spans into the
//     file's extended attributes (§3.4.1).
func (fs *FS) WriteFile(p string, data core.String, ctx *core.Context) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writeFileLocked(p, data, ctx, false)
}

// AppendFile appends data to the file at p (creating it if needed),
// extending the persisted policy annotation.
func (fs *FS) AppendFile(p string, data core.String, ctx *core.Context) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writeFileLocked(p, data, ctx, true)
}

func (fs *FS) writeFileLocked(p string, data core.String, ctx *core.Context, app bool) error {
	resolved := Resolve(p)
	parent, base, err := fs.lookupParent(resolved)
	if err != nil {
		return err
	}
	n, exists := parent.children[base]
	octx := opContext(ctx, resolved, "write")
	if exists && n.dir {
		return fmt.Errorf("%w: %s", ErrIsDir, resolved)
	}
	var inherited []byte
	if !exists {
		if err := fs.dirFilterCheck(parent, "create", base, octx); err != nil {
			return err
		}
		if inherited, err = fs.inheritedFilter(parent); err != nil {
			return err
		}
	}
	// Persistent file filter: write access control.
	if exists && fs.tracking() {
		f, ferr := fs.persistentFilter(n)
		if ferr != nil {
			return ferr
		}
		if wf, ok := f.(core.WriteFilter); ok {
			ch := core.NewChannel(fs.rt, core.KindFile)
			copyInto(ch.Context(), octx)
			data, err = wf.FilterWrite(ch, data, 0)
			if err != nil {
				return err
			}
		}
	}
	if app && exists && len(n.data) > 0 {
		old, derr := fs.trackedContentLocked(n)
		if derr != nil {
			return derr
		}
		data = core.Concat(old, data)
	}
	// Default file filter: serialize the policy annotation BEFORE any
	// state is mutated — a policy that cannot be persisted must never
	// leave its data behind unguarded.
	var ann []byte
	if fs.tracking() {
		var aerr error
		ann, aerr = core.EncodeSpans(data)
		if aerr != nil {
			return aerr
		}
	}
	if !exists {
		n = newNode(false)
		if inherited != nil {
			n.xattr[XattrFilter] = inherited
		}
		parent.children[base] = n
	}
	n.data = []byte(data.Raw())
	if ann == nil {
		delete(n.xattr, XattrPolicies)
	} else {
		n.xattr[XattrPolicies] = ann
	}
	return nil
}

func copyInto(dst, src *core.Context) {
	for _, k := range []string{"path", "op", "user", "email", "privChair", "session", "remote", "authenticated", "home"} {
		if v, ok := src.Get(k); ok {
			dst.Set(k, v)
		}
	}
}

// trackedContentLocked re-attaches the persisted policy annotation to the
// node's raw data. Caller holds fs.mu.
func (fs *FS) trackedContentLocked(n *node) (core.String, error) {
	if !fs.tracking() {
		return core.NewString(string(n.data)), nil
	}
	return core.DecodeSpans(string(n.data), n.xattr[XattrPolicies])
}

// ReadFile reads the file at p. With tracking enabled:
//
//  1. the persisted policy annotation is de-serialized and attached to the
//     data (default file filter, §3.4.1);
//  2. the file's persistent filter object's FilterRead runs (read access
//     control).
func (fs *FS) ReadFile(p string, ctx *core.Context) (core.String, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	resolved := Resolve(p)
	n, err := fs.lookup(resolved)
	if err != nil {
		return core.String{}, err
	}
	if n.dir {
		return core.String{}, fmt.Errorf("%w: %s", ErrIsDir, resolved)
	}
	data, err := fs.trackedContentLocked(n)
	if err != nil {
		return core.String{}, err
	}
	if fs.tracking() {
		f, ferr := fs.persistentFilter(n)
		if ferr != nil {
			return core.String{}, ferr
		}
		if rf, ok := f.(core.ReadFilter); ok {
			ch := core.NewChannel(fs.rt, core.KindFile)
			copyInto(ch.Context(), opContext(ctx, resolved, "read"))
			data, err = rf.FilterRead(ch, data, 0)
			if err != nil {
				return core.String{}, err
			}
		}
	}
	return data, nil
}

// Remove deletes a file or empty directory; the parent directory's
// persistent filter is consulted with op "delete".
func (fs *FS) Remove(p string, ctx *core.Context) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	resolved := Resolve(p)
	parent, base, err := fs.lookupParent(resolved)
	if err != nil {
		return err
	}
	n, ok := parent.children[base]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, resolved)
	}
	if n.dir && len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, resolved)
	}
	if err := fs.dirFilterCheck(parent, "delete", base, opContext(ctx, resolved, "remove")); err != nil {
		return err
	}
	delete(parent.children, base)
	return nil
}

// Rename moves a file or directory; both the source and destination
// directories' persistent filters are consulted.
func (fs *FS) Rename(oldp, newp string, ctx *core.Context) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ro, rn := Resolve(oldp), Resolve(newp)
	oldParent, oldBase, err := fs.lookupParent(ro)
	if err != nil {
		return err
	}
	n, ok := oldParent.children[oldBase]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, ro)
	}
	newParent, newBase, err := fs.lookupParent(rn)
	if err != nil {
		return err
	}
	if _, exists := newParent.children[newBase]; exists {
		return fmt.Errorf("%w: %s", ErrExist, rn)
	}
	octx := opContext(ctx, ro, "rename")
	if err := fs.dirFilterCheck(oldParent, "rename-from", oldBase, octx); err != nil {
		return err
	}
	if err := fs.dirFilterCheck(newParent, "rename-to", newBase, opContext(ctx, rn, "rename")); err != nil {
		return err
	}
	delete(oldParent.children, oldBase)
	newParent.children[newBase] = n
	return nil
}

// List returns the sorted names of the entries of the directory at p.
func (fs *FS) List(p string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(Resolve(p))
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, ErrNotDir
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string
	IsDir bool
	Size  int
}

// Stat returns metadata for the entry at p.
func (fs *FS) Stat(p string) (FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	resolved := Resolve(p)
	n, err := fs.lookup(resolved)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Path: resolved, IsDir: n.dir, Size: len(n.data)}, nil
}

// Exists reports whether an entry exists at p.
func (fs *FS) Exists(p string) bool {
	_, err := fs.Stat(p)
	return err == nil
}

// SetXattr sets an extended attribute on the entry at p.
func (fs *FS) SetXattr(p, name string, value []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(Resolve(p))
	if err != nil {
		return err
	}
	n.xattr[name] = append([]byte(nil), value...)
	return nil
}

// GetXattr returns an extended attribute of the entry at p.
func (fs *FS) GetXattr(p, name string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(Resolve(p))
	if err != nil {
		return nil, err
	}
	v, ok := n.xattr[name]
	if !ok {
		return nil, fmt.Errorf("vfs: no xattr %q on %s", name, p)
	}
	return append([]byte(nil), v...), nil
}

// SetPersistentFilter serializes a filter object into the entry's extended
// attributes (§3.2.3). The filter class must be registered with
// core.RegisterFilterClass. Passing nil removes the filter.
func (fs *FS) SetPersistentFilter(p string, f core.Filter) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(Resolve(p))
	if err != nil {
		return err
	}
	if f == nil {
		delete(n.xattr, XattrFilter)
		return nil
	}
	enc, err := core.EncodeFilter(f)
	if err != nil {
		return err
	}
	n.xattr[XattrFilter] = enc
	return nil
}

// PersistentFilter decodes and returns the entry's persistent filter
// object, or nil if none is installed.
func (fs *FS) PersistentFilter(p string) (core.Filter, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(Resolve(p))
	if err != nil {
		return nil, err
	}
	return fs.persistentFilter(n)
}

// Walk visits every entry under root in lexical order, calling fn with
// the resolved path and info. fn returning an error stops the walk.
func (fs *FS) Walk(root string, fn func(p string, info FileInfo) error) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	resolved := Resolve(root)
	n, err := fs.lookup(resolved)
	if err != nil {
		return err
	}
	return fs.walk(resolved, n, fn)
}

func (fs *FS) walk(p string, n *node, fn func(string, FileInfo) error) error {
	if err := fn(p, FileInfo{Path: p, IsDir: n.dir, Size: len(n.data)}); err != nil {
		return err
	}
	if !n.dir {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		child := p + "/" + name
		if p == "/" {
			child = "/" + name
		}
		if err := fs.walk(child, n.children[name], fn); err != nil {
			return err
		}
	}
	return nil
}
