package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Context is the context hash table attached to a filter object's channel
// (§3.2.1). It describes the specific I/O channel or function call that
// the filter guards — for example, the email channel's context carries the
// recipient address and the HTTP channel's context carries the
// authenticated user. Default filters pass the context as the argument to
// each policy's ExportCheck.
//
// The well-known key "type" identifies the boundary kind ("email", "http",
// "file", "sql", "socket", "pipe", "code"); applications add their own
// key-value pairs ("RESIN also allows the application to add its own
// key-value pairs to the context hash table of default filter objects").
//
// A boundary carries a handful of keys, so the table is no map: the kind
// has its own field and the other keys sit in a list searched linearly,
// whose first eight entries live in the context itself: setting or
// reading up to eight keys allocates nothing.
//
// Context is safe for concurrent use.
type Context struct {
	mu sync.RWMutex
	// kind is the "type" key when its value is a string (hasKind); a
	// "type" of any other type is stored like every other key.
	kind    string
	hasKind bool
	entries []ctxEntry // backed by inline until it outgrows it
	inline  [8]ctxEntry
}

type ctxEntry struct {
	key string
	val any
}

// Boundary kinds used by the default filter objects that RESIN pre-defines
// "on all I/O channels into and out of the runtime" (§3.2.1).
const (
	KindSocket = "socket"
	KindPipe   = "pipe"
	KindFile   = "file"
	KindHTTP   = "http"
	KindEmail  = "email"
	KindSQL    = "sql"
	KindCode   = "code"
)

// NewContext builds a context for a boundary of the given kind.
func NewContext(kind string) *Context {
	return &Context{kind: kind, hasKind: true}
}

// Type returns the boundary kind (the "type" key), or "" if unset.
func (c *Context) Type() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.kind
}

// find returns the index of key in entries, or -1. Caller holds c.mu.
func (c *Context) find(key string) int {
	for i := range c.entries {
		if c.entries[i].key == key {
			return i
		}
	}
	return -1
}

// Set adds or replaces a context key.
func (c *Context) Set(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remove(key)
	if s, ok := value.(string); ok && key == "type" {
		c.kind, c.hasKind = s, true
		return
	}
	if c.entries == nil {
		c.entries = c.inline[:0]
	}
	c.entries = append(c.entries, ctxEntry{key, value})
}

// Get returns the value for key and whether it is present.
func (c *Context) Get(key string) (any, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if key == "type" && c.hasKind {
		return c.kind, true
	}
	if i := c.find(key); i >= 0 {
		return c.entries[i].val, true
	}
	return nil, false
}

// GetString returns the value for key as a string; ok is false if the key
// is absent or not a string.
func (c *Context) GetString(key string) (string, bool) {
	v, ok := c.Get(key)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

// GetBool returns the value for key as a bool (false if absent or not a bool).
func (c *Context) GetBool(key string) bool {
	v, ok := c.Get(key)
	if !ok {
		return false
	}
	b, _ := v.(bool)
	return b
}

// Delete removes a key from the context.
func (c *Context) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remove(key)
}

// remove deletes key wherever it lives. Caller holds c.mu for writing.
func (c *Context) remove(key string) {
	if key == "type" {
		c.kind, c.hasKind = "", false
	}
	if i := c.find(key); i >= 0 {
		last := len(c.entries) - 1
		c.entries[i], c.entries[last] = c.entries[last], ctxEntry{}
		c.entries = c.entries[:last]
	}
}

// Clone returns an independent copy of the context.
func (c *Context) Clone() *Context {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := &Context{kind: c.kind, hasKind: c.hasKind}
	out.entries = append(out.inline[:0], c.entries...)
	return out
}

// String renders the context for diagnostics with keys sorted, e.g.
// `{email: "u@foo.com", type: "email"}`.
func (c *Context) String() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	entries := make([]ctxEntry, 0, 1+len(c.entries))
	if c.hasKind {
		entries = append(entries, ctxEntry{"type", c.kind})
	}
	entries = append(entries, c.entries...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %v", e.key, e.val)
	}
	b.WriteByte('}')
	return b.String()
}
