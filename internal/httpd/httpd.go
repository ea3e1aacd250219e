// Package httpd is the web-server substrate of the RESIN reproduction: an
// in-process request/response model with RESIN boundaries at the edges.
//
// Requests enter through an input boundary that taints every parameter
// with an UntrustedData policy (the moment data enters the runtime).
// Responses leave through an HTML output channel whose filter chain runs
// the default export check, the HTTP response-splitting defense, and
// (when the application enables it) the cross-site scripting assertions
// of §5.3. The server is also "RESIN-aware" in the sense of §3.4.1: when
// it serves a static file, the file's persistent policies are
// de-serialized and checked against the HTTP boundary, so a password
// accidentally stored in a world-readable file cannot be fetched with a
// browser.
//
// The transport is simulated in-process — requests are Go calls — because
// every assertion the paper evaluates happens at the channel boundary, not
// on the wire.
package httpd

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/vfs"
)

// Session is per-user server-side state (the paper's applications recall
// session state while generating pages).
type Session struct {
	ID   string
	User string
	mu   sync.Mutex
	data map[string]any
}

// Set stores a session value.
func (s *Session) Set(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		s.data = make(map[string]any)
	}
	s.data[key] = v
}

// Get returns a session value.
func (s *Session) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// Request is one in-flight HTTP request.
type Request struct {
	Method  string
	Path    string
	Session *Session
	rt      *core.Runtime
	params  map[string]core.String
	input   *core.Channel
}

// Param returns a request parameter as tracked (tainted) data; absent
// parameters return the empty string.
func (r *Request) Param(name string) core.String { return r.params[name] }

// ParamRaw returns the raw text of a parameter.
func (r *Request) ParamRaw(name string) string { return r.params[name].Raw() }

// HasParam reports whether the parameter was supplied.
func (r *Request) HasParam(name string) bool {
	_, ok := r.params[name]
	return ok
}

// ParamNames returns the sorted names of supplied parameters.
func (r *Request) ParamNames() []string {
	out := make([]string, 0, len(r.params))
	for k := range r.params {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Response accumulates one response: headers flow through a
// splitting-guarded channel, the body through the HTML output channel.
// The header channel and map are built on the first SetHeader, so a
// response that sets no header pays for neither.
type Response struct {
	Status int
	body   *core.Channel
	sess   *Session

	mu       sync.Mutex
	headerCh *core.Channel
	headers  map[string]string
}

// headerFilters is every header channel's chain: the response-splitting
// guard, then the default export check. Channels share it copy-on-write.
var headerFilters = []core.Filter{
	&core.RejectSequenceFilter{Sequence: "\r\n", TaintedOnly: true, IsTainted: sanitize.IsUntrusted},
	core.ExportCheckFilter{},
}

// Body returns the tracked response body released so far.
func (r *Response) Body() core.String { return r.body.Output() }

// RawBody returns the raw text of the response body.
func (r *Response) RawBody() string { return r.body.RawOutput() }

// Channel returns the body output channel; applications annotate its
// context (e.g. Figure 5's client_sock.__filter.context['user'] = u) and
// use its output-buffering API (§5.5).
func (r *Response) Channel() *core.Channel { return r.body }

// Write sends tracked data through the HTML output boundary.
func (r *Response) Write(data core.String) error { return r.body.Write(data) }

// WriteRaw sends untracked text through the boundary.
func (r *Response) WriteRaw(s string) error { return r.body.WriteRaw(s) }

// SetHeader sets a response header; the value crosses the header channel,
// which rejects CR/LF sequences derived from untrusted input (the HTTP
// response-splitting defense of §3.2/§5.4).
func (r *Response) SetHeader(name string, value core.String) error {
	if err := r.headerChannel().Write(value); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.headers[name] = value.Raw()
	return nil
}

// headerChannel returns the header channel, building it and the header
// map on first use.
func (r *Response) headerChannel() *core.Channel {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.headerCh == nil {
		r.headerCh = core.NewChannel(r.body.Runtime(), core.KindHTTP, headerFilters...)
		if r.sess != nil {
			r.headerCh.Context().Set("user", r.sess.User)
		}
		r.headers = make(map[string]string)
	}
	return r.headerCh
}

// Header returns a previously set header value.
func (r *Response) Header(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.headers[name]
}

// Handler handles one request.
type Handler func(req *Request, resp *Response) error

// Server routes requests to handlers over a RESIN runtime.
type Server struct {
	rt *core.Runtime

	mu       sync.Mutex
	routes   map[string]Handler
	sessions map[string]*Session
	nextSID  int

	staticFS   *vfs.FS
	staticRoot string

	// bodyFilters is every new response body channel's chain, shared
	// copy-on-write; the server installs the default filters and
	// applications may add more.
	bodyFilters []core.Filter

	// taintFilters caches one input taint filter per parameter name, so
	// every request's "http:<name>" parameter shares a single
	// UntrustedData policy object and one interned policy set — the
	// input side of the tracking hot path stays on pointer comparisons
	// across requests. Bounded by maxTaintFilters against unbounded
	// parameter-name cardinality, and apart from s.mu: the lookup runs
	// once per parameter per request and must not contend with the
	// session/route lock.
	//
	// A name never seen before, attacker-chosen ones included, always
	// builds a filter and interns its one-policy set: two short write
	// locks (this cache's and the intern table's) and one intern-table
	// entry per new name. That is the accepted cost of having one
	// eviction rule. The intern table rotates once per 32768 new sets
	// and keeps every set in use through the rotation, so churned names
	// cannot evict the hot ones (TestTaintFilterNameChurn).
	taintFilters *core.Cache[string, *core.TaintReadFilter]
}

// maxTaintFilters bounds the per-parameter-name taint filter cache; up
// to half of it, 1024 names, stay cached however many others pass.
const maxTaintFilters = 2048

// NewServer returns a server bound to rt with the default boundary
// filters: export check plus the response-splitting guard on headers.
func NewServer(rt *core.Runtime) *Server {
	return &Server{
		rt:           rt,
		routes:       make(map[string]Handler),
		sessions:     make(map[string]*Session),
		taintFilters: core.NewCache[string, *core.TaintReadFilter](maxTaintFilters, 0, 0),
		bodyFilters: []core.Filter{
			core.ExportCheckFilter{},
		},
	}
}

// Runtime returns the server's runtime.
func (s *Server) Runtime() *core.Runtime { return s.rt }

// Handle registers a handler for a path.
func (s *Server) Handle(path string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[path] = h
}

// AddBodyFilter appends a filter to every future response body channel —
// how an application attaches the XSS assertion (§5.3) to its HTML output.
// The chain is copy-on-write: responses share it, and a response that
// exists already keeps the chain it was built with.
func (s *Server) AddBodyFilter(f core.Filter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bodyFilters = append(s.bodyFilters[:len(s.bodyFilters):len(s.bodyFilters)], f)
}

// ServeStatic exposes fs under docroot for GET requests that match no
// route — like Apache serving files next to the application. The serving
// path honours persistent policies (§3.4.1).
func (s *Server) ServeStatic(fs *vfs.FS, docroot string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.staticFS = fs
	s.staticRoot = docroot
}

// NewSession creates a server-side session for user.
func (s *Server) NewSession(user string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSID++
	sess := &Session{ID: fmt.Sprintf("sid%04d", s.nextSID), User: user}
	s.sessions[sess.ID] = sess
	return sess
}

// ErrNotFound is returned by Do when no route or static file matches.
var ErrNotFound = errors.New("httpd: not found")

// Do runs one request through the server: parameters are tainted at the
// input boundary, the matched handler runs, and (resp, err) capture
// whatever the handler produced — including assertion errors from the
// output boundary. sess may be nil for anonymous requests.
func (s *Server) Do(method, path string, params map[string]string, sess *Session) (*Response, error) {
	req := &Request{
		Method:  method,
		Path:    path,
		Session: sess,
		rt:      s.rt,
		params:  make(map[string]core.String, len(params)),
		input:   core.NewChannel(s.rt, core.KindHTTP),
	}
	req.input.Context().Set("op", "request-input")
	// Input boundary: every parameter enters through the request's input
	// channel, whose read filter taints it (§5.3: "annotates untrusted
	// input data with an UntrustedData policy"). The filter is installed
	// per parameter so the taint records which parameter it came from.
	for name, raw := range params {
		req.input.SetFilters(s.taintFilter(name))
		data, err := req.input.Read(core.NewString(raw))
		if err != nil {
			return nil, fmt.Errorf("httpd: input boundary: %w", err)
		}
		req.params[name] = data
	}

	resp := s.newResponse(sess)
	s.mu.Lock()
	h, ok := s.routes[path]
	staticFS, staticRoot := s.staticFS, s.staticRoot
	s.mu.Unlock()
	if ok {
		err := h(req, resp)
		return resp, err
	}
	if staticFS != nil && method == "GET" {
		err := s.serveStatic(staticFS, staticRoot, path, resp)
		return resp, err
	}
	resp.Status = 404
	return resp, ErrNotFound
}

// taintFilter returns the shared input taint filter for a parameter
// name, creating and caching it on first use.
func (s *Server) taintFilter(name string) *core.TaintReadFilter {
	if tf, ok := s.taintFilters.Get(name); ok {
		return tf
	}
	tf := core.NewTaintReadFilter(&sanitize.UntrustedData{Source: "http:" + name})
	return s.taintFilters.Add(name, tf, 0)
}

func (s *Server) newResponse(sess *Session) *Response {
	s.mu.Lock()
	filters := s.bodyFilters
	s.mu.Unlock()
	body := core.NewChannel(s.rt, core.KindHTTP, filters...)
	if sess != nil {
		body.Context().Set("user", sess.User)
		body.Context().Set("session", sess.ID)
	}
	return &Response{Status: 200, body: body, sess: sess}
}

// serveStatic reads a file through the VFS (de-serializing its persistent
// policies) and writes it to the HTTP boundary, where export checks run.
// This is the mod_php change of §4: 49 lines that made Apache invoke
// policy objects for all static files it serves.
func (s *Server) serveStatic(fs *vfs.FS, docroot, reqPath string, resp *Response) error {
	full := vfs.Resolve(docroot + "/" + reqPath)
	if !strings.HasPrefix(full, vfs.Resolve(docroot)) {
		resp.Status = 404
		return ErrNotFound
	}
	info, err := fs.Stat(full)
	if err != nil || info.IsDir {
		resp.Status = 404
		return ErrNotFound
	}
	ctx := core.NewContext(core.KindFile)
	if u, ok := resp.body.Context().GetString("user"); ok {
		ctx.Set("user", u)
	}
	data, err := fs.ReadFile(full, ctx)
	if err != nil {
		resp.Status = 403
		return err
	}
	if err := resp.Write(data); err != nil {
		resp.Status = 403
		return err
	}
	return nil
}
