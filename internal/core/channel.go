package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Channel is a data-flow boundary: an I/O channel or function-call
// interface with an attached filter chain and context hash table (§3.2).
// The runtime pre-defines default channels around all I/O (§3.2.1);
// substrates (HTTP, email, SQL, files, sockets, the interpreter) each
// create channels of the appropriate kind, and applications reach a
// channel via its owner (e.g. sock.__filter in the paper's examples) to
// annotate its context or replace its filters.
//
// Channels also implement the output-buffering mechanism of §5.5: an
// application may open a buffer before running output-generating code that
// can fail an assertion, then release the buffer on success or discard it
// (optionally substituting alternate output) when an assertion exception
// is caught. Filters still run at write time — that is what raises the
// assertion error — buffering only defers making the output visible.
//
// A channel is one allocation: its context is inline, and its filter
// chain is copy-on-write — no method writes into a chain's backing array,
// so NewChannel keeps the caller's slice, channels built from one slice
// stay independent, and Call reads the chain without copying it.
//
// A Channel is safe for concurrent use.
type Channel struct {
	runtime *Runtime
	ctx     Context

	mu      sync.Mutex
	filters []Filter // copy-on-write: replaced, never written in place
	// out accumulates released output; sink, when non-nil, additionally
	// receives the raw bytes of released output.
	out  Builder
	sink io.Writer
	// bufs is the stack of open output buffers (§5.5). Writes land in the
	// innermost open buffer. The outermost one is buf0 and the stack's
	// first slot is bufArr, so opening one buffer allocates nothing.
	bufs   []*Builder
	buf0   Builder
	bufArr [1]*Builder
	// readOff and writeOff track cumulative offsets handed to filters.
	readOff  int64
	writeOff int64
}

// NewChannel creates a boundary of the given kind with the given filter
// chain, which it shares with the caller copy-on-write. A nil runtime
// means an untracked channel (filters skipped), matching Runtime with
// tracking disabled.
func NewChannel(rt *Runtime, kind string, filters ...Filter) *Channel {
	ch := &Channel{runtime: rt, filters: filters}
	ch.ctx.kind, ch.ctx.hasKind = kind, true
	return ch
}

// Context returns the channel's context hash table.
func (ch *Channel) Context() *Context { return &ch.ctx }

// Runtime returns the runtime the channel belongs to (nil for untracked
// channels).
func (ch *Channel) Runtime() *Runtime { return ch.runtime }

// SetSink directs the raw bytes of released output to w, in addition to
// the channel's internal capture buffer.
func (ch *Channel) SetSink(w io.Writer) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.sink = w
}

// Filters returns a copy of the current filter chain.
func (ch *Channel) Filters() []Filter {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	out := make([]Filter, len(ch.filters))
	copy(out, ch.filters)
	return out
}

// PushFilter appends a filter to the chain; it runs after existing ones.
func (ch *Channel) PushFilter(f Filter) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.filters = append(ch.filters[:len(ch.filters):len(ch.filters)], f)
}

// SetFilters replaces the entire filter chain. The script-injection
// assertion uses this to *replace* the interpreter's default import filter
// (§5.2), since the default filter "always permits data that has no
// policy" while the assertion must reject such data.
func (ch *Channel) SetFilters(fs ...Filter) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.filters = append([]Filter(nil), fs...)
}

// tracking reports whether this channel's filters should run.
func (ch *Channel) tracking() bool { return ch.runtime != nil && ch.runtime.Tracking() }

// Write sends data out through the boundary: every WriteFilter in the
// chain runs in order (each may rewrite the data); if all pass, the data
// is appended to the innermost open buffer, or to the channel output when
// no buffer is open. On filter error nothing is appended.
func (ch *Channel) Write(data String) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	off := ch.writeOff
	if ch.tracking() {
		lin := lineageOn()
		for _, f := range ch.filters {
			wf, ok := f.(WriteFilter)
			if !ok {
				continue
			}
			in := data
			var err error
			data, err = wf.FilterWrite(ch, data, off)
			if err != nil {
				if lin && len(in.spans) > 0 {
					lineageRecordSpans(in, "filter-deny", lineageFilterNode(f, &ch.ctx))
				}
				ch.runtime.noteViolation(err)
				return err
			}
			if lin && len(data.spans) > 0 {
				lineageRecordSpans(data, "filter-pass", lineageFilterNode(f, &ch.ctx))
			}
		}
	}
	ch.writeOff += int64(data.Len())
	if n := len(ch.bufs); n > 0 {
		ch.bufs[n-1].Append(data)
		return nil
	}
	return ch.emit(data)
}

// WriteRaw is a convenience wrapper writing an untracked string.
func (ch *Channel) WriteRaw(s string) error { return ch.Write(NewString(s)) }

// emit appends released data to the capture buffer and optional sink.
// Caller holds ch.mu.
func (ch *Channel) emit(data String) error {
	ch.out.Append(data)
	if ch.sink != nil {
		if _, err := io.WriteString(ch.sink, data.Raw()); err != nil {
			return fmt.Errorf("resin: channel sink: %w", err)
		}
	}
	return nil
}

// Read brings data in through the boundary: every ReadFilter runs in order
// (each may attach policies or rewrite the data); the result is returned.
func (ch *Channel) Read(data String) (String, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	off := ch.readOff
	if ch.tracking() {
		lin := lineageOn()
		for _, f := range ch.filters {
			rf, ok := f.(ReadFilter)
			if !ok {
				continue
			}
			in := data
			var err error
			data, err = rf.FilterRead(ch, data, off)
			if err != nil {
				if lin && len(in.spans) > 0 {
					lineageRecordSpans(in, "filter-deny", lineageFilterNode(f, &ch.ctx))
				}
				ch.runtime.noteViolation(err)
				return String{}, err
			}
			// A read filter that attaches policies (TaintReadFilter) makes
			// this the value's source edge.
			if lin && len(data.spans) > 0 {
				lineageRecordSpans(data, "filter-pass", lineageFilterNode(f, &ch.ctx))
			}
		}
	}
	ch.readOff += int64(data.Len())
	return data, nil
}

// Call interposes on a function call through this boundary: every
// FuncFilter runs in order, each receiving the (possibly rewritten)
// argument list and returning a replacement. The final argument list is
// returned for the caller to execute, or the filter chain may have
// executed the call itself and returned results — the convention is the
// filter's choice, as in the paper ("filter_func can check or alter the
// function's arguments and return value").
func (ch *Channel) Call(args []any) ([]any, error) {
	ch.mu.Lock()
	fs := ch.filters
	tracking := ch.tracking()
	ch.mu.Unlock()
	if !tracking {
		return args, nil
	}
	lin := lineageOn()
	var err error
	for _, f := range fs {
		ff, ok := f.(FuncFilter)
		if !ok {
			continue
		}
		in := args
		args, err = ff.FilterFunc(ch, args)
		if err != nil {
			if lin {
				lineageRecordArgs(in, "filter-deny", lineageFilterNode(f, &ch.ctx))
			}
			ch.runtime.noteViolation(err)
			return nil, err
		}
		if lin {
			lineageRecordArgs(args, "filter-pass", lineageFilterNode(f, &ch.ctx))
		}
	}
	return args, nil
}

// Output returns the tracked data released through the channel so far.
func (ch *Channel) Output() String {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.out.String()
}

// RawOutput returns the raw text released through the channel so far.
func (ch *Channel) RawOutput() string {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.out.String().Raw()
}

// ResetOutput clears the capture buffer (between simulated responses).
func (ch *Channel) ResetOutput() {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.out = Builder{}
	ch.writeOff = 0
	ch.readOff = 0
	ch.bufs = nil
}

// ErrNoBuffer is returned by ReleaseBuffer/DiscardBuffer when no output
// buffer is open.
var ErrNoBuffer = errors.New("resin: no open output buffer")

// BeginBuffer opens a new output buffer (§5.5): subsequent writes are
// withheld until ReleaseBuffer or DiscardBuffer. Buffers nest.
func (ch *Channel) BeginBuffer() {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if len(ch.bufs) == 0 {
		// Reset by assignment, never by copying a used Builder: a copied
		// strings.Builder panics on its next write.
		ch.buf0 = Builder{}
		ch.bufs = append(ch.bufArr[:0], &ch.buf0)
		return
	}
	ch.bufs = append(ch.bufs, &Builder{})
}

// ReleaseBuffer closes the innermost buffer and releases its contents to
// the enclosing buffer or the channel output. Filters already ran at
// write time, so release cannot fail an assertion.
func (ch *Channel) ReleaseBuffer() error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	n := len(ch.bufs)
	if n == 0 {
		return ErrNoBuffer
	}
	buf := ch.bufs[n-1]
	ch.bufs = ch.bufs[:n-1]
	data := buf.String()
	if n-1 > 0 {
		ch.bufs[n-2].Append(data)
		return nil
	}
	return ch.emit(data)
}

// DiscardBuffer closes the innermost buffer and drops its contents — the
// catch-block path of §5.5, used when HTML generation inside a try block
// failed an assertion and alternate output will be sent instead.
func (ch *Channel) DiscardBuffer() error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	n := len(ch.bufs)
	if n == 0 {
		return ErrNoBuffer
	}
	dropped := ch.bufs[n-1].Len()
	ch.bufs = ch.bufs[:n-1]
	ch.writeOff -= int64(dropped)
	return nil
}

// BufferDepth returns the number of open output buffers.
func (ch *Channel) BufferDepth() int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return len(ch.bufs)
}
