package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// The traced pass. This PR may not put probes inside the program, so a
// call's children are obtained by replaying the same op on twin
// instances that received the same writes: the root span "op" is the
// full-path call (wire statement, or httpd Server.Do), and its children
// are the same statement on a WAL-backed sqldb twin ("sqldb.exec_wal"),
// on an in-memory twin ("sqldb.exec_mem"), and the serialization of
// exactly the op's tracked args / returned cells ("core.encode_args" /
// "core.decode_cells"). Children run after the root, not inside it; the
// parent field records causality, and self times come by subtraction:
//
//	wire          = op − sqldb.exec_wal
//	WAL           = sqldb.exec_wal − sqldb.exec_mem
//	engine+filter = sqldb.exec_mem − core.{encode_args,decode_cells}
//	httpd         = op − Σ sqldb.exec_mem        (page ops)
//
// Spans stay in memory and are written once, when the run ends.

const (
	spanOp      = "op"
	spanExecWAL = "sqldb.exec_wal"
	spanExecMem = "sqldb.exec_mem"
	spanEncode  = "core.encode_args"
	spanDecode  = "core.decode_cells"

	classPage = "page" // root class of a traced page render
)

type span struct {
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
}

type tracer struct {
	epoch time.Time
	spans []span
	ops   int
	wal   *twin
	mem   *twin
}

func (tr *tracer) root(class string, t0, t1 time.Time) int {
	tr.ops++
	tr.spans = append(tr.spans, span{OpID: tr.ops, Name: spanOp, Class: class,
		Start: t0.Sub(tr.epoch).Nanoseconds(), End: t1.Sub(tr.epoch).Nanoseconds(), Parent: -1})
	return len(tr.spans) - 1
}

// child times fn as a child of the span at index parent.
func (tr *tracer) child(parent int, name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	p := tr.spans[parent]
	tr.spans = append(tr.spans, span{OpID: p.OpID, Name: name, Class: p.Class,
		Start: t0.Sub(tr.epoch).Nanoseconds(), End: t1.Sub(tr.epoch).Nanoseconds(), Parent: parent})
	return err
}

func (tw *twin) exec(o op, body core.String) (*sqldb.Result, error) {
	switch o.class {
	case opPoint:
		return tw.point.Query(o.id)
	case opText:
		return tw.db.Query(core.NewString(pointSQL), o.id)
	case opRange:
		return tw.rng.Query(o.forum)
	case opInsert:
		_, err := tw.ins.Exec(o.id, o.forum, author(o.id), subject, body)
		return nil, err
	default:
		_, err := tw.up.Exec(body, o.id)
		return nil, err
	}
}

// replay records the root span of a finished wire op and runs its
// children on the twins.
func (tr *tracer) replay(t *table, o op, body core.String, res *sqldb.Result, t0, t1 time.Time) error {
	root := tr.root(o.class.String(), t0, t1)
	for _, tw := range []struct {
		name string
		tw   *twin
	}{{spanExecWAL, tr.wal}, {spanExecMem, tr.mem}} {
		var got *sqldb.Result
		if err := tr.child(root, tw.name, func() (err error) {
			got, err = tw.tw.exec(o, body)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", tw.name, err)
		}
		if !o.class.isWrite() {
			if err := t.checkRead(o, got, false); err != nil {
				return fmt.Errorf("%s: %w", tw.name, err)
			}
		}
	}
	if o.class.isWrite() {
		return tr.child(root, spanEncode, func() error {
			_, err := core.EncodeSpans(body)
			return err
		})
	}
	// The cells' annotations are taken outside the span: the span times
	// only the decode the client performed on arrival.
	type cell struct {
		raw string
		ann []byte
	}
	cells := make([]cell, 0, len(res.Rows))
	for _, row := range res.Rows {
		ann, err := core.EncodeSpans(row[2].Str)
		if err != nil {
			return err
		}
		cells = append(cells, cell{row[2].Str.Raw(), ann})
	}
	return tr.child(root, spanDecode, func() error {
		for _, c := range cells {
			if _, err := core.DecodeSpans(c.raw, c.ann); err != nil {
				return err
			}
		}
		return nil
	})
}

// layerTimes are one root's durations in ns: the root itself and the sum
// of each child name.
type layerTimes struct {
	class string
	op    float64
	child map[string]float64
}

// rollup groups spans by root.
func rollup(spans []span) []layerTimes {
	idx := map[int]int{}
	var out []layerTimes
	for i, s := range spans {
		d := float64(s.End - s.Start)
		if s.Parent < 0 {
			idx[i] = len(out)
			out = append(out, layerTimes{class: s.Class, op: d, child: map[string]float64{}})
			continue
		}
		out[idx[s.Parent]].child[s.Name] += d
	}
	return out
}

// p50Of is the median over roots of class (any of classes) of f(root).
func p50Of(roots []layerTimes, f func(layerTimes) float64, classes ...string) float64 {
	var xs []float64
	for _, r := range roots {
		for _, c := range classes {
			if r.class == c {
				xs = append(xs, f(r))
			}
		}
	}
	return percentile(xs, 0.5)
}

// encodeSpans renders a run's spans, one JSON object per line; parent
// indexes count within the run.
func encodeSpans(r *workloadResult) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range r.spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{r.Name, s}); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}
