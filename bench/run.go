package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// ledger is what one client was told is durable: every acknowledged
// INSERT and the last acknowledged UPDATE per id. The restart oracle
// checks the reopened log against it.
type ledger struct {
	inserted map[int64]uint32
	updated  map[int64]uint32
}

func newLedger() *ledger {
	return &ledger{inserted: map[int64]uint32{}, updated: map[int64]uint32{}}
}

// session is the state that outlives phases on one stack: per-client
// generators (ids and versions keep counting) and ledgers.
type session struct {
	t       *table
	st      *stack
	gens    []*generator
	ledgers []*ledger
	tr      *tracer // nil: untraced
}

func newSession(t *table, st *stack, workload string) *session {
	se := &session{t: t, st: st}
	for c := range st.clients {
		se.gens = append(se.gens, newGenerator(t, workload, c))
		se.ledgers = append(se.ledgers, newLedger())
	}
	return se
}

// phase is one timed closed loop: nclients clients each send ops ops,
// the next only after the previous one completed.
type phase struct {
	m        mix
	nclients int
	ops      int // per client
}

// phaseResult is what one phase measured. In an end-to-end run a phase
// is one round's slice of a part of the run, and so one window.
type phaseResult struct {
	lat       [numClasses][]int64 // class → ns, every client's samples
	ops       int
	failed    int
	elapsed   time.Duration
	cpu       time.Duration
	userBytes int64
	walBytes  int64
	lag       []float64 // replica lag samples, bytes
	negLag    bool
}

func (r *phaseResult) writes() int { return len(r.lat[opInsert]) + len(r.lat[opUpdate]) }

// latencies returns one window per phase: the samples of the given classes
// (insert+update → "write") pooled.
func latencies(rs []*phaseResult, classes ...opClass) [][]int64 {
	out := make([][]int64, len(rs))
	for i, r := range rs {
		for _, c := range classes {
			out[i] = append(out[i], r.lat[c]...)
		}
	}
	return out
}

// rate is the work and cost of one window.
type rate struct {
	ops          int
	elapsed, cpu time.Duration
}

func rates(rs []*phaseResult) []rate {
	out := make([]rate, len(rs))
	for i, r := range rs {
		out[i] = rate{r.ops, r.elapsed, r.cpu}
	}
	return out
}

// windowRates reduces window rates to the run's throughput and CPU cost:
// the best window's (see stats.go).
func windowRates(rs []rate) (opsPerS, cpuUsPerOp windowed) {
	var tput, cost []float64
	for _, r := range rs {
		if r.ops > 0 && r.elapsed > 0 {
			tput = append(tput, float64(r.ops)/r.elapsed.Seconds())
			cost = append(cost, float64(r.cpu)/1e3/float64(r.ops))
		}
	}
	return bestOf(tput, higher), bestOf(cost, lower)
}

var failLog struct {
	sync.Mutex
	n int
}

func logFailure(format string, args ...any) {
	failLog.Lock()
	defer failLog.Unlock()
	if failLog.n++; failLog.n <= 5 {
		fmt.Fprintf(os.Stderr, "bench: FAILED op: "+format+"\n", args...)
	}
}

// run executes one phase. Latency is the wall time of the wire call
// alone; generating the op and checking the answer happen outside it but
// inside the phase, so they count toward ops_per_s and cpu_us_per_op.
func (se *session) run(p phase) *phaseResult {
	res := &phaseResult{}
	_, wal0, _ := se.st.db.WALStatus()

	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				st := se.st.rep.Status()
				lag := st.PrimarySize - st.Applied
				res.lag = append(res.lag, float64(lag))
				if lag < 0 {
					res.negLag = true
				}
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < p.nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := se.gens[c]
			g.setMix(p.m)
			var lat [numClasses][]int64
			failed := 0
			var ub int64
			for i := 0; i < p.ops; i++ {
				o := g.next()
				d, err := se.do(c, o, i)
				if err != nil {
					failed++
					logFailure("client %d %s id=%d forum=%d: %v", c, o.class, o.id, o.forum, err)
					continue
				}
				lat[o.class] = append(lat[o.class], int64(d))
				if o.class.isWrite() {
					ub += userBytes(o)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for cl := range lat {
				res.lat[cl] = append(res.lat[cl], lat[cl]...)
			}
			res.ops += p.ops
			res.failed += failed
			res.userBytes += ub
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	close(stopLag)
	<-lagDone
	_, wal1, _ := se.st.db.WALStatus()
	res.walBytes = wal1 - wal0
	if res.negLag {
		res.failed++
		logFailure("replica lag sampled negative: PrimarySize/Applied accounting regressed")
	}
	return res
}

// do sends one op on client c, checks the answer, and (traced) replays
// it on the twins. seq is the op's index in the phase: every 64th read
// is compared byte for byte with the generator's annotation.
func (se *session) do(c int, o op, seq int) (time.Duration, error) {
	cl := se.st.clients[c]
	var (
		res  *sqldb.Result
		err  error
		body core.String
	)
	if o.class.isWrite() {
		body = se.t.body(o.id, o.ver)
	}
	t0 := time.Now()
	switch o.class {
	case opPoint:
		res, err = cl.point.Query(o.id)
	case opText:
		res, err = cl.c.Query(core.NewString(pointSQL), o.id)
	case opRange:
		res, err = cl.rng.Query(o.forum)
	case opInsert:
		_, err = cl.ins.Exec(o.id, o.forum, author(o.id), subject, body)
	case opUpdate:
		var n int
		if n, err = cl.up.Exec(body, o.id); err == nil && n != 1 {
			err = fmt.Errorf("update touched %d rows, want 1", n)
		}
	}
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	switch o.class {
	case opInsert:
		se.ledgers[c].inserted[o.id] = o.ver
	case opUpdate:
		se.ledgers[c].updated[o.id] = o.ver
	default:
		if err := se.t.checkRead(o, res, seq%64 == 0); err != nil {
			return 0, err
		}
	}
	if se.tr != nil {
		if err := se.tr.replay(se.t, o, body, res, t0, t1); err != nil {
			return 0, fmt.Errorf("twin replay: %w", err)
		}
	}
	return t1.Sub(t0), nil
}

// checkRead is the read oracle: row count, the rows are the ones asked
// for, every body is tainted, and (deep) every annotation equals the one
// the generator derives from the seed.
func (t *table) checkRead(o op, res *sqldb.Result, deep bool) error {
	want := 1
	if o.class == opRange {
		want = rangeLimit
	}
	if res.Len() != want {
		return fmt.Errorf("%d rows, want %d", res.Len(), want)
	}
	prev := int64(-1)
	for _, row := range res.Rows {
		if len(row) != 3 || !row[0].IsInt {
			return fmt.Errorf("row shape %v", res.Columns)
		}
		id, body := row[0].Int.Value(), row[2].Str
		switch {
		case o.class != opRange && id != o.id:
			return fmt.Errorf("got row id %d", id)
		case o.class == opRange && (id <= prev || t.forumOf(id) != o.forum):
			return fmt.Errorf("range row id %d after %d in forum %d", id, prev, o.forum)
		case !body.IsTainted():
			return fmt.Errorf("row %d: body lost its policy", id)
		case !strings.HasPrefix(body.Raw(), strconv.FormatInt(id, 10)+"."):
			return fmt.Errorf("row %d: body %q belongs to another row", id, body.Raw())
		}
		prev = id
		if deep {
			got, err := core.EncodeSpans(body)
			if err != nil {
				return err
			}
			if want := t.wantAnn[t.policyIndex(id)]; string(got) != string(want) {
				return fmt.Errorf("row %d: annotation %s, want %s", id, got, want)
			}
		}
	}
	return nil
}
