package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
	"resin/internal/wire"
)

// stack is the served system, in one process over loopback TCP exactly as
// resin-loadgen's self-contained mode builds it: a WAL-backed primary, a
// wire server in front of it, a WAL-shipping replica and its read-only
// server. The flush policy is the server default — fsync per commit;
// SetWALGroupCommit and SetWALAutoCompact are never called.
type stack struct {
	dir     string
	walPath string
	db      *sqldb.DB
	psrv    *wire.Server
	fsrv    *wire.Server
	served  []chan error
	rep     *wire.Replica
	repStop context.CancelFunc
	repDone chan struct{}
	addr    string
	clients []*client
}

// client is one connection with the four prepared statements.
type client struct {
	c                   *wire.Conn
	point, rng, ins, up *wire.Stmt
}

// laps times the pieces of one build of the environment: lap closes the
// current piece. setup_s is put together from them (setupTime). A nil
// *laps times nothing.
type laps struct {
	last   time.Time
	pieces []float64 // seconds
}

func (l *laps) lap() {
	if l == nil {
		return
	}
	now := time.Now()
	l.pieces = append(l.pieces, now.Sub(l.last).Seconds())
	l.last = now
}

// preload creates the schema and loads the table through 1000-row
// transactions, bodies tainted. Primary and twins all load this way.
// Every 100 rows and every commit is a piece of l.
func preload(db *sqldb.DB, t *table, l *laps) error {
	for _, q := range schemaSQL {
		if _, err := db.QueryRaw(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	for base := int64(0); base < t.rows; base += 1000 {
		tx := db.Begin()
		ins, err := tx.PrepareRaw(insertSQL)
		if err != nil {
			tx.Rollback() //nolint:errcheck // the prepare error is the one to report
			return fmt.Errorf("prepare preload insert: %w", err)
		}
		for id := base; id < base+1000 && id < t.rows; id++ {
			if _, err := ins.Exec(id, t.forumOf(id), author(id), subject, t.body(id, 0)); err != nil {
				tx.Rollback() //nolint:errcheck // the insert error is the one to report
				return fmt.Errorf("preload row %d: %w", id, err)
			}
			if id%100 == 99 {
				l.lap()
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("preload commit at %d: %w", base, err)
		}
		l.lap()
	}
	return nil
}

func serve(srv *wire.Server) (string, chan error, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	return lis.Addr().String(), done, nil
}

// newStack builds the whole stack and returns once the replica has
// caught up with the preload and every client has dialed and prepared.
// l times its pieces: the preload's, the replica's catch-up, the dialing.
func newStack(t *table, nclients int, tmp string, l *laps) (_ *stack, err error) {
	dir, err := os.MkdirTemp(tmp, "stack-*")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, walPath: filepath.Join(dir, "primary.wal")}
	defer func() {
		if err != nil {
			s.close() //nolint:errcheck // the setup error is the one to report
		}
	}()
	if s.db, err = sqldb.OpenDB(core.NewRuntime(), s.walPath); err != nil {
		return nil, err
	}
	if err = preload(s.db, t, l); err != nil {
		return nil, err
	}
	s.psrv = wire.NewServer(s.db, wire.Config{})
	var done chan error
	if s.addr, done, err = serve(s.psrv); err != nil {
		return nil, err
	}
	s.served = append(s.served, done)

	if s.rep, err = wire.NewReplica(core.NewRuntime(), s.addr, filepath.Join(dir, "replica.wal")); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.repStop, s.repDone = cancel, make(chan struct{})
	go func() { defer close(s.repDone); s.rep.Run(ctx) }() //nolint:errcheck // Run returns nil when ctx ends
	s.fsrv = wire.NewFollowerServer(s.rep, wire.Config{})
	if _, done, err = serve(s.fsrv); err != nil {
		return nil, err
	}
	s.served = append(s.served, done)
	if _, err = s.awaitReplica(30 * time.Second); err != nil {
		return nil, err
	}
	l.lap()
	for i := 0; i < nclients; i++ {
		c, err := dialClient(s.addr)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	l.lap()
	return s, nil
}

func dialClient(addr string) (*client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	cl := &client{c: c}
	for _, p := range []struct {
		st  **wire.Stmt
		sql string
	}{{&cl.point, pointSQL}, {&cl.rng, rangeSQL}, {&cl.ins, insertSQL}, {&cl.up, updateSQL}} {
		if *p.st, err = c.Prepare(core.NewString(p.sql)); err != nil {
			c.Close() //nolint:errcheck // the prepare error is the one to report
			return nil, fmt.Errorf("prepare %q: %w", p.sql, err)
		}
	}
	return cl, nil
}

// awaitReplica waits until the replica has applied everything the
// primary has committed and reports how long that took.
func (s *stack) awaitReplica(limit time.Duration) (time.Duration, error) {
	start := time.Now()
	_, size, err := s.db.WALStatus()
	if err != nil {
		return 0, err
	}
	want := s.db.Frontier()
	for {
		applied, _ := s.rep.Follower().Offsets()
		if applied >= size && s.rep.DB().Frontier() >= want {
			return time.Since(start), nil
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("replica did not catch up in %v: applied %d of %d bytes", limit, applied, size)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stopServing closes clients, stops the replica's shipping and drains
// both servers, leaving the databases open for the oracles. Safe to call
// twice.
//
// The primary's shipping session sleeps until the log grows or its
// one-second heartbeat fires, and Shutdown waits for it. So while the
// primary drains, sentinel rows (id -1, forum 0, read by nothing) are
// written straight into it: the session wakes, sees the drain flag and
// exits, and teardown takes a millisecond instead of up to a second.
func (s *stack) stopServing() error {
	var errs []error
	for _, c := range s.clients {
		errs = append(errs, c.c.Close())
	}
	s.clients = nil
	if s.repStop != nil {
		s.repStop()
		<-s.repDone
		s.repStop = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.fsrv != nil {
		errs = append(errs, s.fsrv.Shutdown(ctx))
	}
	if s.psrv != nil {
		drained := make(chan error, 1)
		go func() { drained <- s.psrv.Shutdown(ctx) }()
		for waiting := true; waiting; {
			select {
			case err := <-drained:
				errs = append(errs, err)
				waiting = false
			case <-time.After(time.Millisecond):
				_, err := s.db.QueryRaw(insertSQL, -1, 0, "bench", subject, "teardown")
				errs = append(errs, err)
			}
		}
	}
	s.fsrv, s.psrv = nil, nil
	for _, done := range s.served {
		errs = append(errs, <-done)
	}
	s.served = nil
	return errors.Join(errs...)
}

// close tears everything down and removes the directory.
func (s *stack) close() error {
	errs := []error{s.stopServing()}
	if s.rep != nil {
		errs = append(errs, s.rep.DB().Close())
	}
	if s.db != nil {
		errs = append(errs, s.db.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// twin is an in-process copy of the primary that receives the same
// statements during the traced pass, so a layer's share of a wire call
// can be had by subtraction without instrumenting the program.
type twin struct {
	db                  *sqldb.DB
	point, rng, ins, up *sqldb.Stmt
}

// newTwin preloads a twin; path "" makes it in-memory.
func newTwin(t *table, path string) (*twin, error) {
	db, err := sqldb.OpenDB(core.NewRuntime(), path)
	if err != nil {
		return nil, err
	}
	tw := &twin{db: db}
	if err := preload(db, t, nil); err != nil {
		db.Close() //nolint:errcheck // the preload error is the one to report
		return nil, err
	}
	for _, p := range []struct {
		st  **sqldb.Stmt
		sql string
	}{{&tw.point, pointSQL}, {&tw.rng, rangeSQL}, {&tw.ins, insertSQL}, {&tw.up, updateSQL}} {
		if *p.st, err = db.PrepareRaw(p.sql); err != nil {
			db.Close() //nolint:errcheck // the prepare error is the one to report
			return nil, err
		}
	}
	return tw, nil
}
