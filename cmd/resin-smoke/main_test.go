package main

import (
	"context"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
	"resin/internal/wire"
)

// serve runs srv on a loopback listener until the test ends.
func serve(t *testing.T, srv *wire.Server) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	return lis.Addr().String()
}

// startPair starts a WAL-backed primary and a WAL-shipping follower, each
// behind a loopback wire server, and returns their addresses.
func startPair(t *testing.T) (addr, replica string) {
	t.Helper()
	rt := core.NewRuntime()
	dir := t.TempDir()
	db, err := sqldb.OpenDB(rt, filepath.Join(dir, "primary.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck
	addr = serve(t, wire.NewServer(db, wire.Config{}))

	rep, err := wire.NewReplica(rt, addr, filepath.Join(dir, "replica.wal"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep.Run(ctx) //nolint:errcheck
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		rep.DB().Close() //nolint:errcheck
	})
	return addr, serve(t, wire.NewFollowerServer(rep, wire.Config{}))
}

func TestRunAgainstPrimaryAndFollower(t *testing.T) {
	addr, replica := startPair(t)
	if err := run(addr, replica); err != nil {
		t.Fatal(err)
	}
}

func TestCatchUpFailsOnNegativeLag(t *testing.T) {
	status := func() (wire.Status, error) {
		return wire.Status{Role: "follower", Applied: 200, PrimarySize: 100}, nil
	}
	err := catchUp(status, 0, time.Second)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative lag: %v", err)
	}
}

func TestCatchUpTimesOut(t *testing.T) {
	status := func() (wire.Status, error) {
		return wire.Status{Role: "follower", Applied: 100, PrimarySize: 200}, nil
	}
	if err := catchUp(status, 0, 20*time.Millisecond); err == nil {
		t.Fatal("a follower that never catches up must fail the run")
	}
}
