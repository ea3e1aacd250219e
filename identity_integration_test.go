package resin_test

// Policy identity by content (§3.4.1), pinned where applications see it:
// a policy stored behind a boundary comes back as the same object on
// every read, whatever the caches in front of the decode held.

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"resin"
	"resin/internal/sqldb"
	"resin/internal/vfs"
	"resin/internal/wire"
)

// boundaryPolicy counts ExportCheck calls across all its instances.
type boundaryPolicy struct {
	Owner string `json:"owner"`
}

var boundaryPolicyChecks atomic.Int64

func (p *boundaryPolicy) ExportCheck(ctx *resin.Context) error {
	boundaryPolicyChecks.Add(1)
	return nil
}

func init() {
	resin.RegisterPolicyClass("integration.BoundaryPolicy", &boundaryPolicy{})
}

// churnAnnotationMemo compiles twice as many distinct annotations as
// core's compile memo holds (8192), so both of its generations turn over
// and the next read of any stored value parses its annotation again.
func churnAnnotationMemo(t *testing.T) {
	t.Helper()
	for i := 0; i <= 2*8192; i++ {
		ann := fmt.Sprintf(`[{"start":0,"end":%d,"policies":[]}]`, i+1)
		if _, err := resin.DecodeSpans("x", []byte(ann)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoredPolicyIsOneObjectAtEveryBoundary(t *testing.T) {
	rt := resin.NewRuntime()
	secret := func(owner string) resin.String {
		return resin.NewStringPolicy("s3cret", &boundaryPolicy{Owner: owner})
	}

	db := sqldb.Open(rt)
	db.MustExec("CREATE TABLE vault (id INT, body TEXT)")
	if _, err := db.QueryRaw("INSERT INTO vault (id, body) VALUES (?, ?)", 1, secret("sql")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRaw("INSERT INTO vault (id, body) VALUES (?, ?)", 2, secret("wire")); err != nil {
		t.Fatal(err)
	}
	cell := func(q interface {
		QueryRaw(string, ...any) (*sqldb.Result, error)
	}, id int) func(*testing.T) resin.String {
		return func(t *testing.T) resin.String {
			res, err := q.QueryRaw("SELECT body FROM vault WHERE id = ?", id)
			if err != nil {
				t.Fatal(err)
			}
			return res.Get(0, "body").Str
		}
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(db, wire.Config{})
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(lis) }() //nolint:errcheck
	conn, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		conn.Close() //nolint:errcheck
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
		<-served
	}()

	fs := vfs.New(rt)
	if err := fs.WriteFile("/secret", secret("vfs"), nil); err != nil {
		t.Fatal(err)
	}

	for _, b := range []struct {
		name string
		read func(*testing.T) resin.String
	}{
		{"sqldb SELECT", cell(db, 1)},
		{"wire round trip", cell(conn, 2)},
		{"vfs read", func(t *testing.T) resin.String {
			s, err := fs.ReadFile("/secret", nil)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(b.name, func(t *testing.T) {
			first := b.read(t)
			db.Filter().PlanCacheReset()
			churnAnnotationMemo(t)
			before := resin.ReadInternStats()
			second := b.read(t)
			after := resin.ReadInternStats()

			if after.InstanceHits == before.InstanceHits {
				t.Fatal("the second read did not re-decode its policy: the memo was not flushed")
			}
			if after.InstanceMisses != before.InstanceMisses {
				t.Error("the second read instantiated a new policy object")
			}
			if after.SetHits == before.SetHits {
				t.Error("the second read's policy set missed the intern table")
			}
			ps1, ps2 := first.PoliciesAt(0), second.PoliciesAt(0)
			if ps1 != ps2 || ps1.Policies()[0] != ps2.Policies()[0] {
				t.Error("two reads of one stored value carry different policy-set or policy pointers")
			}
			if n := ps1.Union(ps2).Len(); n != 1 {
				t.Errorf("Union of the two reads has Len() %d, want 1", n)
			}
			boundaryPolicyChecks.Store(0)
			if err := rt.NewChannel(resin.KindHTTP).Write(resin.Concat(first, second)); err != nil {
				t.Fatal(err)
			}
			if n := boundaryPolicyChecks.Load(); n != 1 {
				t.Errorf("ExportCheck ran %d times for one stored policy, want 1", n)
			}
		})
	}
}
