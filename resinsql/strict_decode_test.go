package resinsql_test

import (
	"context"
	"database/sql"
	"errors"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
	"resin/resinsql"
)

// TestUnknownKeyFailsReadKeepsSession: a stored annotation whose policy
// has a key its class does not encode fails the read that decodes it, in
// process and over the wire, and the same session then answers a SELECT.
func TestUnknownKeyFailsReadKeepsSession(t *testing.T) {
	localDB, localRaw := open(t, "strict")
	netDB, netRaw := openNet(t)
	for _, c := range []struct {
		name string
		db   *sql.DB
		raw  *sqldb.DB
	}{{"in-process", localDB, localRaw}, {"net", netDB, netRaw}} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			conn, err := c.db.Conn(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.ExecContext(ctx, "CREATE TABLE t (id INT, s TEXT)"); err != nil {
				t.Fatal(err)
			}
			tainted := sanitize.Taint(core.NewString("v"), "form:s")
			if _, err := conn.ExecContext(ctx, "INSERT INTO t (id, s) VALUES (?, ?)", 1, tainted); err != nil {
				t.Fatal(err)
			}
			c.raw.MustExec(`UPDATE t SET __policy_s = '[{"start":0,"end":1,"policies":[{"class":"resin.UntrustedData","fields":{"source":"form:s","src":"x"}}]}]'`)

			var s resinsql.String
			err = conn.QueryRowContext(ctx, "SELECT s FROM t WHERE id = 1").Scan(&s)
			if err == nil {
				t.Fatalf("read with an unknown policy key succeeded: %q", s.V.Describe())
			}
			var de *core.PolicyDecodeError
			if c.name == "in-process" && !errors.As(err, &de) {
				t.Errorf("in-process error is not a *core.PolicyDecodeError: %v", err)
			}
			var id int64
			if err := conn.QueryRowContext(ctx, "SELECT id FROM t WHERE id = 1").Scan(&id); err != nil || id != 1 {
				t.Fatalf("session after the failed read: id %d, err %v", id, err)
			}
		})
	}
}
