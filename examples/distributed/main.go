// Distributed example: the §8 extension — policy objects propagating
// between two RESIN runtimes, the way DStar forwards information flow
// labels between machines.
//
// A backend runtime stores a user record in its database and serves it
// over the wire protocol (docs/WIRE.md) on a loopback socket; a frontend
// fetches the record with a SELECT. The password policy serialized on the
// backend travels as the record's core.EncodeSpans annotation, is
// re-instantiated from the frontend's registered class, and still blocks
// disclosure there.
//
// See docs/ARCHITECTURE.md for where the wire protocol sits in the
// boundary-adapter layer, and doc.go for the Table 3 API mapping.
//
// Run: go run ./examples/distributed
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"resin"
	"resin/internal/core"
	"resin/internal/sqldb"
	"resin/internal/wire"
)

// CredentialPolicy forbids exporting a credential anywhere but an email
// to its owner.
type CredentialPolicy struct {
	Owner string `json:"owner"`
}

// ExportCheck implements the credential flow rule.
func (p *CredentialPolicy) ExportCheck(ctx *resin.Context) error {
	if ctx.Type() == resin.KindEmail {
		if to, _ := ctx.GetString("email"); to == p.Owner {
			return nil
		}
	}
	return errors.New("credential of " + p.Owner + " may not flow here")
}

func init() { resin.RegisterPolicyClass("example.CredentialPolicy", &CredentialPolicy{}) }

func main() {
	backend := resin.NewRuntime()  // the database tier
	frontend := resin.NewRuntime() // the web tier

	// Backend: annotate a record, store it, and serve the database over
	// TCP. The wire carries the policy annotation with the bytes (it does
	// not export-check: both ends enforce the same assertions, like
	// DStar's mutually-trusting nodes).
	db := sqldb.Open(backend)
	db.MustExec("CREATE TABLE users (record TEXT)")
	record := core.Concat(
		core.NewString("user=alice;token="),
		backend.PolicyAdd(core.NewString("tok-o0o-secret"), &CredentialPolicy{Owner: "alice@corp"}),
	)
	if _, err := db.QueryRaw("INSERT INTO users (record) VALUES (?)", record); err != nil {
		panic(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := wire.NewServer(db, wire.Config{})
	go srv.Serve(lis) //nolint:errcheck
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()

	// Frontend: fetch the record; the policy is a fresh object
	// instantiated from the frontend's registered class.
	conn, err := wire.Dial(lis.Addr().String())
	if err != nil {
		panic(err)
	}
	defer conn.Close() //nolint:errcheck
	res, err := conn.QueryRaw("SELECT record FROM users")
	if err != nil {
		panic(err)
	}
	got := res.Get(0, "record").Str
	fmt.Println("frontend received:", got.Describe())

	// The restored policy guards the frontend's boundaries.
	http := resin.NewChannel(frontend, resin.KindHTTP, resin.ExportCheckFilter{})
	fmt.Println("render to browser: ", verdict(http.Write(got)))

	mail := resin.NewChannel(frontend, resin.KindEmail, resin.ExportCheckFilter{})
	mail.Context().Set("email", "alice@corp")
	fmt.Println("email to owner:    ", verdict(mail.Write(got)))

	// Character-level tracking survived the hop: the username half is
	// untainted and exportable on its own.
	username := got.Slice(0, got.Index(";"))
	fmt.Println("username only:     ", verdict(http.Write(username)))
}

func verdict(err error) string {
	if err == nil {
		return "ALLOWED"
	}
	if ae, ok := resin.IsAssertionError(err); ok {
		return "BLOCKED: " + ae.Err.Error()
	}
	return "error: " + err.Error()
}
