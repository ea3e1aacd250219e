// Password vault example: persistent policies end to end (§3.4.1).
//
// A secret is stored in a SQL database and in a file; its policy objects
// are serialized into the database's policy columns and the file's
// extended attributes, survive "restarts" (fresh policy objects), and are
// still enforced when the data is fetched back out — even through an
// adversary-controlled SELECT or a direct HTTP fetch of the file.
//
// Deserialized policy sets are canonicalized through the runtime's
// intern table (docs/ARCHITECTURE.md, "Policy-set interning"), so
// re-fetched data stays on the tracking fast paths; doc.go maps the
// serialization API (RegisterPolicyClass, EncodeSpans/DecodeSpans).
//
// Run: go run ./examples/password-vault
package main

import (
	"errors"
	"fmt"

	"resin"
	"resin/internal/core"
	"resin/internal/httpd"
	"resin/internal/sanitize"
	"resin/internal/sqldb"
	"resin/internal/vfs"
)

// VaultPolicy forbids every export of a vault secret.
type VaultPolicy struct {
	Owner string `json:"owner"`
}

// ExportCheck vetoes all boundaries.
func (p *VaultPolicy) ExportCheck(ctx *resin.Context) error {
	return errors.New("vault secret of " + p.Owner + " may not leave the system")
}

func init() { resin.RegisterPolicyClass("example.VaultPolicy", &VaultPolicy{}) }

func main() {
	rt := resin.NewRuntime()
	secret := rt.PolicyAdd(resin.NewString("corp-master-key-0451"), &VaultPolicy{Owner: "ops"})

	// Store in the database: the RESIN SQL filter persists the policy in
	// a shadow column (Figure 4).
	db := sqldb.Open(rt)
	db.MustExec("CREATE TABLE vault (name TEXT, secret TEXT)")
	if _, err := db.Query(core.Concat(
		core.NewString("INSERT INTO vault (name, secret) VALUES ('master', "),
		sanitize.SQLQuote(secret), core.NewString(")"),
	)); err != nil {
		panic(err)
	}

	// Store in a file: the default file filter persists the policy in the
	// file's extended attributes.
	fs := vfs.New(rt)
	fs.MkdirAll("/www/backup", nil)
	if err := fs.WriteFile("/www/backup/keys.txt", secret, nil); err != nil {
		panic(err)
	}

	// Adversary move 1: a SQL injection got them an arbitrary SELECT.
	res, err := db.QueryRaw("SELECT name, secret FROM vault")
	if err != nil {
		panic(err)
	}
	leaked := res.Get(0, "secret").Str
	fmt.Println("SELECT returned the bytes:", leaked.Raw() != "")
	fmt.Println("...but they carry:", leaked.Policies())

	httpOut := resin.NewChannel(rt, resin.KindHTTP, resin.ExportCheckFilter{})
	fmt.Println("exporting query result over HTTP:", errString(httpOut.Write(leaked)))

	// Adversary move 2: fetch the backup file straight from the web root.
	srv := httpd.NewServer(rt)
	srv.ServeStatic(fs, "/www")
	resp, err := srv.Do("GET", "/backup/keys.txt", nil, nil)
	fmt.Println("fetching the backup file via HTTP:", errString(err), "body:", fmt.Sprintf("%q", resp.RawBody()))

	fmt.Println()
	fmt.Println("The policy was restored from its serialized class name and fields —")
	fmt.Println("the same object on every read — it guards the data, not the code paths.")
}

func errString(err error) string {
	if err == nil {
		return "ALLOWED"
	}
	if ae, ok := resin.IsAssertionError(err); ok {
		return "BLOCKED: " + ae.Err.Error()
	}
	return "error: " + err.Error()
}
