package hotcrp

// The RESIN data flow assertions for HotCRP (Table 4). Each assertion is
// delimited by BEGIN/END markers; the security evaluation harness embeds
// this file and reports the line count of each assertion, reproducing the
// "Assertion LOC" column.

import (
	_ "embed"
	"errors"
	"strings"
	"sync/atomic"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// AssertionSource is this file's source, embedded for LoC accounting.
//
//go:embed assertions.go
var AssertionSource string

// BEGIN ASSERTION: hotcrp-password-disclosure

// PasswordPolicy is the policy object of Figure 2: "this policy only
// allows a password to be disclosed to the user's own email address or to
// the program chair".
type PasswordPolicy struct {
	Email string `json:"email"`
}

// ExportCheck implements Data Flow Assertion 5.
func (p *PasswordPolicy) ExportCheck(ctx *core.Context) error {
	if ctx.Type() == core.KindEmail {
		if to, _ := ctx.GetString("email"); to == p.Email {
			return nil
		}
	}
	if ctx.Type() == core.KindHTTP && ctx.GetBool("privChair") {
		return nil
	}
	return errors.New("unauthorized disclosure")
}

// END ASSERTION

// BEGIN ASSERTION: hotcrp-paper-access

// PaperPolicy guards a paper's title and abstract: only PC members, the
// chair, and the paper's own authors may receive them.
type PaperPolicy struct {
	PaperID int `json:"paper_id"`
}

// ExportCheck allows PC members, the chair, and the paper's authors.
func (p *PaperPolicy) ExportCheck(ctx *core.Context) error {
	if ctx.Type() != core.KindHTTP {
		return errors.New("papers may leave only via HTTP")
	}
	if ctx.GetBool("privChair") || ctx.GetBool("pc") {
		return nil
	}
	user, _ := ctx.GetString("user")
	if user != "" && paperHasAuthor(ctx, p.PaperID, user) {
		return nil
	}
	return errors.New("insufficient access to paper")
}

// END ASSERTION

// BEGIN ASSERTION: hotcrp-author-list

// AuthorListPolicy guards the author list of a submission: for anonymous
// submissions, PC members must not see it (§5.5); only the authors
// themselves and the program chair may.
type AuthorListPolicy struct {
	PaperID   int      `json:"paper_id"`
	Anonymous bool     `json:"anonymous"`
	Authors   []string `json:"authors"`
}

// ExportCheck denies anonymous author lists to everyone but the authors
// and the chair; it re-checks authorship against the database when a
// handle is available (the extra code the paper notes makes this the
// largest assertion).
func (p *AuthorListPolicy) ExportCheck(ctx *core.Context) error {
	if ctx.Type() != core.KindHTTP {
		return errors.New("author lists may leave only via HTTP")
	}
	if ctx.GetBool("privChair") {
		return nil
	}
	user, _ := ctx.GetString("user")
	isAuthor := false
	for _, a := range p.Authors {
		if a == user {
			isAuthor = true
		}
	}
	if paperHasAuthor(ctx, p.PaperID, user) {
		isAuthor = true
	}
	if !p.Anonymous {
		if ctx.GetBool("pc") || isAuthor {
			return nil
		}
		return errors.New("insufficient access to author list")
	}
	if isAuthor {
		return nil
	}
	return errors.New("author list is anonymized")
}

// queryPaperHasAuthor issues a database query to decide authorship,
// reusing the application's own data through the channel context.
func queryPaperHasAuthor(ctx *core.Context, paperID int, user string) bool {
	dbv, ok := ctx.Get("db")
	if !ok || user == "" {
		return false
	}
	db, ok := dbv.(*sqldb.DB)
	if !ok {
		return false
	}
	res, err := db.Query(core.NewString("SELECT authors FROM papers WHERE id = ?"), int64(paperID))
	if err != nil || res.Len() == 0 {
		return false
	}
	for _, part := range strings.Split(res.Get(0, "authors").Str.Raw(), ",") {
		if strings.TrimSpace(part) == user {
			return true
		}
	}
	return false
}

// END ASSERTION

// authorMemo remembers queryPaperHasAuthor's answers, both outcomes: the
// §7.1 page's check is a deny. An authorKey names the database state the
// query read. The schema generation is process-unique, so it also names
// the engine, and DDL moves it without moving the frontier; every
// committed write moves the frontier. An answer is stored only if neither
// moved while its query ran, so a hit is what the query would answer now.
var authorMemo = core.NewCache[authorKey, bool](4096, 0, 0)

// lastMiss is the state the latest memo miss read. A miss stores its
// answer only if the miss before it read the same state: while a commit
// lands between every two checks no entry would ever be hit, and each
// store would only add its cost to the query's. (Two databases checked in
// alternation therefore store nothing, and cost what the query does.)
// lastMiss decides nothing else, so its two halves need not be read or
// written together.
var lastMiss struct{ gen, frontier atomic.Uint64 }

type authorKey struct {
	gen, frontier uint64
	paperID       int
	user          string
}

// paperHasAuthor is queryPaperHasAuthor memoized at the database's commit
// frontier: a page rendered again before any commit lands skips the query.
func paperHasAuthor(ctx *core.Context, paperID int, user string) bool {
	dbv, _ := ctx.Get("db")
	db, ok := dbv.(*sqldb.DB)
	if !ok || user == "" {
		return queryPaperHasAuthor(ctx, paperID, user)
	}
	k := authorKey{db.Engine().SchemaGen(), db.Frontier(), paperID, user}
	if v, ok := authorMemo.Get(k); ok {
		return v
	}
	admit := lastMiss.gen.Load() == k.gen && lastMiss.frontier.Load() == k.frontier
	lastMiss.gen.Store(k.gen)
	lastMiss.frontier.Store(k.frontier)
	v := queryPaperHasAuthor(ctx, paperID, user)
	if admit && db.Engine().SchemaGen() == k.gen && db.Frontier() == k.frontier {
		authorMemo.Add(k, v, 0)
	}
	return v
}

func init() {
	core.RegisterPolicyClass("hotcrp.PasswordPolicy", &PasswordPolicy{})
	core.RegisterPolicyClass("hotcrp.PaperPolicy", &PaperPolicy{})
	core.RegisterPolicyClass("hotcrp.AuthorListPolicy", &AuthorListPolicy{})
}
