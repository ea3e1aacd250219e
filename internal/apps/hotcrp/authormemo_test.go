package hotcrp

import (
	"strings"
	"sync"
	"testing"

	"resin/internal/core"
)

// setAuthors rewrites paper 1's author list in the database. The cell
// keeps the AuthorListPolicy AddPaper gave it, so the only thing that
// changes is the database's answer to "is this user an author".
func setAuthors(t testing.TB, a *App, extra ...string) {
	t.Helper()
	seeded := DefaultPapers()[0]
	authors := a.RT.PolicyAdd(core.NewString(strings.Join(append(seeded.Authors, extra...), ", ")),
		&AuthorListPolicy{PaperID: seeded.ID, Anonymous: seeded.Anonymous, Authors: seeded.Authors})
	if _, err := a.DB.Exec(core.NewString("UPDATE papers SET authors = ? WHERE id = ?"), authors, seeded.ID); err != nil {
		t.Fatal(err)
	}
}

// render requests path for paper 1 as user and returns the body as far
// as it got, with the error that stopped it.
func render(a *App, path, user string) (string, error) {
	resp, err := a.Server.Do("GET", path, map[string]string{"id": "1"}, a.Server.NewSession(user))
	if resp == nil {
		return "", err
	}
	return resp.RawBody(), err
}

// TestAuthorshipFollowsCommits: each policy class that asks the database
// about authorship sees a commit that changes the answer on the very next
// render, and sees it reverted on the one after — the memo never serves a
// verdict from before the last commit. Each state renders three times:
// the second render stores the verdict and the third is a memo hit.
func TestAuthorshipFollowsCommits(t *testing.T) {
	for _, c := range []struct {
		policy, user, path, shown string
	}{
		// A PC member may read the paper but not its anonymous author list.
		{"AuthorListPolicy", "pc@conf.org", "/paper", "author@uni.edu"},
		// An outsider may read neither the paper nor its reviews.
		{"PaperPolicy", "rando@else.where", "/paper", "Data Flow Assertions"},
		{"ReviewPolicy", "rando@else.where", "/reviews", "Strong accept"},
	} {
		t.Run(c.policy, func(t *testing.T) {
			a := reviewApp(t, true)
			check := func(wantShown bool) {
				t.Helper()
				hits := authorMemo.Stats().Hits
				for i := 0; i < 3; i++ {
					body, err := render(a, c.path, c.user)
					shown := err == nil && strings.Contains(body, c.shown)
					if shown != wantShown {
						t.Fatalf("render %d: %q shown = %v, want %v (err=%v)\n%s", i, c.shown, shown, wantShown, err, body)
					}
					if c.path == "/paper" && err == nil && strings.Contains(body, "Anonymous") == shown {
						t.Fatalf("render %d: the page shows both or neither of the list and \"Anonymous\"\n%s", i, body)
					}
				}
				if authorMemo.Stats().Hits == hits {
					t.Fatal("no render hit the memo")
				}
			}
			check(false)
			setAuthors(t, a, c.user)
			check(true)
			setAuthors(t, a)
			check(false)
		})
	}
}

// TestAuthorshipFollowsSchemaChange: DDL moves the schema generation and
// not the commit frontier, so a policy held across DROP TABLE and CREATE
// TABLE — no row written in between — must ask the empty table and deny.
// The policy checks three times first, so its allow is a memo hit.
func TestAuthorshipFollowsSchemaChange(t *testing.T) {
	for _, p := range []core.Policy{
		&PaperPolicy{PaperID: 1},
		&AuthorListPolicy{PaperID: 1, Anonymous: true},
		&ReviewPolicy{PaperID: 1},
	} {
		a := newInstance(true)
		ctx := core.NewContext(core.KindHTTP)
		ctx.Set("db", a.DB)
		ctx.Set("user", "author@uni.edu")
		hits := authorMemo.Stats().Hits
		for i := 0; i < 3; i++ {
			if err := p.ExportCheck(ctx); err != nil {
				t.Fatalf("%T: an author is denied: %v", p, err)
			}
		}
		if authorMemo.Stats().Hits == hits {
			t.Fatalf("%T: no check hit the memo", p)
		}
		frontier := a.DB.Frontier()
		a.DB.MustExec("DROP TABLE papers")
		a.DB.MustExec("CREATE TABLE papers (id INT, title TEXT, abstract TEXT, authors TEXT, anonymous INT)")
		if a.DB.Frontier() != frontier {
			t.Fatalf("%T: DDL moved the frontier", p)
		}
		if err := p.ExportCheck(ctx); err == nil {
			t.Errorf("%T: allowed against an empty papers table", p)
		}
	}
}

// TestAuthorshipMemoConcurrent (run it with -race): renders as an author,
// as a PC member who never is one, and as the PC member whose authorship
// one goroutine keeps toggling. The toggling goroutine's own render after
// each commit must reflect that commit; the others' verdicts never
// change, except the toggled user's, which may read either state.
func TestAuthorshipMemoConcurrent(t *testing.T) {
	a := newInstance(true)
	a.AddUser(User{Email: "pc2@conf.org", Password: "pc2-pass", PC: true})
	const rounds = 50
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, r := range []struct {
		user    string
		shown   bool
		settled bool
	}{
		{"author@uni.edu", true, true},
		{"pc2@conf.org", false, true},
		{"pc@conf.org", false, false},
		{"author@uni.edu", true, true},
		{"pc2@conf.org", false, true},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				body, err := render(a, "/paper", r.user)
				if err != nil {
					t.Errorf("%s: %v", r.user, err)
					return
				}
				shown := strings.Contains(body, "author@uni.edu")
				if shown == strings.Contains(body, "Anonymous") {
					t.Errorf("%s: page shows neither or both:\n%s", r.user, body)
					return
				}
				if r.settled && shown != r.shown {
					t.Errorf("%s: list shown = %v, want %v", r.user, shown, r.shown)
					return
				}
			}
		}()
	}
	defer func() {
		close(done)
		wg.Wait()
	}()
	for i := 0; i < rounds && !t.Failed(); i++ {
		for _, add := range []bool{true, false} {
			if add {
				setAuthors(t, a, "pc@conf.org")
			} else {
				setAuthors(t, a)
			}
			body, err := render(a, "/paper", "pc@conf.org")
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(body, "author@uni.edu") != add {
				t.Fatalf("round %d: after the commit setting authorship %v the list shown = %v", i, add, !add)
			}
		}
	}
}
