package wiki

import (
	"strings"
	"testing"

	"resin/internal/core"
)

func TestIncludeDirectiveVulnerability(t *testing.T) {
	leaked, _ := AttackIncludeDirective(false)
	if !leaked {
		t.Fatal("unmodified wiki must leak through the include directive")
	}
	leaked, blockErr := AttackIncludeDirective(true)
	if leaked {
		t.Fatal("assertion failed to stop the include leak")
	}
	if blockErr == nil {
		t.Fatal("flow should be blocked by the PagePolicy")
	}
	ae, _ := core.IsAssertionError(blockErr)
	if _, ok := ae.Policy.(*PagePolicy); !ok {
		t.Errorf("blocking policy = %T", ae.Policy)
	}
}

func TestRawExportVulnerability(t *testing.T) {
	leaked, _ := AttackRawExport(false)
	if !leaked {
		t.Fatal("unmodified wiki must leak through raw export")
	}
	leaked, blockErr := AttackRawExport(true)
	if leaked || blockErr == nil {
		t.Fatalf("assertion should block raw export: leaked=%v err=%v", leaked, blockErr)
	}
}

func TestLegitimateAccessUnbroken(t *testing.T) {
	for _, on := range []bool{false, true} {
		ok, err := LegitimateRead(on)
		if err != nil || !ok {
			t.Errorf("assertions=%v: read ok=%v err=%v", on, ok, err)
		}
		ok, err = LegitimateWrite(on)
		if err != nil || !ok {
			t.Errorf("assertions=%v: write ok=%v err=%v", on, ok, err)
		}
	}
}

func TestDirectACLCheckStillWorks(t *testing.T) {
	// The app's own check on /view denies mallory even without RESIN.
	a := seeded(false)
	mallory := a.Server.NewSession("mallory")
	resp, err := a.Server.Do("GET", "/view", map[string]string{"page": "Secret"}, mallory)
	if err == nil || resp.Status != 403 {
		t.Errorf("direct view should be denied by the app: %v %d", err, resp.Status)
	}
}

func TestUnauthorizedDirectWrite(t *testing.T) {
	written, _ := UnauthorizedDirectWrite(false)
	if !written {
		t.Fatal("without the filter the direct write succeeds")
	}
	written, blockErr := UnauthorizedDirectWrite(true)
	if written || blockErr == nil {
		t.Fatalf("write filter should block: written=%v err=%v", written, blockErr)
	}
}

func TestAuthorizedDirectWrite(t *testing.T) {
	a := seeded(true)
	ctx := core.NewContext(core.KindFile)
	ctx.Set("user", "alice")
	if err := a.FS.WriteFile(pageDir("Secret")+"/rev99999", core.NewString("by alice"), ctx); err != nil {
		t.Fatalf("authorized direct write: %v", err)
	}
}

func TestModifyExistingRevisionGuarded(t *testing.T) {
	a := seeded(true)
	ctx := core.NewContext(core.KindFile)
	ctx.Set("user", "mallory")
	if err := a.FS.WriteFile(pageDir("Secret")+"/rev00001", core.NewString("defaced"), ctx); err == nil {
		t.Fatal("modifying an existing revision must be vetoed")
	}
	// Deleting a revision is a directory op, also guarded.
	if err := a.FS.Remove(pageDir("Secret")+"/rev00001", ctx); err == nil {
		t.Fatal("deleting a revision must be vetoed")
	}
}

// TestRevisionWrittenOutsideUpdateBodyGuarded: a revision file a writer
// creates with FS.WriteFile directly, not through the wiki's edit path,
// carries the page's PageWriteFilter from the moment it exists, so a
// non-writer's later overwrite is vetoed and the page keeps its text.
func TestRevisionWrittenOutsideUpdateBodyGuarded(t *testing.T) {
	a := seeded(true)
	as := func(user string) *core.Context {
		ctx := core.NewContext(core.KindFile)
		ctx.Set("user", user)
		return ctx
	}
	rev := pageDir("Secret") + "/rev00002"
	if err := a.FS.WriteFile(rev, core.NewString("revised by alice"), as("alice")); err != nil {
		t.Fatal(err)
	}
	if err := a.FS.WriteFile(rev, core.NewString("defaced"), as("mallory")); err == nil {
		t.Fatal("mallory overwrote a revision alice created outside updateBody")
	}
	if body, err := a.latestBody("Secret"); err != nil || body.Raw() != "revised by alice" {
		t.Fatalf("Secret reads %q (%v), want alice's revision", body.Raw(), err)
	}
}

// TestWriterModifiesExistingRevision is the allowed side of
// TestModifyExistingRevisionGuarded: a user on a page's write ACL — alice
// on Secret, anyone on Public — rewrites the page's existing revision in
// place, which the revision's PageWriteFilter.FilterWrite lets through,
// and the page then reads the new text.
func TestWriterModifiesExistingRevision(t *testing.T) {
	a := seeded(true)
	for _, w := range []struct{ page, user string }{{"Secret", "alice"}, {"Public", "mallory"}} {
		ctx := core.NewContext(core.KindFile)
		ctx.Set("user", w.user)
		text := "corrected by " + w.user
		if err := a.FS.WriteFile(pageDir(w.page)+"/rev00001", core.NewString(text), ctx); err != nil {
			t.Fatalf("%s editing %s's existing revision: %v", w.user, w.page, err)
		}
		if body, err := a.latestBody(w.page); err != nil || body.Raw() != text {
			t.Fatalf("%s after %s's edit reads %q (%v), want %q", w.page, w.user, body.Raw(), err, text)
		}
	}
}

func TestPagePolicyPersistsAcrossReload(t *testing.T) {
	a := seeded(true)
	body, err := a.latestBody("Secret")
	if err != nil {
		t.Fatal(err)
	}
	if !body.IsTainted() {
		t.Fatal("page body should carry its persisted PagePolicy")
	}
	ps := body.Policies().Policies()
	pp, ok := ps[0].(*PagePolicy)
	if !ok || len(pp.ACL) != 1 || pp.ACL[0] != "alice" {
		t.Errorf("restored policy = %#v", ps[0])
	}
}

func TestAssertionsSurviveRestart(t *testing.T) {
	// Build a wiki, seed it, then "restart": a fresh App over the same
	// filesystem. The persisted policies and filters keep protecting.
	old := seeded(true)
	restarted := NewWithFS(old.RT, old.FS, true)

	mallory := restarted.Server.NewSession("mallory")
	resp, err := restarted.Server.Do("GET", "/raw", map[string]string{"page": "Secret"}, mallory)
	if err == nil || strings.Contains(resp.RawBody(), "launch code") {
		t.Fatal("restart must not shed the read policy")
	}
	ctx := core.NewContext(core.KindFile)
	ctx.Set("user", "mallory")
	if err := restarted.FS.WriteFile(pageDir("Secret")+"/rev00001", core.NewString("defaced"), ctx); err == nil {
		t.Fatal("restart must not shed the write filter")
	}
	// Alice still works after the restart.
	alice := restarted.Server.NewSession("alice")
	resp, err = restarted.Server.Do("GET", "/view", map[string]string{"page": "Secret"}, alice)
	if err != nil || !strings.Contains(resp.RawBody(), "launch code") {
		t.Fatalf("alice after restart: %v %q", err, resp.RawBody())
	}
}

func TestACLHelpers(t *testing.T) {
	acl := ACL{Read: []string{"a", "b"}, Write: []string{"*"}}
	if !acl.May("a", "read") || acl.May("z", "read") {
		t.Error("read ACL wrong")
	}
	if !acl.May("anyone", "write") {
		t.Error("wildcard write wrong")
	}
	if _, err := seeded(true).PageACL("NoSuchPage"); err == nil {
		t.Error("missing page ACL should error")
	}
}

func TestRenderMissingInclude(t *testing.T) {
	a := seeded(true)
	out := a.render(core.NewString("x {{include:DoesNotExist}} y"))
	if !strings.Contains(out.Raw(), "[missing page]") {
		t.Errorf("render = %q", out.Raw())
	}
}

func TestEditDeniedByACL(t *testing.T) {
	a := seeded(true)
	mallory := a.Server.NewSession("mallory")
	resp, err := a.Server.Do("GET", "/edit",
		map[string]string{"page": "Secret", "body": "defaced"}, mallory)
	if err == nil || resp.Status != 403 {
		t.Errorf("edit should be denied: %v %d", err, resp.Status)
	}
}

func TestViewMissingPage(t *testing.T) {
	a := seeded(true)
	s := a.Server.NewSession("alice")
	resp, err := a.Server.Do("GET", "/view", map[string]string{"page": "Nope"}, s)
	if err == nil || resp.Status != 404 {
		t.Errorf("missing page: %v %d", err, resp.Status)
	}
}
