package hotcrp

import (
	"strings"
	"testing"

	"resin/internal/core"
)

func TestAttackPasswordPreviewVulnerableWithoutAssertion(t *testing.T) {
	leaked, _ := AttackPasswordPreview(false)
	if !leaked {
		t.Fatal("unmodified HotCRP must leak the password (the bug must exist)")
	}
}

func TestAttackPasswordPreviewBlockedWithAssertion(t *testing.T) {
	leaked, blockErr := AttackPasswordPreview(true)
	if leaked {
		t.Fatal("assertion failed to stop the disclosure")
	}
	if blockErr == nil {
		t.Fatal("the flow should have been blocked by an assertion error")
	}
	ae, _ := core.IsAssertionError(blockErr)
	if _, ok := ae.Policy.(*PasswordPolicy); !ok {
		t.Errorf("blocking policy = %T", ae.Policy)
	}
}

func TestLegitimateReminderWorksBothWays(t *testing.T) {
	for _, on := range []bool{false, true} {
		delivered, err := LegitimateReminder(on)
		if err != nil {
			t.Fatalf("assertions=%v: %v", on, err)
		}
		if !delivered {
			t.Errorf("assertions=%v: reminder not delivered", on)
		}
	}
}

func TestChairPreviewAllowed(t *testing.T) {
	for _, on := range []bool{false, true} {
		shown, err := ChairPreview(on)
		if err != nil {
			t.Fatalf("assertions=%v: %v", on, err)
		}
		if !shown {
			t.Errorf("assertions=%v: chair preview should show the message", on)
		}
	}
}

func TestPaperPageAnonymizedForPC(t *testing.T) {
	for _, on := range []bool{false, true} {
		body, err := PaperPageForPC(on)
		if err != nil {
			t.Fatalf("assertions=%v: %v", on, err)
		}
		if !strings.Contains(body, "Data Flow Assertions") {
			t.Errorf("assertions=%v: title missing from %q", on, body)
		}
		if !strings.Contains(body, "Anonymous") {
			t.Errorf("assertions=%v: author list not anonymized", on)
		}
		if strings.Contains(body, "author@uni.edu") {
			t.Errorf("assertions=%v: author list leaked", on)
		}
	}
}

func TestPaperPageAuthorsVisibleToAuthor(t *testing.T) {
	for _, on := range []bool{false, true} {
		body, err := PaperPageForAuthor(on)
		if err != nil {
			t.Fatalf("assertions=%v: %v", on, err)
		}
		if !strings.Contains(body, "author@uni.edu") {
			t.Errorf("assertions=%v: author should see the author list: %q", on, body)
		}
	}
}

func TestOutsiderPaperAccess(t *testing.T) {
	leaked, _ := AttackOutsiderPaperAccess(false)
	if !leaked {
		t.Fatal("unmodified app shows papers to any logged-in user")
	}
	leaked, blockErr := AttackOutsiderPaperAccess(true)
	if leaked || blockErr == nil {
		t.Fatalf("assertion should block outsiders: leaked=%v err=%v", leaked, blockErr)
	}
}

func TestNonAnonymousPaperVisibleToPC(t *testing.T) {
	a := newInstance(true)
	pc := a.Server.NewSession("pc@conf.org")
	resp, err := a.Server.Do("GET", "/paper", map[string]string{"id": "2"}, pc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.RawBody(), "author@uni.edu") {
		t.Errorf("PC should see authors of non-anonymous papers: %q", resp.RawBody())
	}
}

func TestPasswordPersistsPolicyThroughDB(t *testing.T) {
	a := newInstance(true)
	res, err := a.DB.QueryRaw("SELECT password FROM users WHERE email = 'victim@conf.org'")
	if err != nil {
		t.Fatal(err)
	}
	pw := res.Get(0, "password").Str
	if !pw.IsTainted() {
		t.Fatal("password came back from the DB without its policy")
	}
	found := false
	for _, p := range pw.Policies().Policies() {
		if pp, ok := p.(*PasswordPolicy); ok && pp.Email == "victim@conf.org" {
			found = true
		}
	}
	if !found {
		t.Error("PasswordPolicy with the owner's email should be attached")
	}
}

func TestBadRequests(t *testing.T) {
	a := newInstance(true)
	sess := a.Server.NewSession("pc@conf.org")
	if resp, err := a.Server.Do("GET", "/paper", map[string]string{"id": "zzz"}, sess); err == nil || resp.Status != 400 {
		t.Error("bad id should 400")
	}
	if resp, err := a.Server.Do("GET", "/paper", map[string]string{"id": "99"}, sess); err == nil || resp.Status != 404 {
		t.Error("missing paper should 404")
	}
	if resp, err := a.Server.Do("GET", "/remind", map[string]string{"email": "nobody@x"}, sess); err == nil || resp.Status != 404 {
		t.Error("missing account should 404")
	}
}

func TestAssertionSourceEmbedded(t *testing.T) {
	if !strings.Contains(AssertionSource, "BEGIN ASSERTION: hotcrp-password-disclosure") {
		t.Error("assertion source must carry section markers for LoC accounting")
	}
	if !strings.Contains(AssertionSource, "PasswordPolicy") {
		t.Error("assertion source incomplete")
	}
}

// TestBenchPageSameOnBothRuntimes is the §7.1 comparison's premise: the
// page a PC member gets for the anonymous paper is byte-identical with
// and without RESIN, author list replaced by "Anonymous" on both.
func TestBenchPageSameOnBothRuntimes(t *testing.T) {
	var bodies [2]string
	for i, on := range []bool{false, true} {
		app, render := NewBenchInstance(on)
		if err := render(); err != nil {
			t.Fatalf("resin=%v: %v", on, err)
		}
		resp, err := app.Server.Do("GET", "/paper", map[string]string{"id": "1"}, app.Server.NewSession("pc@conf.org"))
		if err != nil {
			t.Fatalf("resin=%v: %v", on, err)
		}
		bodies[i] = resp.RawBody()
		if !strings.Contains(bodies[i], "Anonymous") {
			t.Errorf("resin=%v: author list not anonymized: %q", on, bodies[i])
		}
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("tracked and untracked pages differ:\n%s\n--\n%s", bodies[1], bodies[0])
	}
}
