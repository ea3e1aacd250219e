package uploadapps

import (
	"errors"
	"strings"
	"testing"

	"resin/internal/script"
)

func checkAttack(t *testing.T, name string, fn func(bool) (bool, error)) {
	t.Helper()
	executed, _ := fn(false)
	if !executed {
		t.Errorf("%s: code execution must succeed without the assertion", name)
	}
	executed, blockErr := fn(true)
	if executed {
		t.Errorf("%s: assertion failed to stop code execution", name)
	}
	if blockErr == nil {
		t.Errorf("%s: execution should be blocked by an assertion error", name)
	}
}

func TestAllFiveScriptInjections(t *testing.T) {
	checkAttack(t, "phpbb-attachment-mod", AttackPhpBBAttachmentMod)
	checkAttack(t, "kwalbum", AttackKwalbum)
	checkAttack(t, "awstats-totals", AttackAWStatsTotals)
	checkAttack(t, "phpmyadmin", AttackPhpMyAdmin)
	checkAttack(t, "wportfolio", AttackWPortfolio)
}

func TestBlockedByNotExecutable(t *testing.T) {
	_, blockErr := AttackKwalbum(true)
	if !errors.Is(blockErr, script.ErrNotExecutable) {
		t.Errorf("block error should be ErrNotExecutable: %v", blockErr)
	}
}

func TestLegitimateRunUnbroken(t *testing.T) {
	for _, on := range []bool{false, true} {
		ok, err := LegitimateRun(on)
		if err != nil || !ok {
			t.Errorf("assertions=%v: ok=%v err=%v", on, ok, err)
		}
	}
}

func TestAttachmentExtensionCheckWorks(t *testing.T) {
	// The mod's own check rejects a bare script extension — the bug is
	// only the multi-extension case.
	a := newInstance(false)
	s := a.Server.NewSession("x")
	resp, err := a.Server.Do("GET", "/attach",
		map[string]string{"name": "evil.rsl", "content": evilCode}, s)
	if err == nil || resp.Status != 400 {
		t.Error("bare .rsl attachment should be rejected by the mod's own check")
	}
}

func TestRunRefusesNonScripts(t *testing.T) {
	a := newInstance(true)
	s := a.Server.NewSession("x")
	resp, err := a.Server.Do("GET", "/run", map[string]string{"script": "app/readme.txt"}, s)
	if err == nil || resp.Status != 404 {
		t.Errorf("non-script run: %v %d", err, resp.Status)
	}
	// Traversal out of the site root 404s.
	resp, err = a.Server.Do("GET", "/run", map[string]string{"script": "../etc/x.rsl"}, s)
	if err == nil || resp.Status == 200 {
		t.Errorf("traversal run: %v %d", err, resp.Status)
	}
}

func TestBenignStatsBlockedOnlyWithAssertion(t *testing.T) {
	// Strategy note from the paper: eval of runtime-constructed code can
	// never carry CodeApproval, so the assertion disables the eval-based
	// feature outright — the safe behaviour.
	a := newInstance(false)
	s := a.Server.NewSession("v")
	resp, err := a.Server.Do("GET", "/stats", map[string]string{"sort": "name"}, s)
	if err != nil || !strings.Contains(resp.RawBody(), "sorted by name") {
		t.Errorf("baseline stats: %v %q", err, resp.RawBody())
	}
	a2 := newInstance(true)
	s2 := a2.Server.NewSession("v")
	if _, err := a2.Server.Do("GET", "/stats", map[string]string{"sort": "name"}, s2); err == nil {
		t.Error("eval-based stats must be refused under the assertion")
	}
}

func TestAssertionSourceEmbedded(t *testing.T) {
	if !strings.Contains(AssertionSource, "BEGIN ASSERTION: script-injection") {
		t.Error("assertion marker missing")
	}
}

// TestDeepStatsFailsOneRequest: a million nested calls spliced into the
// eval'd sort code fail that request with a SyntaxError instead of
// overflowing the parser's stack, and the next request is served.
func TestDeepStatsFailsOneRequest(t *testing.T) {
	a := newInstance(false)
	s := a.Server.NewSession("v")
	const n = 1000000
	deep := `"; echo ` + strings.Repeat("secret(", n) + strings.Repeat(")", n) + `; let k = "`
	resp, err := a.Server.Do("GET", "/stats", map[string]string{"sort": deep}, s)
	var se *script.SyntaxError
	if !errors.As(err, &se) || resp.Status != 500 {
		t.Errorf("deep /stats: status %d, err %v; want 500 and a SyntaxError", resp.Status, err)
	}
	resp, err = a.Server.Do("GET", "/stats", map[string]string{"sort": "name"}, s)
	if err != nil || !strings.Contains(resp.RawBody(), "sorted by name") {
		t.Errorf("next /stats: %v %q", err, resp.RawBody())
	}
}
