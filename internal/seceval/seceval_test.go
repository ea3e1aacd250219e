package seceval

import (
	"strings"
	"testing"
)

// TestTable4Reproduces is the headline security result: every counted
// vulnerability is exploitable without its assertion and blocked with it,
// and no legitimate flow breaks.
func TestTable4Reproduces(t *testing.T) {
	rep, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		for _, sc := range row.Scenarios {
			if sc.Kind == "depth" {
				continue
			}
			if !sc.VulnerableBaseline {
				t.Errorf("%s / %s: vulnerability missing from the baseline", row.Application, sc.Name)
			}
			if !sc.Blocked {
				t.Errorf("%s / %s: assertion did not block (err=%q)", row.Application, sc.Name, sc.BlockErr)
			}
		}
	}
	if len(rep.LegitFailed) != 0 {
		t.Errorf("legitimate flows broken: %v", rep.LegitFailed)
	}
	if !rep.AllOK() {
		t.Error("AllOK should be true")
	}
}

// TestTable4Counts pins the table's shape to the paper's counts, and each
// row's measured Go lines, so code moved into or out of an assertion's
// BEGIN/END block shows here.
func TestTable4Counts(t *testing.T) {
	rep, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][4]int{ // key → {known, discovered, prevented, measured LOC}
		"admissions-sql":   {0, 3, 3, 3},
		"moin-read":        {2, 0, 2, 10},
		"moin-write":       {0, 0, 0, 18},
		"filethingie":      {0, 1, 1, 39},
		"hotcrp-password":  {1, 0, 1, 14},
		"hotcrp-paper":     {0, 0, 0, 16},
		"hotcrp-authors":   {0, 0, 0, 53},
		"myphpscripts":     {1, 0, 1, 6},
		"phpnavigator":     {0, 1, 1, 39},
		"phpbb-access":     {1, 3, 4, 10},
		"phpbb-xss":        {4, 0, 4, 3},
		"script-injection": {5, 0, 5, 5},
	}
	for _, row := range rep.Rows {
		w, ok := want[row.Key]
		if !ok {
			t.Errorf("unexpected row %q", row.Key)
			continue
		}
		if row.Known != w[0] || row.Discovered != w[1] || row.Prevented != w[2] {
			t.Errorf("%s: known/discovered/prevented = %d/%d/%d, want %d/%d/%d",
				row.Key, row.Known, row.Discovered, row.Prevented, w[0], w[1], w[2])
		}
		if row.MeasuredLOC != w[3] {
			t.Errorf("%s: measured assertion LOC = %d, want %d", row.Key, row.MeasuredLOC, w[3])
		}
	}
	known, discovered, prevented := rep.Totals()
	if known != 14 || discovered != 8 || prevented != 22 {
		t.Errorf("totals = %d/%d/%d, want 14/8/22", known, discovered, prevented)
	}
}

// TestAssertionsAreSmall checks the paper's qualitative claim: every
// assertion is tens of lines, and assertion size does not scale with
// application size.
func TestAssertionsAreSmall(t *testing.T) {
	rep, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.MeasuredLOC == 0 {
			t.Errorf("%s: assertion LoC not measured (section %q)", row.Key, row.Section)
		}
		if row.MeasuredLOC > 100 {
			t.Errorf("%s: assertion is %d lines — no longer 'tens of lines'", row.Key, row.MeasuredLOC)
		}
	}
	// The largest app (phpBB, 172k lines) must not have the largest
	// assertion — size independence.
	var phpbbLOC, smallestAppLOC int
	for _, row := range rep.Rows {
		if row.Key == "phpbb-xss" {
			phpbbLOC = row.MeasuredLOC
		}
		if row.Key == "myphpscripts" {
			smallestAppLOC = row.MeasuredLOC
		}
	}
	if phpbbLOC > 20*smallestAppLOC {
		t.Errorf("assertion size appears to scale with app size: phpbb=%d myphpscripts=%d",
			phpbbLOC, smallestAppLOC)
	}
}

func TestCountAssertionLOC(t *testing.T) {
	src := `
// prelude
// BEGIN ASSERTION: demo
// a comment inside

code line one
code line two // trailing comment counts as code
// END ASSERTION
code outside
`
	if got := CountAssertionLOC(src, "demo"); got != 2 {
		t.Errorf("LOC = %d, want 2", got)
	}
	if got := CountAssertionLOC(src, "missing"); got != 0 {
		t.Errorf("missing section LOC = %d, want 0", got)
	}
}

func TestRenderTable(t *testing.T) {
	rep, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.RenderTable()
	for _, want := range []string{
		"Table 4",
		"HotCRP",
		"phpBB",
		"MoinMoin",
		"Flume comparison",
		"14 + 8 = 22",
		"CVE-2008-6548",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("rendered table contains failures:\n%s", out)
	}
}

func TestCatalogConsistency(t *testing.T) {
	rows, scenarios, legit := Catalog()
	keys := make(map[string]bool)
	for _, r := range rows {
		if keys[r.Key] {
			t.Errorf("duplicate row key %q", r.Key)
		}
		keys[r.Key] = true
	}
	for _, sc := range scenarios {
		if !keys[sc.Row] {
			t.Errorf("scenario %q references unknown row %q", sc.Name, sc.Row)
		}
		switch sc.Kind {
		case "known", "discovered", "depth":
		default:
			t.Errorf("scenario %q has bad kind %q", sc.Name, sc.Kind)
		}
	}
	if len(legit) < 10 {
		t.Errorf("expected at least 10 legitimate-flow checks, got %d", len(legit))
	}
}
