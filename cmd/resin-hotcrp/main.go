// Command resin-hotcrp demonstrates the §7.1 experiment of the RESIN
// paper: the HotCRP paper page — session recall, SQL queries,
// title/abstract/author-list rendering with two data flow assertions —
// generated with and without RESIN.
//
// It renders the page on both runtimes and checks what the paper's
// comparison rests on: the two pages are byte-identical, the author-list
// assertion fired and was absorbed (the anonymous paper shows
// "Anonymous"), and the §2 password-preview attack is blocked. It prints
// no timing. The overhead of tracking is `page_overhead_ratio` on the
// `page_hotcrp` workload of the standing benchmark (bench/README.md),
// which times the two runtimes in alternating blocks; timing them back
// to back, as this command once did, read 72–110 % run to run.
package main

import (
	"fmt"
	"os"
	"strings"

	"resin/internal/apps/hotcrp"
	"resin/internal/core"
)

func renderPage(withResin bool) (string, error) {
	app, render := hotcrp.NewBenchInstance(withResin)
	if err := render(); err != nil { // checks title and anonymization
		return "", err
	}
	resp, err := app.Server.Do("GET", "/paper", map[string]string{"id": "1"}, app.Server.NewSession("pc@conf.org"))
	if err != nil {
		return "", err
	}
	return resp.RawBody(), nil
}

func run() error {
	base, err := renderPage(false)
	if err != nil {
		return fmt.Errorf("unmodified page: %w", err)
	}
	tracked, err := renderPage(true)
	if err != nil {
		return fmt.Errorf("RESIN page: %w", err)
	}
	if tracked != base {
		return fmt.Errorf("tracked and untracked pages differ:\n%s\n--\n%s", tracked, base)
	}
	if !strings.Contains(tracked, "Anonymous") {
		return fmt.Errorf("author list of the anonymous paper was not replaced")
	}
	leaked, blocked := hotcrp.AttackPasswordPreview(true)
	if _, ok := core.IsAssertionError(blocked); leaked || !ok {
		return fmt.Errorf("password-preview attack not blocked (leaked=%v, err=%v)", leaked, blocked)
	}
	fmt.Printf("§7.1 — HotCRP paper page, unmodified and under RESIN (%d bytes)\n\n", len(tracked))
	fmt.Println("  bodies equal:                    yes")
	fmt.Println("  Anonymous shown:                 yes (author-list assertion fired, absorbed by output buffering)")
	fmt.Println("  password-preview attack blocked:", blocked)
	fmt.Println("\nOverhead: see page_overhead_ratio on page_hotcrp (bash bench/run.sh --workload page_hotcrp);")
	fmt.Println("the paper's figure is 1.33 (66 ms vs 88 ms per page).")
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "resin-hotcrp:", err)
		os.Exit(1)
	}
}
