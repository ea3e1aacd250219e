package main

// Example runs the program: the SQL injection and XSS assertions block
// the tainted flows and let the sanitized ones through.
func Example() {
	main()
	// Output:
	// == SQL injection (§5.3) ==
	// unsanitized injection: BLOCKED: sqldb: SQL injection assertion (tainted-structure) rejected query: untrusted bytes 39..56 (" OR role = 'admin")
	// properly quoted:       rows=0 err=<nil>
	// bound via ?:           rows=0 err=<nil> (payload is just a value)
	// bound benign lookup:   rows=1 err=<nil>
	// benign but unmarked:   BLOCKED: sqldb: SQL injection assertion (sanitized-markers) rejected query: untrusted bytes 37..40 ("bob") (strategy 1 catches the missing sanitizer call itself)
	//
	// == Cross-site scripting (§5.3) ==
	// escaped handler:   ALLOWED body: <p>hello, &lt;script&gt;steal()&lt;/script&gt;</p>
	// vulnerable handler: BLOCKED: httpd: XSS assertion (sanitized-markers) rejected output at byte 10: untrusted data reached HTML output without passing the HTML sanitizer
	//
	// One assertion covers every handler — including ones added later by
	// programmers who never heard of the sanitization rules.
}
