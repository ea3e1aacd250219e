package main

// Example runs the program: the credential crosses a real TCP socket and
// its policy still decides each boundary on the frontend.
func Example() {
	main()
	// Output:
	// frontend received: "user=alice;token=tok-o0o-secret" [17:31 {example.CredentialPolicy}]
	// render to browser:  BLOCKED: credential of alice@corp may not flow here
	// email to owner:     ALLOWED
	// username only:      ALLOWED
}
