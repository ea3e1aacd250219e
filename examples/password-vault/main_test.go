package main

// Example runs the program: the policy survives SQL and file storage and
// still blocks both HTTP exfiltration paths.
func Example() {
	main()
	// Output:
	// SELECT returned the bytes: true
	// ...but they carry: {example.VaultPolicy, resin.SQLSanitized}
	// exporting query result over HTTP: BLOCKED: vault secret of ops may not leave the system
	// fetching the backup file via HTTP: BLOCKED: vault secret of ops may not leave the system body: ""
	//
	// The policy was restored from its serialized class name and fields —
	// the same object on every read — it guards the data, not the code paths.
}
