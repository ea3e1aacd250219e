package main

// Example runs the program: the read ACL, stored in the file's extended
// attributes, stops the include-directive leak.
func Example() {
	main()
	// Output:
	// == MoinMoin read ACL under RESIN (Figure 5) ==
	//
	// unmodified wiki, include-directive attack: leaked=true
	// RESIN wiki, same attack:                   leaked=false
	// blocked by policy *wiki.PagePolicy at http boundary
	//
	// page content read back from the filesystem:
	//   "only alice may read this" [0:24 {wiki.PagePolicy}]
	//
	// The annotation lives in the file's extended attributes, so the policy
	// outlives the process and is enforced by any RESIN-aware reader.
}
