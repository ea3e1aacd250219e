package main

// Example runs the program: the approved theme's func/return runs, and
// both the direct request and the include of the upload are refused.
func Example() {
	main()
	// Output:
	// running installed theme:
	//   output: == ocean theme ==
	// running uploaded 'image':
	//   error: resin: data flow assertion failed: filter object vetoed read_check at code boundary: script: not executable (missing CodeApproval policy)
	// including the upload from approved code:
	//   error: resin: data flow assertion failed: filter object vetoed read_check at code boundary: script: not executable (missing CodeApproval policy)
	//
	// Every character of interpreted code must carry the CodeApproval
	// policy; uploads never do, so no include/eval/direct-request path
	// can execute them.
}
