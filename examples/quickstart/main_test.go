package main

// Example runs the program: the Figure 2 policy decides each boundary,
// down to a slice of the protected string.
func Example() {
	main()
	// Output:
	// email to owner:       delivered
	// email to attacker:    BLOCKED (unauthorized disclosure)
	// HTTP to regular user: BLOCKED (unauthorized disclosure)
	// HTTP to chair:        delivered
	// greeting slice:       delivered
}
