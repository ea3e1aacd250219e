package core_test

import (
	"fmt"

	"resin/internal/core"
)

// userInput marks text that came from a user; it allows every export.
type userInput struct{}

func (*userInput) ExportCheck(*core.Context) error { return nil }

// The comparisons read only the raw text: a tracked string's policies
// neither change their answers nor flow into them, since control flow is
// not tracked.
func ExampleString_HasPrefix() {
	path := core.NewStringPolicy("/srv/files/home/alice/notes.txt", &userInput{})
	fmt.Println(path.HasPrefix("/srv/files/home/alice/"))
	fmt.Println(path.HasPrefix("/srv/config/"))
	// Output:
	// true
	// false
}

func ExampleString_HasSuffix() {
	name := core.Concat(core.NewString("report"), core.NewStringPolicy(".php", &userInput{}))
	fmt.Println(name.HasSuffix(".php"))
	fmt.Println(name.HasSuffix(".txt"))
	// Output:
	// true
	// false
}

func ExampleString_EqualsRaw() {
	plain := core.NewString("admin")
	tainted := core.NewStringPolicy("admin", &userInput{})
	fmt.Println(plain.EqualsRaw("admin"), tainted.EqualsRaw("admin"))
	fmt.Println(tainted.EqualsRaw("Admin"))
	fmt.Println(tainted.Policies().Len() > 0)
	// Output:
	// true true
	// false
	// true
}
