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

// uploadGuard is a persistent filter object: its class name is what the
// encoding stores.
type uploadGuard struct {
	Dir string `json:"dir"`
}

func (*uploadGuard) FilterWrite(_ *core.Channel, data core.String, _ int64) (core.String, error) {
	return data, nil
}

// A filter's registered class name is how its encoding names it; a
// filter of an unregistered type has none and cannot be persisted.
func ExampleRegisteredFilterName() {
	core.RegisterFilterClass("example.UploadGuard", &uploadGuard{})
	for _, f := range []core.Filter{&uploadGuard{Dir: "/srv/uploads"}, core.WriteFilterFunc(nil)} {
		name, ok := core.RegisteredFilterName(f)
		fmt.Printf("%q %v\n", name, ok)
	}
	// Output:
	// "example.UploadGuard" true
	// "" false
}
