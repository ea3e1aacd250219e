package resin_test

import (
	"errors"
	"fmt"

	"resin"
	"resin/internal/core"
)

// chairOnly lets a value leave only through a boundary whose context
// names the chair as its user.
type chairOnly struct{}

func (*chairOnly) ExportCheck(ctx *resin.Context) error {
	if u, _ := ctx.GetString("user"); u != "chair" {
		return errors.New("only the chair may see this")
	}
	return nil
}

// Arithmetic on a tracked integer carries its policies into the result.
func ExampleNewIntPolicy() {
	score := resin.NewIntPolicy(4, &chairOnly{})
	total, err := score.Add(resin.NewInt(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(total.Value(), total.IsTainted(), total.Policies())
	// Output:
	// 5 true {chairOnly}
}

// A context describes the boundary a value is leaving through; a
// policy's ExportCheck reads it to decide.
func ExampleNewContext() {
	ctx := resin.NewContext(resin.KindEmail)
	ctx.Set("user", "author")
	fmt.Println(ctx.Type(), (&chairOnly{}).ExportCheck(ctx))
	ctx.Set("user", "chair")
	fmt.Println(ctx.Type(), (&chairOnly{}).ExportCheck(ctx))
	// Output:
	// email only the chair may see this
	// email <nil>
}

// untrusted marks bytes that came in from the network.
type untrusted struct{}

func (*untrusted) ExportCheck(*resin.Context) error { return nil }

// A taint filter on an input boundary attaches its policies to every
// byte read; its set is built once, so every read shares it.
func ExampleNewTaintReadFilter() {
	in := resin.NewChannel(resin.NewRuntime(), resin.KindSocket, resin.NewTaintReadFilter(&untrusted{}))
	a, _ := in.Read(resin.NewString("GET /"))
	b, _ := in.Read(resin.NewString("HEAD /"))
	fmt.Println(a.Raw(), a.Policies())
	fmt.Println(b.Raw(), a.Policies() == b.Policies())
	// Output:
	// GET / {untrusted}
	// HEAD / true
}

// ownerWrite is a persistent write filter: only its owner may write
// through the boundary it guards.
type ownerWrite struct {
	Owner string `json:"owner"`
}

func (f *ownerWrite) FilterWrite(ch *resin.Channel, data resin.String, _ int64) (resin.String, error) {
	if u, _ := ch.Context().GetString("user"); u != f.Owner {
		return resin.String{}, fmt.Errorf("%s may not write %s's file", u, f.Owner)
	}
	return data, nil
}

// A registered filter class can be stored with the file it guards and
// re-instantiated from its encoding, as the file system keeps filters in
// extended attributes.
func ExampleRegisterFilterClass() {
	resin.RegisterFilterClass("example.OwnerWrite", &ownerWrite{})
	enc, err := core.EncodeFilter(&ownerWrite{Owner: "alice"})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(enc))
	f, err := core.DecodeFilter(enc)
	if err != nil {
		panic(err)
	}
	out := resin.NewChannel(resin.NewRuntime(), resin.KindFile, f)
	out.Context().Set("user", "mallory")
	fmt.Println(out.Write(resin.NewString("defaced")))
	// Output:
	// {"class":"example.OwnerWrite","fields":{"owner":"alice"}}
	// mallory may not write alice's file
}
