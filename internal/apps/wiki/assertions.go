package wiki

// The RESIN data flow assertions for MoinMoin (Table 4): the Figure 5 read
// assertion and the §5.1 write assertion. The paper's comparison point:
// checking the same ACL scheme under Flume took ~2,000 lines of
// restructuring; under RESIN it is these two small objects plus one
// policy_add call in update_body.

import (
	_ "embed"
	"fmt"

	"resin/internal/core"
)

// AssertionSource is this file's source, embedded for LoC accounting.
//
//go:embed assertions.go
var AssertionSource string

// BEGIN ASSERTION: moinmoin-read-acl

// PagePolicy is Figure 5's policy object: it carries a copy of the page's
// read ACL and matches the output channel's user against it.
type PagePolicy struct {
	ACL []string `json:"acl"`
}

// ExportCheck implements Data Flow Assertion 4: wiki page p may flow out
// of the system only to a user on p's ACL.
func (p *PagePolicy) ExportCheck(ctx *core.Context) error {
	user, _ := ctx.GetString("user")
	if (ACL{Read: p.ACL}).May(user, "read") {
		return nil
	}
	return fmt.Errorf("insufficient access")
}

// END ASSERTION

// BEGIN ASSERTION: moinmoin-write-acl

// PageWriteFilter is the write assertion of §5.1: a persistent filter
// object attached to the files and directory that represent a wiki page.
// It restricts the modification of existing revisions (FilterWrite) and
// the creation or deletion of revision files (FilterDirOp) to users on
// the page's write ACL.
type PageWriteFilter struct {
	ACL []string `json:"acl"`
}

// FilterWrite vetoes modification of an existing revision by non-writers.
func (f *PageWriteFilter) FilterWrite(ch *core.Channel, data core.String, off int64) (core.String, error) {
	user, _ := ch.Context().GetString("user")
	if (ACL{Write: f.ACL}).May(user, "write") {
		return data, nil
	}
	return core.String{}, fmt.Errorf("wiki: %s not on write ACL", user)
}

// FilterDirOp vetoes creating, deleting, or renaming revision files by
// non-writers.
func (f *PageWriteFilter) FilterDirOp(op, name string, ctx *core.Context) error {
	user, _ := ctx.GetString("user")
	if (ACL{Write: f.ACL}).May(user, "write") {
		return nil
	}
	return fmt.Errorf("wiki: %s may not %s %s", user, op, name)
}

// FileFilter gives every revision file created in the page directory
// this filter, however the file was written.
func (f *PageWriteFilter) FileFilter() any { return f }

// END ASSERTION

func init() {
	core.RegisterPolicyClass("wiki.PagePolicy", &PagePolicy{})
	core.RegisterFilterClass("wiki.PageWriteFilter", &PageWriteFilter{})
}
