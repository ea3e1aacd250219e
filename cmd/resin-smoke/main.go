// Command resin-smoke checks a running primary and follower pair of
// resin-server processes over TCP (docs/WIRE.md).
// scripts/server-integration.sh runs it against real servers:
//
//	resin-smoke -addr host:7634 -replica host:7635
//
// It exits non-zero unless three checks pass:
//   - taint round trip: a tainted value written through the wire comes
//     back from the primary with the canonical core.EncodeSpans
//     annotation;
//   - follower catch-up: the follower applies the primary's log within
//     10 s and serves the same row with a byte-identical annotation. A
//     negative lag (PrimarySize below Applied) fails the run: the
//     replication accounting regressed, never something to clamp away;
//   - lineage: an in-process forum app posts a tainted body (httpd taint
//     filter → SQL shadow column), ships it across the wire connection,
//     and /audit must report every crossing in execution order
//     (docs/LINEAGE.md §5).
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"resin/internal/core"
	"resin/internal/lineage"
	"resin/internal/sanitize"
	"resin/internal/wire"

	// A wire client must have the policy classes of the data it reads
	// registered (docs/WIRE.md §3); a -seed-forum server's rows carry
	// forum.MessagePolicy. The lineage probe also drives the app itself.
	"resin/internal/apps/forum"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7634", "primary address")
	replica := flag.String("replica", "127.0.0.1:7635", "follower address")
	flag.Parse()
	if err := run(*addr, *replica); err != nil {
		log.Fatalf("resin-smoke: %v", err)
	}
	fmt.Println("resin-smoke: ok")
}

// run performs the three checks against the primary at addr and the
// follower at replica.
func run(addr, replica string) error {
	pc, err := wire.Dial(addr)
	if err != nil {
		return fmt.Errorf("dial primary %s: %w", addr, err)
	}
	defer pc.Close() //nolint:errcheck
	fc, err := wire.Dial(replica)
	if err != nil {
		return fmt.Errorf("dial follower %s: %w", replica, err)
	}
	defer fc.Close() //nolint:errcheck

	// A -seed-forum primary already has the table.
	if _, err := pc.QueryRaw("CREATE TABLE messages (id INT, forum INT, author TEXT, subject TEXT, body TEXT)"); err != nil &&
		!strings.Contains(err.Error(), "exists") {
		return fmt.Errorf("create messages: %w", err)
	}

	body := sanitize.Taint(core.NewString("taint-probe body"), "probe")
	want, err := core.EncodeSpans(body)
	if err != nil {
		return err
	}
	if _, err := pc.QueryRaw(
		"INSERT INTO messages (id, forum, author, subject, body) VALUES (?, ?, ?, ?, ?)",
		-1, 99, "probe", "probe", body); err != nil {
		return fmt.Errorf("taint round trip: %w", err)
	}
	got, err := probeAnnotation(pc)
	if err != nil {
		return fmt.Errorf("taint round trip: %w", err)
	}
	if got != string(want) {
		return fmt.Errorf("taint round trip: primary annotation %s != written %s", got, want)
	}

	pst, err := pc.Status()
	if err != nil {
		return fmt.Errorf("primary status: %w", err)
	}
	if err := catchUp(fc.Status, pst.Frontier, 10*time.Second); err != nil {
		return err
	}
	fromFollower, err := probeAnnotation(fc)
	if err != nil {
		return fmt.Errorf("follower read: %w", err)
	}
	if fromFollower != got {
		return fmt.Errorf("follower annotation %s != primary's %s", fromFollower, got)
	}

	if err := auditProbe(pc); err != nil {
		return fmt.Errorf("audit probe: %w", err)
	}
	return nil
}

// probeAnnotation reads the taint probe's body over c and returns its
// annotation.
func probeAnnotation(c *wire.Conn) (string, error) {
	res, err := c.QueryRaw("SELECT body FROM messages WHERE forum = 99")
	if err != nil {
		return "", err
	}
	if res.Len() != 1 {
		return "", fmt.Errorf("probe row count %d", res.Len())
	}
	ann, err := core.EncodeSpans(res.Get(0, "body").Str)
	return string(ann), err
}

// catchUp polls a follower's status until it has applied everything it
// knows of the primary's log and reached frontier. A negative lag fails
// at once.
func catchUp(status func() (wire.Status, error), frontier uint64, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		st, err := status()
		if err != nil {
			return fmt.Errorf("follower status: %w", err)
		}
		if lag := st.PrimarySize - st.Applied; lag < 0 {
			return fmt.Errorf("negative replica staleness %d bytes: PrimarySize/Applied accounting regressed", lag)
		}
		if st.Applied == st.PrimarySize && st.Frontier >= frontier {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not caught up after %v: applied %d of %d, frontier %d of %d",
				within, st.Applied, st.PrimarySize, st.Frontier, frontier)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// auditProbe drives a tainted value across every instrumented boundary
// class and replays the /audit trace against it: an in-process forum app
// posts a body (httpd taint filter is the source), the body is re-read
// from its SQL shadow column, shipped over the wire connection both
// directions, and the /audit endpoint must report each crossing in
// execution order.
func auditProbe(c *wire.Conn) error {
	lineage.Reset()
	lineage.Enable()
	defer func() {
		lineage.Disable()
		lineage.Reset()
	}()

	app := forum.New(core.NewRuntime(), nil, true)
	sess := app.Server.NewSession("admin")
	resp, err := app.Server.Do("POST", "/post", map[string]string{
		"forum": "1", "subject": "audit probe", "body": "lineage-audit-probe-body",
	}, sess)
	if err != nil {
		return fmt.Errorf("post: %w", err)
	}
	reply := resp.RawBody()
	id, err := strconv.Atoi(strings.TrimPrefix(reply, "posted #"))
	if err != nil {
		return fmt.Errorf("unexpected post reply %q", reply)
	}

	res, err := app.DB.QueryRaw("SELECT body FROM messages WHERE id = ?", id)
	if err != nil {
		return fmt.Errorf("body read-back: %w", err)
	}
	if res.Len() != 1 {
		return fmt.Errorf("body read-back: %d rows", res.Len())
	}
	body := res.Get(0, "body").Str
	if !body.IsTainted() {
		return fmt.Errorf("posted body lost its policies")
	}

	// Wire hop: the tainted body crosses the connection in both
	// directions — the bound argument is encoded on send, the selected
	// row decoded on receive — so the wire edges record client-side even
	// against an external server.
	if _, err := c.QueryRaw(
		"INSERT INTO messages (id, forum, author, subject, body) VALUES (?, ?, ?, ?, ?)",
		-2, 98, "auditor", "audit probe", body); err != nil {
		return fmt.Errorf("wire insert: %w", err)
	}
	if _, err := c.QueryRaw("SELECT body FROM messages WHERE forum = 98"); err != nil {
		return fmt.Errorf("wire select: %w", err)
	}

	aresp, err := app.Server.Do("GET", "/audit", map[string]string{"msg": strconv.Itoa(id)}, sess)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	text := aresp.RawBody()
	pos := 0
	for _, marker := range []string{
		"filter:TaintReadFilter(http)",
		"sql-store", "sql:messages.body",
		"sql-load",
		"wire-send", "wire-recv",
	} {
		i := strings.Index(text[pos:], marker)
		if i < 0 {
			return fmt.Errorf("trace missing %q after offset %d:\n%s", marker, pos, text)
		}
		pos += i
	}
	return nil
}
