package sqldb

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resin/internal/core"
)

// TestAutoCompactTriggerWriteLatency pins that the auto-compact trigger
// never runs the full Compact inside the triggering write's critical
// section: the write that tips the log over the armed threshold only
// CASes the single-flight flag and spawns the background compaction, so
// its latency must stay far below a synchronous Compact of the same
// state. The test first grows the database until a measured synchronous
// Compact is expensive (≥20ms), then regrows the log past the
// threshold, arms the policy, and times the one write that fires it.
func TestAutoCompactTriggerWriteLatency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trigger.wal")
	rt := core.NewRuntime()
	db := openWALDB(t, rt, path)
	defer db.Close()
	db.MustExec("CREATE TABLE t (id INT, val TEXT)")

	// Grow live state until a synchronous Compact costs real time; the
	// background claim is unfalsifiable on a database that compacts in
	// microseconds.
	pad := strings.Repeat("x", 120)
	var syncCompact time.Duration
	rows := 0
	for round := 0; ; round++ {
		var b strings.Builder
		b.WriteString("INSERT INTO t (id, val) VALUES ")
		for i := 0; i < 4000; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s-%d')", rows, pad, rows)
			rows++
		}
		db.MustExec(b.String())
		start := time.Now()
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		syncCompact = time.Since(start)
		if syncCompact >= 20*time.Millisecond {
			break
		}
		if round >= 7 {
			t.Skipf("synchronous Compact of %d rows takes only %v; machine too fast to pin the latency gap", rows, syncCompact)
		}
	}

	// Baseline: the median normal write.
	lat := make([]time.Duration, 0, 64)
	for i := 0; i < 64; i++ {
		start := time.Now()
		db.MustExec(fmt.Sprintf("UPDATE t SET val = 'w-%d' WHERE id = %d", i, i))
		lat = append(lat, time.Since(start))
	}
	for i := 1; i < len(lat); i++ { // insertion sort, 64 items
		for j := i; j > 0 && lat[j] < lat[j-1]; j-- {
			lat[j], lat[j-1] = lat[j-1], lat[j]
		}
	}
	median := lat[len(lat)/2]

	// Regrow the log past the threshold with the policy disarmed, then
	// arm it so exactly one write fires the trigger.
	threshold := db.WALSize() + 64<<10
	i := 0
	for db.WALSize() <= threshold {
		db.MustExec(fmt.Sprintf("UPDATE t SET val = 'churn-%d' WHERE id = %d", i, i%rows))
		i++
	}
	before := db.WALSize()
	db.SetWALAutoCompact(threshold)
	start := time.Now()
	db.MustExec("UPDATE t SET val = 'trigger' WHERE id = 0")
	triggerLatency := time.Since(start)

	// The triggering write must not have absorbed the compaction.
	if triggerLatency >= syncCompact/2 {
		t.Errorf("triggering write took %v, within 2x of a synchronous Compact (%v): compaction ran in the write's critical section (median normal write: %v)",
			triggerLatency, syncCompact, median)
	}

	// And the compaction it kicked off really runs: the log shrinks in
	// the background.
	deadline := time.Now().Add(10 * time.Second)
	for db.WALSize() >= before {
		if time.Now().After(deadline) {
			t.Fatalf("armed trigger never compacted: WAL still %d bytes (was %d)", db.WALSize(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
	db.SetWALAutoCompact(0)
	res, err := db.QueryRaw("SELECT val FROM t WHERE id = 0")
	if err != nil || res.Len() != 1 {
		t.Fatalf("post-compaction read: %d rows, %v", res.Len(), err)
	}
	if got := res.Get(0, "val").Str.Raw(); got != "trigger" {
		t.Fatalf("triggering write lost: val = %q", got)
	}
}
