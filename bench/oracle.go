package main

import (
	"fmt"
	"time"

	"resin/internal/core"
	"resin/internal/sqldb"
)

// restartCheck is the durability oracle run after every workload: stop
// serving, close the primary, OpenDB the same log, and require every
// acknowledged INSERT and the last acknowledged UPDATE per id to be there
// with byte-identical body and annotation; then require the replica at
// the same frontier holding identical cells.
//
// This is a restart check, not a crash test: a process that exits leaves
// the operating system's cache intact, so unflushed writes would still
// be read back. PR 4's recovery harness (truncated and torn logs) is the
// crash test; this one catches an ack that never reached the log at all,
// a replay that drops or reorders records, and a replica that diverged.
type restartReport struct {
	checked  int
	reopen   time.Duration
	catchup  time.Duration
	reopened *sqldb.DB // left open for the layer measurements; caller closes
}

func restartCheck(se *session) (*restartReport, error) {
	st := se.st
	rep := &restartReport{}
	var err error
	if rep.catchup, err = st.awaitReplica(30 * time.Second); err != nil {
		return nil, err
	}
	rdb := st.rep.DB()
	if p, r := st.db.Frontier(), rdb.Frontier(); p != r {
		return nil, fmt.Errorf("replica at frontier %d, primary at %d", r, p)
	}
	if err := st.stopServing(); err != nil {
		return nil, fmt.Errorf("stop serving: %w", err)
	}
	frontier := st.db.Frontier() // stopServing commits sentinel rows after the replica has left
	if err := st.db.Close(); err != nil {
		return nil, fmt.Errorf("close primary: %w", err)
	}
	st.db = nil
	t0 := time.Now()
	db, err := sqldb.OpenDB(core.NewRuntime(), st.walPath)
	if err != nil {
		return nil, fmt.Errorf("reopen primary log: %w", err)
	}
	rep.reopen = time.Since(t0)
	st.db = db // so stack.close closes it
	rep.reopened = db
	if got := db.Frontier(); got != frontier {
		return nil, fmt.Errorf("reopened primary at frontier %d, was %d before close", got, frontier)
	}
	psel, err := db.PrepareRaw(pointSQL)
	if err != nil {
		return nil, err
	}
	rsel, err := rdb.PrepareRaw(pointSQL)
	if err != nil {
		return nil, err
	}
	check := func(id int64, ver uint32) error {
		var anns [2]string
		for i, sel := range []*sqldb.Stmt{psel, rsel} {
			res, err := sel.Query(id)
			if err != nil {
				return err
			}
			if res.Len() != 1 {
				return fmt.Errorf("id %d: %d rows after restart (db %d), want 1", id, res.Len(), i)
			}
			body := res.Rows[0][2].Str
			if body.Raw() != bodyFor(id, ver) {
				return fmt.Errorf("id %d: body %q after restart (db %d), acknowledged %q", id, body.Raw(), i, bodyFor(id, ver))
			}
			ann, err := core.EncodeSpans(body)
			if err != nil {
				return err
			}
			anns[i] = string(ann)
		}
		if want := string(se.t.wantAnn[se.t.policyIndex(id)]); anns[0] != want || anns[1] != want {
			return fmt.Errorf("id %d: annotation primary %s replica %s, want %s", id, anns[0], anns[1], want)
		}
		rep.checked++
		return nil
	}
	for _, l := range se.ledgers {
		for _, m := range []map[int64]uint32{l.inserted, l.updated} {
			for id, ver := range m {
				if err := check(id, ver); err != nil {
					return nil, err
				}
			}
		}
	}
	return rep, nil
}
