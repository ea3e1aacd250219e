package sqldb

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"resin/internal/core"
)

// FuzzTxInterleaving drives two transactions and a stream of direct
// writes against one WAL-backed database, with the fuzz input choosing
// the interleaving, the statements, and the rows they collide on. The
// contract the MVCC engine must uphold for EVERY interleaving:
//
//   - no panic, ever;
//   - Commit returns nil, ErrTxConflict, or ErrTxDone — nothing else;
//   - a transaction's reads never error once Begin succeeded
//     (its snapshot cannot be vacuumed out from under it), and return
//     exactly what a model predicts: the rows at its snapshot, in id
//     order, with its own successful writes applied;
//   - whatever survives, a restart replays the log to the identical
//     engine state, stable row ids included.
//
// Each input byte is one step: the low bits pick an actor (tx1, tx2,
// direct), the high bits pick an action and a target row.
func FuzzTxInterleaving(f *testing.F) {
	// Seeds: plain commits, the classic lost-update collision, tx work
	// straddling direct writes, rollback paths, double commit, and DDL
	// refused inside a transaction and run directly while it is open.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add([]byte{0x10, 0x11, 0x30, 0x31})                         // tx1 update, tx2 same row, both commit
	f.Add([]byte{0x10, 0x02, 0x22, 0x30, 0x31})                   // direct write between tx ops
	f.Add([]byte{0x40, 0x41, 0x50, 0x30, 0x30, 0x31, 0x31})       // deletes, inserts, double commits
	f.Add([]byte{0x60, 0x10, 0x30})                               // DDL refused in tx1, run directly, then write then commit
	f.Add([]byte{0x15, 0x26, 0x07, 0x38, 0x19, 0x2a, 0x3b, 0xcc}) // mixed soup
	f.Add([]byte{0x21, 0x00, 0x18, 0x00})                         // tx1 delete, read, insert an existing id, read

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return // bound per-input work; long inputs add no new shapes
		}
		path := filepath.Join(t.TempDir(), "fuzz-tx.wal")
		rt := core.NewRuntime()
		db, err := OpenDB(rt, path)
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec("CREATE TABLE f (id INT, val TEXT)")
		db.MustExec("CREATE INDEX ON f (id)")
		for i := 0; i < 4; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO f (id, val) VALUES (%d, 'seed')", i))
		}

		txs := [2]*Tx{db.Begin(), db.Begin()}
		done := [2]bool{}
		// The model of each transaction's view: rows in id order, starting
		// from the snapshot both transactions began on.
		type mrow struct {
			id  int
			val string
		}
		var models [2][]mrow
		for i := range models {
			for id := 0; id < 4; id++ {
				models[i] = append(models[i], mrow{id, "seed"})
			}
		}
		// checkRead compares a transaction's ORDER BY id read with its
		// model, stably sorted by id.
		checkRead := func(who string, res *Result, model []mrow) {
			want := slices.Clone(model)
			slices.SortStableFunc(want, func(a, b mrow) int { return cmp.Compare(a.id, b.id) })
			got := make([]mrow, res.Len())
			for i := range got {
				got[i] = mrow{int(res.Get(i, "id").Int.Value()), res.Get(i, "val").Str.Raw()}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s read diverges from its model:\ngot:  %v\nwant: %v", who, got, want)
			}
		}
		// Statements inside a transaction may be rejected for ordinary
		// reasons (duplicate index, bad predicate) — that's validation,
		// not isolation. The strict contract binds Commit and Rollback.
		checkTxErr := func(who string, err error) {
			if err != nil && !errors.Is(err, ErrTxConflict) && !errors.Is(err, ErrTxDone) {
				t.Fatalf("%s: %v (only nil/ErrTxConflict/ErrTxDone allowed)", who, err)
			}
		}
		for step, b := range data {
			actor := int(b >> 6) // 0,1: the txs; 2,3: direct writes
			action := int(b>>3) & 0x07
			id := int(b) & 0x07
			if actor >= 2 {
				var err error
				switch action % 4 {
				case 0:
					_, err = db.QueryRaw(fmt.Sprintf("INSERT INTO f (id, val) VALUES (%d, 'd%d')", id, step))
				case 1:
					_, err = db.QueryRaw(fmt.Sprintf("UPDATE f SET val = 'd%d' WHERE id = %d", step, id))
				case 2:
					_, err = db.QueryRaw(fmt.Sprintf("DELETE FROM f WHERE id = %d", id))
				case 3:
					_, err = db.QueryRaw("SELECT * FROM f ORDER BY id")
				}
				if err != nil {
					t.Fatalf("direct step %d: %v", step, err)
				}
				continue
			}
			tx, who := txs[actor], fmt.Sprintf("tx%d step %d", actor+1, step)
			model := &models[actor]
			val := fmt.Sprintf("t%d", step)
			switch action {
			case 0, 1: // reads: must never error while the tx is open
				res, err := tx.QueryRaw("SELECT * FROM f ORDER BY id")
				if !done[actor] {
					if err != nil {
						t.Fatalf("%s read: %v", who, err)
					}
					checkRead(who, res, *model)
				}
			case 2:
				if _, err := tx.QueryRaw(fmt.Sprintf("UPDATE f SET val = '%s' WHERE id = %d", val, id)); err == nil {
					for i := range *model {
						if (*model)[i].id == id {
							(*model)[i].val = val
						}
					}
				}
			case 3:
				if _, err := tx.QueryRaw(fmt.Sprintf("INSERT INTO f (id, val) VALUES (%d, '%s')", id, val)); err == nil {
					*model = append(*model, mrow{id, val})
				}
			case 4:
				if _, err := tx.QueryRaw(fmt.Sprintf("DELETE FROM f WHERE id = %d", id)); err == nil {
					*model = slices.DeleteFunc(*model, func(r mrow) bool { return r.id == id })
				}
			case 5:
				checkTxErr(who+" rollback", tx.Rollback())
				done[actor] = true
			case 6: // DDL: refused inside the tx, then run directly under it
				if _, err := tx.QueryRaw("CREATE INDEX ON f (val)"); !done[actor] && !errors.Is(err, ErrTxDDL) {
					t.Fatalf("%s: DDL inside the transaction: %v, want ErrTxDDL", who, err)
				}
				if _, err := db.QueryRaw("CREATE INDEX ON f (val)"); err != nil && !errors.Is(err, ErrIndexExists) {
					t.Fatalf("%s: direct DDL: %v", who, err)
				}
			default:
				checkTxErr(who+" commit", tx.Commit())
				done[actor] = true
			}
		}
		for i, tx := range txs {
			if !done[i] {
				checkTxErr(fmt.Sprintf("tx%d final commit", i+1), tx.Commit())
			}
		}

		live := dumpEngine(db.Engine())
		liveIdx := indexStructures(db.Engine())
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := OpenDB(rt, path)
		if err != nil {
			t.Fatalf("restart after interleaving: %v", err)
		}
		defer db2.Close()
		if got := dumpEngine(db2.Engine()); !reflect.DeepEqual(got, live) {
			t.Fatalf("restart diverges:\ngot:  %+v\nlive: %+v", got, live)
		}
		if got := indexStructures(db2.Engine()); !reflect.DeepEqual(got, liveIdx) {
			t.Fatal("restart index contents diverge")
		}
	})
}
