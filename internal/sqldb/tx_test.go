package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"resin/internal/core"
	"resin/internal/sanitize"
)

func txDB(t *testing.T) *DB {
	t.Helper()
	db := Open(core.NewRuntime())
	db.MustExec("CREATE TABLE accounts (owner TEXT, balance INT)")
	db.MustExec("INSERT INTO accounts (owner, balance) VALUES ('alice', 100), ('bob', 50)")
	return db
}

func balance(t *testing.T, q interface {
	QueryRaw(string, ...any) (*Result, error)
}, owner string) int64 {
	t.Helper()
	res, err := q.QueryRaw(fmt.Sprintf("SELECT balance FROM accounts WHERE owner = '%s'", owner))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		return -1
	}
	return res.Get(0, "balance").Int.Value()
}

func TestTxCommitApplies(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if _, err := tx.QueryRaw("UPDATE accounts SET balance = 70 WHERE owner = 'alice'"); err != nil {
		t.Fatal(err)
	}
	// Inside the tx the write is visible; outside it is not.
	if got := balance(t, tx, "alice"); got != 70 {
		t.Errorf("tx view = %d", got)
	}
	if got := balance(t, db, "alice"); got != 100 {
		t.Errorf("base view during tx = %d", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, db, "alice"); got != 70 {
		t.Errorf("after commit = %d", got)
	}
}

func TestTxRollbackDiscards(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	tx.QueryRaw("DELETE FROM accounts WHERE owner = 'bob'")
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, db, "bob"); got != 50 {
		t.Errorf("rollback leaked: %d", got)
	}
}

func TestIntegrityAssertionVetoesCommit(t *testing.T) {
	db := txDB(t)
	db.AddIntegrityAssertion("no-negative-balances", func(v *View) error {
		res, err := v.QueryRaw("SELECT owner FROM accounts WHERE balance < 0")
		if err != nil {
			return err
		}
		if res.Len() > 0 {
			return fmt.Errorf("%s would go negative", res.Get(0, "owner").Str.Raw())
		}
		return nil
	})

	// A transaction that overdraws is vetoed at commit.
	tx := db.Begin()
	if _, err := tx.QueryRaw("UPDATE accounts SET balance = -10 WHERE owner = 'bob'"); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit()
	if err == nil {
		t.Fatal("overdraw must be vetoed")
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) || ie.Assertion != "no-negative-balances" {
		t.Fatalf("error = %v", err)
	}
	if got := balance(t, db, "bob"); got != 50 {
		t.Errorf("vetoed commit mutated the database: %d", got)
	}

	// A valid transaction still commits.
	tx2 := db.Begin()
	tx2.QueryRaw("UPDATE accounts SET balance = 0 WHERE owner = 'bob'")
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, db, "bob"); got != 0 {
		t.Errorf("valid commit lost: %d", got)
	}
}

func TestTxDoneSemantics(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Errorf("rollback after commit: %v", err)
	}
	if _, err := tx.QueryRaw("SELECT * FROM accounts"); !errors.Is(err, ErrTxDone) {
		t.Errorf("query after commit: %v", err)
	}
	// A vetoing commit also finishes the transaction.
	db.AddIntegrityAssertion("always-no", func(v *View) error { return errors.New("no") })
	tx2 := db.Begin()
	if err := tx2.Commit(); err == nil {
		t.Fatal("veto expected")
	}
	if err := tx2.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("commit after veto: %v", err)
	}
}

func TestTxFiltersStillApply(t *testing.T) {
	db := txDB(t)
	db.Filter().RejectTaintedStructure(true)
	tx := db.Begin()
	evil := sanitize.Taint(core.NewString("0 OR 1=1"), "form")
	q := core.Concat(core.NewString("UPDATE accounts SET balance = 0 WHERE balance = "), evil)
	if _, err := tx.Query(q); err == nil {
		t.Fatal("injection assertions must hold inside transactions")
	}
}

func TestTxPolicyPersistence(t *testing.T) {
	db := Open(core.NewRuntime())
	db.MustExec("CREATE TABLE t (a TEXT)")
	p := &passwordPolicy{Email: "tx@x"}
	tx := db.Begin()
	q := core.Concat(core.NewString("INSERT INTO t (a) VALUES ("),
		sanitize.SQLQuote(core.NewStringPolicy("v", p)), core.NewString(")"))
	if _, err := tx.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryRaw("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Get(0, "a").Str.IsTainted() {
		t.Error("policies must persist through transactional writes")
	}
}

func TestTxConcurrentCommitsSerialized(t *testing.T) {
	db := txDB(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			tx := db.Begin()
			tx.QueryRaw(fmt.Sprintf("UPDATE accounts SET balance = %d WHERE owner = 'alice'", n))
			tx.Commit()
		}(i)
	}
	wg.Wait()
	got := balance(t, db, "alice")
	if got < 0 || got > 7 {
		t.Errorf("final balance %d not from any committed tx", got)
	}
}
