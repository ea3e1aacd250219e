package main

import (
	"fmt"
	"time"

	"resin/internal/apps/hotcrp"
	"resin/internal/core"
	"resin/internal/lineage"
	"resin/internal/sqldb"
)

// The paper's own metric (§7.1): time to generate the HotCRP /paper page
// under RESIN — tracking on, both assertions on — against the same page
// on core.NewUntrackedRuntime(). The two runtimes are timed in
// alternating blocks, order flipped every pair, and the overhead is the
// median over pairs of (resin block mean ÷ adjacent base block mean), so
// machine drift cancels inside a pair instead of landing on one side
// (cmd/resin-hotcrp times them back to back and reads 72–110 %).

// pages holds the two timed instances.
type pages struct {
	resinApp, baseApp *hotcrp.App
	resin, base       func() error
}

// newPages builds both instances and runs the page oracle: bodies
// byte-equal, author list anonymized, and two negative controls showing
// the assertions are on — hotcrp.AttackPasswordPreview(true) is blocked,
// and so is the same attack mounted on the very instance that is timed.
func newPages() (*pages, error) {
	p := &pages{}
	p.resinApp, p.resin = hotcrp.NewBenchInstance(true)
	p.baseApp, p.base = hotcrp.NewBenchInstance(false)
	var bodies [2]string
	for i, app := range []*hotcrp.App{p.resinApp, p.baseApp} {
		resp, err := app.Server.Do("GET", "/paper", map[string]string{"id": "1"}, app.Server.NewSession("pc@conf.org"))
		if err != nil {
			return nil, fmt.Errorf("page oracle: render: %w", err)
		}
		bodies[i] = resp.RawBody()
	}
	if bodies[0] != bodies[1] {
		return nil, fmt.Errorf("page oracle: tracked and untracked pages differ:\n%s\n--\n%s", bodies[0], bodies[1])
	}
	if leaked, blocked := hotcrp.AttackPasswordPreview(true); leaked || blocked == nil {
		return nil, fmt.Errorf("page oracle: password-preview attack not blocked (leaked=%v, err=%v)", leaked, blocked)
	}
	p.resinApp.EmailPreview = true
	_, err := p.resinApp.Server.Do("GET", "/remind", map[string]string{"email": "victim@conf.org"},
		p.resinApp.Server.NewSession("attacker@evil.com"))
	p.resinApp.EmailPreview = false
	if _, ok := core.IsAssertionError(err); !ok {
		return nil, fmt.Errorf("page oracle: timed instance let the password-preview attack through (err=%v)", err)
	}
	return p, nil
}

// side is one contender of a paired-block run.
type side struct {
	enter  func() // runs before each of this side's blocks, untimed
	render func() error
}

// pairResult accumulates block pairs; a block is one window.
type pairResult struct {
	block   int
	a, b    []int64   // per-render ns
	aMeans  []float64 // per-block mean ns
	bMeans  []float64
	renders int
	failed  int
	elapsed time.Duration
	rates   []rate // one per block pair
}

func (r *pairResult) ratio() float64 { return blockRatio(r.aMeans, r.bMeans) }

// runPairs appends `pairs` block pairs to res: blocks of res.block renders
// alternate between a and b, and which side goes first flips on every
// pair. Both sides render the same number of times.
func (res *pairResult) runPairs(a, b side, pairs int) {
	start := time.Now()
	one := func(s side, lat *[]int64, means *[]float64) {
		if s.enter != nil {
			s.enter()
		}
		t0 := time.Now()
		for i := 0; i < res.block; i++ {
			r0 := time.Now()
			err := s.render()
			*lat = append(*lat, int64(time.Since(r0)))
			res.renders++
			if err != nil {
				res.failed++
				logFailure("page render: %v", err)
			}
		}
		*means = append(*means, float64(time.Since(t0))/float64(res.block))
	}
	for end := len(res.rates) + pairs; len(res.rates) < end; {
		t0, cpu0 := time.Now(), cpuTime()
		if len(res.rates)%2 == 0 {
			one(a, &res.a, &res.aMeans)
			one(b, &res.b, &res.bMeans)
		} else {
			one(b, &res.b, &res.bMeans)
			one(a, &res.a, &res.aMeans)
		}
		res.rates = append(res.rates, rate{2 * res.block, time.Since(t0), cpuTime() - cpu0})
	}
	res.elapsed += time.Since(start)
}

// run appends `pairs` block pairs of the page phase, resin against base.
func (p *pages) run(res *pairResult, pairs int) {
	res.runPairs(side{render: p.resin}, side{render: p.base}, pairs)
}

// runLineage times the tracked page with the lineage gate on against the
// same page with it off, and leaves the gate off and the monitor empty.
func (p *pages) runLineage(block, pairs int) float64 {
	defer func() {
		lineage.Disable()
		lineage.Reset()
	}()
	res := &pairResult{block: block}
	res.runPairs(
		side{enter: lineage.Enable, render: p.resin},
		side{enter: lineage.Disable, render: p.resin},
		pairs)
	return res.ratio()
}

// traced renders the tracked page under the tracer: root = Server.Do,
// children = the page's two SQL statements replayed on the app's own
// in-memory database. It returns the n root latencies.
func (p *pages) traced(tr *tracer, n int) ([]int64, error) {
	selUser, err := p.resinApp.DB.PrepareRaw("SELECT chair, pc FROM users WHERE email = ?")
	if err != nil {
		return nil, err
	}
	selPaper, err := p.resinApp.DB.PrepareRaw("SELECT title, abstract, authors, anonymous FROM papers WHERE id = ?")
	if err != nil {
		return nil, err
	}
	lat := make([]int64, 0, n)
	for len(lat) < n {
		t0 := time.Now()
		err := p.resin()
		t1 := time.Now()
		if err != nil {
			return lat, err
		}
		lat = append(lat, int64(t1.Sub(t0)))
		root := tr.root(classPage, t0, t1)
		for _, q := range []struct {
			st  *sqldb.Stmt
			arg any
		}{{selUser, "pc@conf.org"}, {selPaper, 1}} {
			if err := tr.child(root, spanExecMem, func() error {
				_, err := q.st.Query(q.arg)
				return err
			}); err != nil {
				return lat, err
			}
		}
	}
	return lat, nil
}
