package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestCache pins the two-generation contract every bounded table in the
// module relies on.
func TestCache(t *testing.T) {
	type intCache = Cache[int, *int]
	fill := func(c *intCache, from, n, size int) {
		for i := from; i < from+n; i++ {
			c.Add(i, new(int), size)
		}
	}
	cases := []struct {
		name                       string
		entries, bytes, entryBytes int
		run                        func(t *testing.T, c *intCache)
	}{
		{
			name: "entry cap rotates at half", entries: 8,
			run: func(t *testing.T, c *intCache) {
				fill(c, 0, 4, 0)
				if st := c.Stats(); st.Rotations != 0 || c.Len() != 4 {
					t.Fatalf("half the cap: %d rotations, %d entries; want 0 and 4", st.Rotations, c.Len())
				}
				fill(c, 4, 16, 0)
				if st := c.Stats(); st.Rotations != 4 || c.Len() != 8 {
					t.Errorf("20 adds at cap 8: %d rotations, %d entries; want 4 and 8", st.Rotations, c.Len())
				}
				if _, ok := c.Get(0); ok {
					t.Error("the first entry outlived two rotations")
				}
				if n := len(c.Values()); n != c.Len() {
					t.Errorf("Values returned %d of %d entries", n, c.Len())
				}
			},
		},
		{
			name: "byte budget rotates at half", entries: 1 << 10, bytes: 64, entryBytes: 16,
			run: func(t *testing.T, c *intCache) {
				// 10 bytes each: three fit in half the budget, the fourth rotates.
				fill(c, 0, 20, 10)
				if st := c.Stats(); st.Rotations != 6 || c.Len() > 6 {
					t.Errorf("20 adds of 10 B at 64 B: %d rotations, %d entries; want 6 and ≤ 6", st.Rotations, c.Len())
				}
			},
		},
		{
			name: "over the per-entry limit is never stored", entries: 8, bytes: 64, entryBytes: 16,
			run: func(t *testing.T, c *intCache) {
				v := new(int)
				if got := c.Add(1, v, 17); got != v {
					t.Error("an oversized Add must return its own value")
				}
				if _, ok := c.Get(1); ok || c.Len() != 0 {
					t.Errorf("an oversized entry was stored (%d entries)", c.Len())
				}
				if got := c.Add(1, v, 16); got != v || c.Len() != 1 {
					t.Error("an entry at the limit must be stored")
				}
			},
		},
		{
			name: "hot key survives 3× cap of churn", entries: 64,
			run: func(t *testing.T, c *intCache) {
				hot := c.Add(-1, new(int), 0)
				for i := 0; i < 3*64; i++ {
					c.Add(i, new(int), 0)
					if i%16 == 0 {
						if v, ok := c.Get(-1); !ok || v != hot {
							t.Fatalf("hot key lost after %d churn adds", i)
						}
					}
				}
				st := c.Stats()
				if st.Rotations < 4 || st.Promotions == 0 {
					t.Errorf("churn: %d rotations, %d promotions; want ≥ 4 and > 0", st.Rotations, st.Promotions)
				}
				if c.Len() > 64 {
					t.Errorf("%d entries past the cap 64", c.Len())
				}
			},
		},
		{
			name: "racing Adds of one key agree", entries: 64,
			run: func(t *testing.T, c *intCache) {
				got := make([]*int, 16)
				var wg sync.WaitGroup
				for g := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[g] = c.Add(7, new(int), 0)
					}()
				}
				wg.Wait()
				for g, v := range got {
					if v != got[0] {
						t.Fatalf("callers 0 and %d received different values", g)
					}
				}
				if v, _ := c.Get(7); v != got[0] {
					t.Error("Get disagrees with what Add returned")
				}
			},
		},
		{
			name: "hits and misses add up to lookups", entries: 16,
			run: func(t *testing.T, c *intCache) {
				lookups := 0
				for i := 0; i < 100; i++ {
					if i%3 == 0 {
						c.Add(i%40, new(int), 0)
					}
					c.Get(i % 40)
					lookups++
				}
				st := c.Stats()
				if st.Hits+st.Misses != uint64(lookups) || st.Hits == 0 || st.Misses == 0 {
					t.Errorf("hits %d + misses %d, want %d lookups with some of each", st.Hits, st.Misses, lookups)
				}
				c.Reset()
				if _, ok := c.Get(0); ok || c.Len() != 0 {
					t.Error("Reset left entries behind")
				}
				if c.Stats().Misses != st.Misses+1 {
					t.Error("Reset must keep the counters")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, NewCache[int, *int](tc.entries, tc.bytes, tc.entryBytes))
		})
	}
}

// TestCacheHitsDoNotAllocate: the byte- and string-keyed lookups in
// front of JSON parsing, and an intern-table hit, copy nothing.
func TestCacheHitsDoNotAllocate(t *testing.T) {
	enc := mustEncodePolicy(t, &wirePasswordPolicy{Email: "alloc@x"})
	ann := mustEncodeSpans(t, NewStringPolicy("v", &wirePasswordPolicy{Email: "alloc@x"}))
	annStr := string(ann)
	set := NewPolicySet(&wirePasswordPolicy{Email: "alloc-set@x"})
	set.Intern()
	var members []Policy
	for i := 0; i < 12; i++ {
		members = append(members, &wirePasswordPolicy{Email: fmt.Sprintf("alloc-big%d@x", i)})
	}
	big := NewPolicySet(members...)
	big.Intern()
	for name, hit := range map[string]func(){
		"DecodePolicy":             func() { DecodePolicy(enc) },
		"CompileAnnotation":        func() { CompileAnnotation(ann) },
		"CompileAnnotationString":  func() { CompileAnnotationString(annStr) },
		"PolicySet.Intern":         func() { set.Intern() },
		"PolicySet.Intern 12 wide": func() { big.Intern() },
	} {
		hit()
		if n := testing.AllocsPerRun(100, hit); n != 0 {
			t.Errorf("%s hit: %.1f allocs/op, want 0", name, n)
		}
	}
}

// TestCompileAnnotationHotSurvivesChurn: an annotation re-read while 3×
// the memo's cap of others stream past keeps its one compiled form.
func TestCompileAnnotationHotSurvivesChurn(t *testing.T) {
	annCompileMemo.Reset()
	hotAnn := mustEncodeSpans(t, NewStringPolicy("hot", &wirePasswordPolicy{Email: "hot@memo"}))
	hot, err := CompileAnnotation(hotAnn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*annCompileMemo.maxEntries; i++ {
		ann := fmt.Sprintf(`[{"start":0,"end":1,"policies":[{"class":"test.WirePasswordPolicy","fields":{"email":"churn%d@memo"}}]}]`, i)
		if _, err := CompileAnnotationString(ann); err != nil {
			t.Fatal(err)
		}
		if i%512 == 0 {
			if c, _ := CompileAnnotation(hotAnn); c != hot {
				t.Fatalf("hot annotation recompiled after %d churn annotations", i)
			}
		}
	}
	if annCompileMemo.Len() > annCompileMemo.maxEntries {
		t.Errorf("memo holds %d compiles, cap %d", annCompileMemo.Len(), annCompileMemo.maxEntries)
	}
}

// TestCompileAnnotationWorkingSetStaysCached: 3000 annotations read in
// turn compile once each and then always hit — a generation holds 4096.
func TestCompileAnnotationWorkingSetStaysCached(t *testing.T) {
	annCompileMemo.Reset()
	anns := make([]string, 3000)
	for i := range anns {
		anns[i] = fmt.Sprintf(`[{"start":0,"end":1,"policies":[{"class":"test.WirePasswordPolicy","fields":{"email":"ws%d@memo"}}]}]`, i)
	}
	for pass := 0; pass < 3; pass++ {
		before := annCompileMemo.Stats().Misses
		for _, ann := range anns {
			if _, err := CompileAnnotationString(ann); err != nil {
				t.Fatal(err)
			}
		}
		misses, want := annCompileMemo.Stats().Misses-before, uint64(0)
		if pass == 0 {
			want = uint64(len(anns))
		}
		if misses != want {
			t.Errorf("pass %d over %d annotations: %d misses, want %d", pass, len(anns), misses, want)
		}
	}
}

// TestInternHashCollisionStaysUninterned: a set whose hash matches a
// canonical set with other members is returned as itself, and the
// canonical set keeps its place.
func TestInternHashCollisionStaysUninterned(t *testing.T) {
	canon := NewPolicySet(&wirePasswordPolicy{Email: "collide-a@x"}).Intern()
	forged := NewPolicySet(&wirePasswordPolicy{Email: "collide-b@x"})
	forged.hash = canon.hash
	if got := forged.Intern(); got != forged {
		t.Error("a colliding set was conflated with the canonical one")
	}
	if NewPolicySet(canon.policies...).Intern() != canon {
		t.Error("the canonical set lost its place to a colliding one")
	}
}
