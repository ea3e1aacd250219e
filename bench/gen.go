package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"resin/internal/core"
	"resin/internal/sanitize"
)

// The generator: the program under test sees only the ops it yields.
// Everything an op carries — target id, forum, body bytes, the policy on
// the body — is a pure function of (seed, workload, client, position in
// the stream), so the same seed replays the same ops and the oracles can
// recompute what every read must return without keeping the data.

// opClass is one kind of request. Latency is always reported per class.
type opClass uint8

const (
	opPoint  opClass = iota // prepared SELECT … WHERE id = ?
	opText                  // the same lookup sent as SQL text + bound arg
	opRange                 // prepared SELECT … WHERE forum = ? ORDER BY id LIMIT 20
	opInsert                // prepared INSERT, tainted body
	opUpdate                // prepared UPDATE … SET body = ? WHERE id = ?
	numClasses
)

var classNames = [numClasses]string{"point", "text", "range", "insert", "update"}

func (c opClass) String() string { return classNames[c] }
func (c opClass) isWrite() bool  { return c == opInsert || c == opUpdate }

const (
	schemaTable = "CREATE TABLE messages (id INT, forum INT, author TEXT, subject TEXT, body TEXT)"
	pointSQL    = "SELECT id, author, body FROM messages WHERE id = ?"
	rangeSQL    = "SELECT id, author, body FROM messages WHERE forum = ? ORDER BY id LIMIT 20"
	insertSQL   = "INSERT INTO messages (id, forum, author, subject, body) VALUES (?, ?, ?, ?, ?)"
	updateSQL   = "UPDATE messages SET body = ? WHERE id = ?"

	rangeLimit = 20
	bodyLen    = 100 // every body is exactly this long, so an id's annotation never changes
	subject    = "load"

	// insertBase separates inserted ids from preloaded ones; client c
	// inserts insertBase*(c+1), +1, +2, … so clients never collide.
	insertBase = 1_000_000
)

var schemaSQL = []string{
	schemaTable,
	"CREATE INDEX ON messages (forum)",
	"CREATE INDEX ON messages (id)",
}

// op is one generated request.
type op struct {
	class opClass
	id    int64  // row id (every class but range)
	forum int64  // range: the forum read; insert: the forum written
	ver   uint32 // writes: body version, unique per (client, position)
}

// mix is a traffic shape: reads are split by weight over point/text/range,
// writes over insert/update, and every writeEvery-th op is a write
// (0 = never, 1 = always).
type mix struct {
	reads      [3]int // point, text, range
	writes     [2]int // insert, update
	writeEvery int
}

var (
	readMix  = [3]int{70, 10, 20}
	writeMix = [2]int{70, 30}
)

// hasReads and hasWrites say which metrics a phase of m yields.
func (m mix) hasReads() bool  { return m.writeEvery != 1 }
func (m mix) hasWrites() bool { return m.writeEvery > 0 }

// table is the data model shared by generator and oracles.
type table struct {
	seed     int64
	rows     int64
	forums   int64
	policies int64
	clients  int // modulus that partitions UPDATE targets between clients
	perm     []int32
	sources  []string // policy index → UntrustedData.Source
	wantAnn  [][]byte // policy index → canonical annotation of a bodyLen body
}

func newTable(seed int64, rows, forums, policies, clients int) (*table, error) {
	t := &table{seed: seed, rows: int64(rows), forums: int64(forums), policies: int64(policies), clients: clients}
	r := rand.New(rand.NewSource(mixSeed(seed, 0x7461626c65)))
	t.perm = make([]int32, rows)
	for i, v := range r.Perm(rows) {
		t.perm[i] = int32(v)
	}
	t.sources = make([]string, policies)
	t.wantAnn = make([][]byte, policies)
	probe := core.NewString(bodyFor(0, 0))
	for i := range t.sources {
		t.sources[i] = fmt.Sprintf("s%d-p%05d", seed, i)
		ann, err := core.EncodeSpans(sanitize.Taint(probe, t.sources[i]))
		if err != nil {
			return nil, fmt.Errorf("derive annotation %d: %w", i, err)
		}
		t.wantAnn[i] = ann
	}
	return t, nil
}

func (t *table) policyIndex(id int64) int64 { return id % t.policies }

// forumOf places preloaded rows in forums 1..forums and inserted rows in
// forums+1..2*forums, which no range read scans: a range read's cost must
// not depend on how many inserts the run has managed so far, or a
// time-bounded run on a faster disk would report slower reads.
func (t *table) forumOf(id int64) int64 {
	if id >= insertBase {
		return t.forums + id%t.forums + 1
	}
	return id%t.forums + 1
}

func author(id int64) string { return "user" + strconv.FormatInt(id%1000, 10) }

// body returns the tainted body of (id, ver): a fresh policy object per
// call, as an input boundary would mint one.
func (t *table) body(id int64, ver uint32) core.String {
	return sanitize.Taint(core.NewString(bodyFor(id, ver)), t.sources[t.policyIndex(id)])
}

// bodyFor is the raw body: "<id>.<ver> " then filler, exactly bodyLen bytes.
func bodyFor(id int64, ver uint32) string {
	var b [bodyLen]byte
	p := strconv.AppendInt(b[:0], id, 10)
	p = append(p, '.')
	p = strconv.AppendUint(p, uint64(ver), 10)
	p = append(p, ' ')
	x := uint64(id)*0x9E3779B97F4A7C15 ^ uint64(ver)*0xBF58476D1CE4E5B9
	for len(p) < bodyLen {
		x = x*6364136223846793005 + 1442695040888963407
		p = append(p, "abcdefghijklmnopqrstuvwxyz      "[x>>59])
	}
	return string(p)
}

// userBytes is the payload a write carries: 8 per integer column plus the
// string lengths. It is the denominator of wal_bytes_per_user_byte.
func userBytes(o op) int64 {
	if o.class == opInsert {
		return 16 + int64(len(author(o.id))+len(subject)+bodyLen)
	}
	return 8 + bodyLen
}

func mixSeed(seed int64, salt uint64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// generator yields one client's op stream. It outlives phases: setMix
// changes the traffic shape, insert ids and body versions keep counting.
type generator struct {
	t       *table
	r       *rand.Rand
	zipf    *rand.Zipf
	client  int
	m       mix
	n       uint64
	inserts int64
}

func newGenerator(t *table, workload string, client int) *generator {
	h := fnv.New64a()
	h.Write([]byte(workload)) //nolint:errcheck
	r := rand.New(rand.NewSource(mixSeed(t.seed, h.Sum64()+uint64(client)*0x632be5ab)))
	return &generator{t: t, r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(t.rows-1)), client: client}
}

func (g *generator) setMix(m mix) { g.m = m }

func pick(r *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := r.Intn(total)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	return len(weights) - 1
}

// hotID draws a preloaded id, Zipf(1.1) over a seed-fixed permutation so
// the hot ids are spread over forums and policies.
func (g *generator) hotID() int64 { return int64(g.t.perm[g.zipf.Uint64()]) }

func (g *generator) next() op {
	g.n++
	write := g.m.writeEvery > 0 && g.n%uint64(g.m.writeEvery) == 0
	if !write {
		switch c := opClass(pick(g.r, g.m.reads[:])); c {
		case opRange:
			return op{class: opRange, forum: g.r.Int63n(g.t.forums) + 1}
		default:
			return op{class: c, id: g.hotID()}
		}
	}
	ver := uint32(g.n)
	if pick(g.r, g.m.writes[:]) == 0 {
		id := insertBase*int64(g.client+1) + g.inserts
		g.inserts++
		return op{class: opInsert, id: id, forum: g.t.forumOf(id), ver: ver}
	}
	// An id has one updating client, so "the last acknowledged UPDATE"
	// is well defined without ordering acks across clients.
	id := g.hotID()
	id += int64(g.client) - id%int64(g.t.clients)
	if id >= g.t.rows {
		id -= int64(g.t.clients)
	}
	return op{class: opUpdate, id: id, ver: ver}
}

// streamHash fingerprints what a run of w sends: the first n ops of every
// client under the main mix, then under each probe's mix.
func streamHash(t *table, w workload, n int) string {
	var mixes []mix
	if !w.page {
		mixes = append(mixes, w.m)
	}
	for _, p := range w.probes() {
		mixes = append(mixes, p.m)
	}
	h := fnv.New64a()
	var buf [21]byte
	for c := 0; c < t.clients; c++ {
		g := newGenerator(t, w.name, c)
		for _, m := range mixes {
			g.setMix(m)
			for i := 0; i < n; i++ {
				o := g.next()
				buf[0] = byte(o.class)
				binary.LittleEndian.PutUint64(buf[1:], uint64(o.id))
				binary.LittleEndian.PutUint64(buf[9:], uint64(o.forum))
				binary.LittleEndian.PutUint32(buf[17:], o.ver)
				h.Write(buf[:]) //nolint:errcheck // hash.Hash never fails
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
