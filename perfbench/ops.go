package main

// The request mix shared by read and serve (and by load's post-recovery
// verification), its in-process execution through the Go API, and the
// checks of every answer against the reference.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/ndm"
	"repro/internal/rdfterm"
)

type opKind int

const (
	opFind opKind = iota
	opReified
	opDBUri
	opQuery
	opTraverse
	opInsert
	nKinds
)

var kindNames = [nKinds]string{"find", "reified", "dburi", "query", "traverse", "insert"}

// mix is a request mix in percent, in opKind order.
type mix [nKinds]int

// readMix is the in-process mix; it writes nothing. serveMix draws from
// the same seeded pools over HTTP: it has no DBUri resolution (the server
// exposes none) and adds durable inserts.
var (
	readMix  = mix{38, 13, 6, 24, 19, 0}
	serveMix = mix{40, 11, 0, 22, 17, 10}
)

// insertBatch is the number of triples per insert request.
const insertBatch = 8

type op struct {
	kind  opKind
	prot  int        // find: protein index
	stmt  int        // reified, dburi: statement index
	want  bool       // reified: expected answer
	q     *queryInst // query
	t     *travInst  // traverse
	insID string     // insert: subject of the batch
	// tenant is the serving tenant (X-Tenant) the request is sent as.
	tenant int
}

// tenants is the number of tenants serve's requests are spread over;
// opGen deals them out in turn.
const tenants = 3

// workload inputs shared by the executors.
type inputs struct {
	c     *corpus
	qpool []*queryInst
	tpool []*travInst
	seed  int64
	// findWant holds each protein's expected lookup answer and findWire
	// the same as the server writes it; built once, so that checking a
	// lookup compares a few dozen terms and builds nothing.
	findWant [][]core.Triple
	findWire [][]wireTriple
	// dburis maps a seeAlso statement's index to the DBUri of its link in
	// the store under test, and reiWire a reified one's expected
	// reification row as the server writes it (setDBUris fills both).
	dburis  map[int]string
	reiWire map[int]wireTriple
}

// prepare builds the expected answers in the form the checks compare.
func (in *inputs) prepare() {
	c := in.c
	in.findWant = make([][]core.Triple, len(c.Proteins))
	in.findWire = make([][]wireTriple, len(c.Proteins))
	for p, subj := range c.Proteins {
		for _, i := range c.BySubject[subj] {
			st := c.Stmts[i]
			in.findWant[p] = append(in.findWant[p], core.Triple{Subject: st.S, Property: st.P, Object: st.O})
			in.findWire[p] = append(in.findWire[p], wireTriple{render(st.S), render(st.P), render(st.O)})
		}
	}
	for _, q := range in.qpool {
		q.prepare()
	}
}

// setDBUris records the DBUri the store gave each seeAlso statement
// (dburisOf) and derives the expectations that name DBUris.
func (in *inputs) setDBUris(dburis map[int]string) {
	in.dburis = dburis
	in.reiWire = map[int]wireTriple{}
	for _, idx := range in.c.Reified {
		in.reiWire[idx] = wireTriple{"<" + dburis[idx] + ">", "<" + rdfType + ">", "<" + rdfStmt + ">"}
	}
	for _, q := range in.qpool {
		if q.Resolve {
			q.setDBUris(dburis)
		}
	}
}

// sameSet reports whether got holds exactly the elements of want (which
// has no duplicates), in any order, and if not, an element of got that
// is not expected. The sets checked are small, so a scan beats a map.
func sameSet[T comparable](got, want []T) (extra T, ok bool) {
	var buf [64]bool
	used := buf[:0]
	if len(want) <= len(buf) {
		used = buf[:len(want)]
	} else {
		used = make([]bool, len(want))
	}
	for _, g := range got {
		found := false
		for i, w := range want {
			if !used[i] && g == w {
				used[i], found = true, true
				break
			}
		}
		if !found {
			return g, false
		}
	}
	return extra, len(got) == len(want)
}

// corruptReference, when set, alters the reference after it is built.
// The benchmark's tests corrupt one expected answer with it to show that
// the checks fail the run.
var corruptReference func(*inputs)

// roundLen is the number of ops in one round of a client's stream.
const roundLen = 100

// opGen produces one client's op stream in rounds of roundLen ops whose
// kinds follow the mix exactly. Within a kind it cycles through a seeded
// shuffle of that kind's pool, so a run executes the pools evenly and
// two runs of the same seed attempt the same operations. Subjects of
// lookups are drawn Zipf-skewed; IS_REIFIED probes alternate between
// reified and non-reified statements.
type opGen struct {
	in     *inputs
	client int
	round  []opKind
	pos    int
	n      int
	finds  []int
	rei    []op
	dburi  []int
	qs, ts []int
	cur    [nKinds]int
	seq    int
}

func newOpGen(in *inputs, client int, w mix) *opGen {
	rng := rand.New(rand.NewSource(in.seed*7919 + int64(client)))
	g := &opGen{in: in, client: client}
	for k := opKind(0); k < nKinds; k++ {
		for i := 0; i < w[k]; i++ {
			g.round = append(g.round, k)
		}
	}
	rng.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
	c := in.c
	perm := rng.Perm(len(c.Proteins))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(c.Proteins)-1))
	g.finds = make([]int, 4096)
	for i := range g.finds {
		g.finds[i] = perm[zipf.Uint64()]
	}
	rei, not := rng.Perm(len(c.Reified)), rng.Perm(len(c.NotRei))
	for i := 0; i < len(rei) && i < len(not); i++ {
		g.rei = append(g.rei, op{kind: opReified, stmt: c.Reified[rei[i]], want: true}, op{kind: opReified, stmt: c.NotRei[not[i]]})
	}
	for _, i := range rng.Perm(len(c.Reified)) {
		g.dburi = append(g.dburi, c.Reified[i])
	}
	g.qs, g.ts = rng.Perm(len(in.qpool)), rng.Perm(len(in.tpool))
	return g
}

// roundDone reports whether the stream stands at a round boundary.
func (g *opGen) roundDone() bool { return g.pos == 0 }

func (g *opGen) next() op {
	o := g.draw()
	o.tenant = (g.client + g.seq) % tenants
	g.seq++
	return o
}

func (g *opGen) draw() op {
	k := g.round[g.pos]
	g.pos = (g.pos + 1) % len(g.round)
	i := g.cur[k]
	g.cur[k]++
	switch k {
	case opFind:
		return op{kind: k, prot: g.finds[i%len(g.finds)]}
	case opReified:
		return g.rei[i%len(g.rei)]
	case opDBUri:
		return op{kind: k, stmt: g.dburi[i%len(g.dburi)]}
	case opQuery:
		return op{kind: k, q: g.in.qpool[g.qs[i%len(g.qs)]]}
	case opTraverse:
		return op{kind: k, t: g.in.tpool[g.ts[i%len(g.ts)]]}
	}
	g.n++
	return op{kind: opInsert, insID: fmt.Sprintf("urn:bench:ins:s%d:c%d:n%d", g.in.seed, g.client, g.n)}
}

// insertTriples is the batch an insert op writes.
func insertTriples(id string) [][3]rdfterm.Term {
	out := make([][3]rdfterm.Term, insertBatch)
	for i := range out {
		out[i] = [3]rdfterm.Term{uri(id), uri(fmt.Sprintf("%s%d", pInsNote, i)), rdfterm.NewLiteral(fmt.Sprintf("note %d of %s", i, id))}
	}
	return out
}

// lat collects per-kind latencies in nanoseconds.
type lat struct {
	ns [nKinds][]int64
}

func (l *lat) add(k opKind, d time.Duration) { l.ns[k] = append(l.ns[k], int64(d)) }

// pctUS returns the q-quantile of kind k in microseconds (nearest rank).
func (l *lat) pctUS(k opKind, q float64) float64 {
	return quantileUS(l.ns[k], q)
}

func quantileUS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s)-1) + 0.5)
	return float64(s[i]) / 1e3
}

// local executes ops in-process against a store and checks the answers.
type local struct {
	in  *inputs
	st  *core.Store
	net *core.RDFNetwork
	rec *recorder // nil when untraced
}

func newLocal(in *inputs, st *core.Store) (*local, error) {
	net, err := st.Network(modelPPI)
	if err != nil {
		return nil, err
	}
	return &local{in: in, st: st, net: net}, nil
}

// do runs one op and returns its latency; an error is a failed check or
// a failed call.
func (l *local) do(ctx context.Context, o op) (time.Duration, error) {
	c := l.in.c
	rec := l.rec
	switch o.kind {
	case opFind:
		subj := c.Proteins[o.prot]
		var got []core.Triple
		var err error
		d := rec.time(0, "core.find", func(int64) { got, err = l.st.FindBySubjectTextCtx(ctx, modelUni, subj) })
		if err != nil {
			return d, err
		}
		rec.note("core.find_links", float64(len(got)))
		return d, bad(checkFind(subj, got, l.in.findWant[o.prot]))
	case opReified:
		st := c.Stmts[o.stmt]
		var got bool
		var err error
		d := rec.time(0, "core.reified", func(int64) {
			got, err = l.st.IsReified(modelUni, ntTerm(st.S), ntTerm(st.P), ntTerm(st.O), nil)
		})
		if err != nil {
			return d, err
		}
		if got != o.want {
			return d, bad(fmt.Errorf("IS_REIFIED%s = %v, reference says %v", stmtText(st), got, o.want))
		}
		return d, nil
	case opDBUri:
		st := c.Stmts[o.stmt]
		var err error
		var tr core.Triple
		var sub, prop, obj string
		d := rec.time(0, "core.dburi", func(id int64) {
			ts, ok, e := l.st.IsTripleTerms(modelUni, st.S, st.P, st.O)
			if e != nil || !ok {
				err = fmt.Errorf("IS_TRIPLE%s = %v, %v", stmtText(st), ok, e)
				return
			}
			rec.time(id, "core.dburi_resolve", func(int64) { tr, err = l.st.ResolveDBUri(core.DBUri(ts.TID)) })
			if err != nil {
				return
			}
			rec.time(id, "core.member_fn", func(int64) {
				if sub, err = ts.GetSubject(); err != nil {
					return
				}
				if prop, err = ts.GetProperty(); err != nil {
					return
				}
				obj, err = ts.GetObject()
			})
		})
		if err != nil {
			return d, err
		}
		if tr.Subject != st.S || tr.Property != st.P || tr.Object != st.O {
			return d, bad(fmt.Errorf("ResolveDBUri(DBUri of %s) = %v", stmtText(st), tr))
		}
		if sub != st.S.Value || prop != st.P.Value || obj != st.O.Value {
			return d, bad(fmt.Errorf("member functions of %s = %q %q %q", stmtText(st), sub, prop, obj))
		}
		return d, nil
	case opQuery:
		return l.query(ctx, o.q)
	case opTraverse:
		return l.traverse(ctx, o.t)
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

func stmtText(st stmt) string {
	return "(" + ntTerm(st.S) + " " + ntTerm(st.P) + " " + ntTerm(st.O) + ")"
}

// checkFind compares a subject lookup with the generator's statements.
func checkFind(subj string, got, want []core.Triple) error {
	if len(got) != len(want) {
		return fmt.Errorf("find %s: %d triples, reference has %d", subj, len(got), len(want))
	}
	if t, ok := sameSet(got, want); !ok {
		return fmt.Errorf("find %s: unexpected triple %v", subj, t)
	}
	return nil
}

func (l *local) query(ctx context.Context, q *queryInst) (time.Duration, error) {
	opts := match.Options{Models: q.Models, Filter: q.Filter, Distinct: q.Distinct, Limit: q.Limit}
	if q.OrderBy != "" {
		opts.OrderBy = []string{q.OrderBy}
	}
	var rs *match.ResultSet
	var err error
	var tr match.Trace
	text := q.text()
	rec := l.rec
	d := rec.time(0, "match.query", func(id int64) {
		if rec != nil {
			// The traced run times parsing on its own and asks the
			// engine for its EXPLAIN record.
			rec.time(id, "match.parse", func(int64) { _, err = match.ParseQuery(text, nil) })
			if err != nil {
				return
			}
			opts.Trace = &tr
		}
		rec.time(id, "match.exec", func(int64) { rs, err = match.MatchContext(ctx, l.st, text, opts) })
	})
	if err != nil {
		return d, fmt.Errorf("query %s: %w", text, err)
	}
	if rec != nil {
		var cand, est, qerr float64
		for _, s := range tr.Stages {
			cand += float64(s.Candidates)
			if s.EstRows >= 0 {
				est++
				qerr += qError(s.EstRows, float64(s.OutBindings))
			}
		}
		rec.note("match.rows_examined", cand)
		rec.note("match.rows_returned", float64(rs.Len()))
		if est > 0 {
			rec.note("match.estimate_qerror", qerr/est)
		}
	}
	return d, bad(l.checkQuery(q, rs))
}

// qError is max(est/actual, actual/est) with both sides floored at 1.
func qError(est, act float64) float64 {
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

func (l *local) checkQuery(q *queryInst, rs *match.ResultSet) error {
	cols := make([]int, len(q.Vars))
	for i, name := range q.Vars {
		cols[i] = rs.Col(name)
		if cols[i] < 0 {
			return fmt.Errorf("query %s: no column %s", q.text(), name)
		}
	}
	if q.Resolve {
		got := make([]string, rs.Len())
		for i, row := range rs.Rows {
			got[i] = row[cols[0]].Value
		}
		return checkDBUris(q, got)
	}
	got := make([]string, rs.Len())
	picked := make([]rdfterm.Term, len(cols))
	for i, row := range rs.Rows {
		for j, col := range cols {
			picked[j] = row[col]
		}
		got[i] = rowKey(picked, termKey)
	}
	return compareRows(q, got, q.wantTerm)
}

// checkDBUris checks the DBUri query: its rows must be the DBUris of the
// reified statements the reference lists for the evidence code, each
// exactly once. (ResolveDBUri of each of those DBUris is checked when
// they are gathered, and by every dburi op.)
func checkDBUris(q *queryInst, got []string) error {
	if len(got) != len(q.wantDBUris) {
		return fmt.Errorf("query %s: %d rows, reference has %d", q.text(), len(got), len(q.wantDBUris))
	}
	seen := make(map[string]bool, len(got))
	for _, u := range got {
		if !q.wantDBUris[u] || seen[u] {
			return fmt.Errorf("query %s: unexpected or repeated DBUri %s", q.text(), u)
		}
		seen[u] = true
	}
	return nil
}

// compareRows compares result rows (as keys) with the reference's keys.
func compareRows(q *queryInst, got, want []string) error {
	if q.OrderBy == "" {
		sort.Strings(got)
	}
	if len(got) != len(want) {
		return fmt.Errorf("query %s: %d rows, reference has %d", q.text(), len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("query %s: row %d = %q, reference %q", q.text(), i, got[i], want[i])
		}
	}
	return nil
}

// timedGraph is the traced run's ndm.Graph decorator around
// core.RDFNetwork: it times each OutLinks call into the store apart from
// the traversal code's callback.
type timedGraph struct {
	ndm.Graph
	rec    *recorder
	parent int64
}

func (g *timedGraph) OutLinks(node int64, fn func(linkID, end int64, cost float64) bool) {
	type hop struct {
		id, end int64
		cost    float64
	}
	var hops []hop
	g.rec.time(g.parent, "core.out_links", func(int64) {
		g.Graph.OutLinks(node, func(id, end int64, cost float64) bool {
			hops = append(hops, hop{id, end, cost})
			return true
		})
	})
	g.rec.note("ndm.links_visited", float64(len(hops)))
	for _, h := range hops {
		if !fn(h.id, h.end, h.cost) {
			return
		}
	}
}

func (l *local) traverse(ctx context.Context, t *travInst) (time.Duration, error) {
	c := l.in.c
	var res travResult
	var err error
	d := l.rec.time(0, "ndm.traverse", func(id int64) {
		var g ndm.Graph = l.net.WithContext(ctx)
		if l.rec != nil {
			g = &timedGraph{Graph: g, rec: l.rec, parent: id}
		}
		src, ok := l.net.NodeID(uri(c.Proteins[t.Src]))
		if !ok {
			err = fmt.Errorf("traverse: source %s is not a node", c.Proteins[t.Src])
			return
		}
		name := func(n int64) string {
			term, e := l.net.NodeTerm(n)
			if e != nil {
				err = e
			}
			return term.Value
		}
		switch t.Op {
		case "shortest_path":
			dst, ok := l.net.NodeID(uri(c.Proteins[t.Dst]))
			if !ok {
				err = fmt.Errorf("traverse: target %s is not a node", c.Proteins[t.Dst])
				return
			}
			p, e := ndm.ShortestPathCtx(ctx, g, src, dst)
			if e == ndm.ErrNoPath {
				return
			}
			if err = e; err != nil {
				return
			}
			res.found, res.cost = true, p.Cost
			for _, n := range p.Nodes {
				res.path = append(res.path, name(n))
			}
		case "within_cost", "nearest":
			var ncs []ndm.NodeCost
			if t.Op == "within_cost" {
				ncs, err = ndm.WithinCostCtx(ctx, g, src, t.MaxCost)
			} else {
				ncs, err = ndm.NearestNeighborsCtx(ctx, g, src, t.K)
			}
			for _, nc := range ncs {
				res.nodes = append(res.nodes, nodeCost{name(nc.Node), nc.Cost})
			}
		case "reachable":
			var ns []int64
			ns, err = ndm.ReachableCtx(ctx, g, src, t.Depth)
			for _, n := range ns {
				res.nodes = append(res.nodes, nodeCost{name: name(n)})
			}
		}
	})
	if err != nil {
		return d, err
	}
	return d, bad(checkTraversal(c, t, res))
}

type nodeCost struct {
	name string
	cost float64
}

type travResult struct {
	found bool
	cost  float64
	path  []string
	nodes []nodeCost
}

// checkTraversal compares a traversal answer with Dijkstra/BFS over the
// generator's edge list.
func checkTraversal(c *corpus, t *travInst, r travResult) error {
	node := func(name string) (int, error) {
		i, ok := c.NodeIndex[name]
		if !ok {
			return 0, fmt.Errorf("%s %s: %s is not a network node", t.Op, c.Proteins[t.Src], name)
		}
		return i, nil
	}
	fail := func(format string, a ...interface{}) error {
		return fmt.Errorf("%s from %s: %s", t.Op, c.Proteins[t.Src], fmt.Sprintf(format, a...))
	}
	switch t.Op {
	case "shortest_path":
		want, reachable := t.Dist[t.Dst]
		if r.found != reachable {
			return fail("found=%v, reference %v", r.found, reachable)
		}
		if !r.found {
			return nil
		}
		if r.cost != want {
			return fail("cost %v, reference %v", r.cost, want)
		}
		if len(r.path) < 2 || r.path[0] != c.Proteins[t.Src] || r.path[len(r.path)-1] != c.Proteins[t.Dst] {
			return fail("path %v does not join the endpoints", r.path)
		}
		sum := 0
		for i := 1; i < len(r.path); i++ {
			a, err := node(r.path[i-1])
			if err != nil {
				return err
			}
			b, err := node(r.path[i])
			if err != nil {
				return err
			}
			w, ok := c.Adj[a][b]
			if !ok {
				return fail("path uses a missing edge %s -> %s", r.path[i-1], r.path[i])
			}
			sum += w
		}
		if float64(sum) != want {
			return fail("path weight %d, reference distance %v", sum, want)
		}
	case "within_cost":
		if len(r.nodes) != len(t.Dist)-1 {
			return fail("%d nodes, reference %d", len(r.nodes), len(t.Dist)-1)
		}
		for _, nc := range r.nodes {
			i, err := node(nc.name)
			if err != nil {
				return err
			}
			if d, ok := t.Dist[i]; !ok || d != nc.cost || i == t.Src {
				return fail("node %s at cost %v, reference %v (%v)", nc.name, nc.cost, d, ok)
			}
		}
	case "nearest":
		all := t.Nearest
		if len(r.nodes) != len(all) {
			return fail("%d nodes, reference %d", len(r.nodes), len(all))
		}
		for i, nc := range r.nodes {
			n, err := node(nc.name)
			if err != nil {
				return err
			}
			if nc.cost != all[i] || t.Dist[n] != nc.cost || n == t.Src {
				return fail("neighbour %d %s at cost %v, reference %v", i, nc.name, nc.cost, all[i])
			}
		}
	case "reachable":
		if len(r.nodes) != len(t.Reach) {
			return fail("%d nodes, reference %d", len(r.nodes), len(t.Reach))
		}
		for _, nc := range r.nodes {
			n, err := node(nc.name)
			if err != nil {
				return err
			}
			if !t.Reach[n] {
				return fail("unexpected node %s", nc.name)
			}
		}
	}
	return nil
}

// dburisOf maps every seeAlso statement to the DBUri of its link in st,
// checking on the way that ResolveDBUri takes each DBUri back to its
// statement. It returns what it found and the first failed check.
func dburisOf(st *core.Store, c *corpus) (map[int]string, error) {
	out := map[int]string{}
	var first error
	for _, idx := range append(append([]int(nil), c.Reified...), c.NotRei...) {
		s := c.Stmts[idx]
		ts, ok, err := st.IsTripleTerms(modelUni, s.S, s.P, s.O)
		if err != nil || !ok {
			if first == nil {
				first = fmt.Errorf("IS_TRIPLE%s = %v, %v", stmtText(s), ok, err)
			}
			continue
		}
		u := core.DBUri(ts.TID)
		tr, err := st.ResolveDBUri(u)
		if err != nil || tr.Subject != s.S || tr.Property != s.P || tr.Object != s.O {
			if first == nil {
				first = fmt.Errorf("ResolveDBUri(%s) = %v, %v; reference %s", u, tr, err, stmtText(s))
			}
			continue
		}
		out[idx] = u
	}
	return out, first
}

// checkAcked verifies, on a recovered store, that every acknowledged
// insert batch is present exactly.
func checkAcked(st *core.Store, acked []string) error {
	for _, id := range acked {
		got, err := st.FindBySubjectText(modelIns, id)
		if err != nil {
			return fmt.Errorf("acked insert %s: %w", id, err)
		}
		want := map[string]bool{}
		for _, t := range insertTriples(id) {
			want[stmtKey(t[0], t[1], t[2])] = true
		}
		if len(got) != len(want) {
			return fmt.Errorf("acked insert %s: %d of %d triples after recovery", id, len(got), len(want))
		}
		for _, t := range got {
			if !want[stmtKey(t.Subject, t.Property, t.Object)] {
				return fmt.Errorf("acked insert %s: unexpected %v", id, t)
			}
		}
	}
	if n, err := st.NumTriples(modelIns); err != nil || n != insertBatch*len(acked) {
		return fmt.Errorf("insert model holds %d rows (%v), %d batches acknowledged", n, err, len(acked))
	}
	return nil
}

// checkStore verifies the model row counts and the store invariants.
func checkStore(st *core.Store, c *corpus) error {
	if errs := st.CheckInvariants(); len(errs) > 0 {
		return fmt.Errorf("CheckInvariants: %d violations, first: %v", len(errs), errs[0])
	}
	if n, err := st.NumTriples(modelUni); err != nil || n != c.uniRows() {
		return fmt.Errorf("%s holds %d rows (%v), reference %d (one row per quad, §7.3)", modelUni, n, err, c.uniRows())
	}
	if n, err := st.ReifiedCount(modelUni); err != nil || n != len(c.Reified) {
		return fmt.Errorf("%s has %d reified statements (%v), reference %d", modelUni, n, err, len(c.Reified))
	}
	if n, err := st.NumTriples(modelPPI); err != nil || n != c.netRows() {
		return fmt.Errorf("%s holds %d rows (%v), reference %d", modelPPI, n, err, c.netRows())
	}
	return nil
}
