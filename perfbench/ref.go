package main

// The independent reference: a nested-loop BGP evaluator over the
// generator's statements and Dijkstra/BFS over its edge list. Expected
// answers are computed here, never by calling the program.

import (
	"container/heap"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdfterm"
)

// pterm is a query pattern position: a variable or a constant.
type pterm struct {
	Var string
	T   rdfterm.Term
}

type pattern [3]pterm

func v(name string) pterm        { return pterm{Var: name} }
func konst(t rdfterm.Term) pterm { return pterm{T: t} }
func cu(s string) pterm          { return pterm{T: uri(s)} }
func (p pterm) text() string {
	if p.Var != "" {
		return "?" + p.Var
	}
	return ntTerm(p.T)
}

// queryInst is one SDO_RDF_MATCH request with its expected answer.
type queryInst struct {
	Name     string
	Pats     []pattern
	Models   []string
	Vars     []string // the variables the check compares, in this order
	Filter   string   // match filter syntax
	filterFn func(b map[string]rdfterm.Term) bool
	Distinct bool
	OrderBy  string // one variable, or ""
	Limit    int
	// Want holds the expected rows, one term per Vars entry; with
	// OrderBy their order matters.
	Want [][]rdfterm.Term
	// Resolve marks the DBUri query: column 0 is a DBUri, and Stmts
	// lists the reified statements (indexes into the corpus) whose DBUris
	// it must return, each once.
	Resolve bool
	Stmts   []int

	// The expected answer in the form the checks compare, built once by
	// prepare and setDBUris so that a check is lookups and comparisons:
	// wantTerm and wantWire are Want as row keys (termKey, and render as
	// the server writes terms), sorted unless the query orders its rows;
	// wantDBUris is the DBUri set of the Resolve query.
	wantTerm, wantWire []string
	wantDBUris         map[string]bool
}

func (q *queryInst) text() string {
	var b strings.Builder
	for i, p := range q.Pats {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("(" + p[0].text() + " " + p[1].text() + " " + p[2].text() + ")")
	}
	return b.String()
}

// termKey is the comparison key of a term: kind, value, datatype and
// language.
func termKey(t rdfterm.Term) string {
	return strconv.Itoa(int(t.Kind)) + "|" + t.Value + "|" + t.Datatype + "|" + t.Language
}

// refDB indexes the generator's statements by model for evaluation.
type refDB struct {
	c      *corpus
	netStm []stmt
}

func newRefDB(c *corpus) *refDB {
	r := &refDB{c: c}
	for a, m := range c.Adj {
		for b := range m {
			r.netStm = append(r.netStm, stmt{S: uri(c.Proteins[a]), P: uri(pInteracts), O: uri(c.Proteins[b])})
		}
	}
	return r
}

// candidates returns the statements of the given models that could match
// the pattern with the current bindings substituted.
func (r *refDB) candidates(models []string, p pattern) []stmt {
	var out []stmt
	for _, m := range models {
		switch m {
		case modelUni:
			var idx []int
			switch {
			case p[0].Var == "":
				idx = r.c.BySubject[p[0].T.Value]
			case p[1].Var == "" && p[2].Var == "":
				idx = r.c.ByPredObj[p[1].T.Value+"\x00"+termKey(p[2].T)]
			case p[1].Var == "":
				idx = r.c.ByPred[p[1].T.Value]
			default:
				idx = make([]int, len(r.c.Stmts))
				for i := range idx {
					idx[i] = i
				}
			}
			for _, i := range idx {
				out = append(out, r.c.Stmts[i])
			}
		case modelPPI:
			out = append(out, r.netStm...)
		}
	}
	return out
}

// eval runs the BGP as nested loops in pattern order.
func (r *refDB) eval(q *queryInst) []map[string]rdfterm.Term {
	rows := []map[string]rdfterm.Term{{}}
	for _, p := range q.Pats {
		var next []map[string]rdfterm.Term
		for _, b := range rows {
			bound := p
			for i := range bound {
				if t, ok := b[bound[i].Var]; ok && bound[i].Var != "" {
					bound[i] = pterm{T: t}
				}
			}
			for _, st := range r.candidates(q.Models, bound) {
				nb, ok := unify(b, bound, st)
				if ok {
					next = append(next, nb)
				}
			}
		}
		rows = next
	}
	if q.filterFn != nil {
		kept := rows[:0]
		for _, b := range rows {
			if q.filterFn(b) {
				kept = append(kept, b)
			}
		}
		rows = kept
	}
	return rows
}

func unify(b map[string]rdfterm.Term, p pattern, st stmt) (map[string]rdfterm.Term, bool) {
	vals := [3]rdfterm.Term{st.S, st.P, st.O}
	nb := map[string]rdfterm.Term{}
	for k, t := range b {
		nb[k] = t
	}
	for i, pt := range p {
		if pt.Var == "" {
			if pt.T != vals[i] {
				return nil, false
			}
			continue
		}
		if t, ok := nb[pt.Var]; ok && t != vals[i] {
			return nil, false
		}
		nb[pt.Var] = vals[i]
	}
	return nb, true
}

// finish evaluates the query into q.Want.
func (r *refDB) finish(q *queryInst) {
	seen := map[string]bool{}
	for _, b := range r.eval(q) {
		row := make([]rdfterm.Term, len(q.Vars))
		for i, name := range q.Vars {
			row[i] = b[name]
		}
		if q.Distinct {
			k := rowKey(row, termKey)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		q.Want = append(q.Want, row)
	}
	if q.OrderBy != "" {
		col := indexOf(q.Vars, q.OrderBy)
		sort.SliceStable(q.Want, func(i, j int) bool { return q.Want[i][col].Value < q.Want[j][col].Value })
	}
	if q.Limit > 0 && len(q.Want) > q.Limit {
		q.Want = q.Want[:q.Limit]
	}
}

// rowKey joins the keys of a row's terms.
func rowKey(row []rdfterm.Term, key func(rdfterm.Term) string) string {
	parts := make([]string, len(row))
	for i, t := range row {
		parts[i] = key(t)
	}
	return strings.Join(parts, "\x00")
}

// wantKeys renders the expected rows with key, sorted unless the query
// orders its rows.
func (q *queryInst) wantKeys(key func(rdfterm.Term) string) []string {
	out := make([]string, len(q.Want))
	for i, row := range q.Want {
		out[i] = rowKey(row, key)
	}
	if q.OrderBy == "" {
		sort.Strings(out)
	}
	return out
}

// prepare builds the row keys the checks compare against.
func (q *queryInst) prepare() {
	q.wantTerm, q.wantWire = q.wantKeys(termKey), q.wantKeys(render)
}

// setDBUris gives the Resolve query the DBUris of its statements, as
// the store named them (dburis maps a statement index to its DBUri).
func (q *queryInst) setDBUris(dburis map[int]string) {
	q.wantDBUris = make(map[string]bool, len(q.Stmts))
	for _, idx := range q.Stmts {
		q.wantDBUris[dburis[idx]] = true
	}
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}

// queryPool builds n query instances from the templates, drawing their
// constants from the seed.
func queryPool(c *corpus, r *refDB, rng *rand.Rand, n int) []*queryInst {
	var pool []*queryInst
	prot := func() string { return c.Proteins[rng.Intn(len(c.Proteins))] }
	// Sources of the multi-model join, ranked by out-degree so every
	// seed gets the same spread of fan-outs.
	byDegree := rng.Perm(c.Nodes)
	sort.SliceStable(byDegree, func(i, j int) bool { return len(c.Adj[byDegree[i]]) < len(c.Adj[byDegree[j]]) })
	nMulti := (n + 7) / 8
	// Template shares, in eighths: the chain (the middle of the cost
	// order) gets three, so the p50 of the mix falls inside one template
	// rather than on the edge between two.
	templates := [8]int{0, 4, 3, 1, 1, 1, 5, 2}
	for i := 0; len(pool) < n; i++ {
		var q *queryInst
		switch templates[i%8] {
		case 0: // 3-pattern star on a bound subject
			p := cu(prot())
			q = &queryInst{Name: "star", Models: []string{modelUni},
				Pats: []pattern{{p, cu(pMnemonic), v("m")}, {p, cu(pOrganism), v("o")}, {p, cu(pMass), v("w")}},
				Vars: []string{"m", "o", "w"}}
		case 1: // 3-pattern chain through shared citations
			q = &queryInst{Name: "chain", Models: []string{modelUni},
				Pats: []pattern{{cu(prot()), cu(pCitation), v("c")}, {v("q"), cu(pCitation), v("c")}, {v("q"), cu(pMnemonic), v("m")}},
				Vars: []string{"c", "q", "m"}}
		case 2: // FILTER + ORDER BY + LIMIT over a Zipf-skewed organism
			q = &queryInst{Name: "filter_order_limit", Models: []string{modelUni},
				// Organisms cycle through the 5 most frequent (the corpus
				// draws organisms Zipf-skewed by rank), so the heaviest
				// class, the most frequent organism, is 2.5% of the queries
				// and the p99 of the mix falls inside it rather than on
				// its edge.
				Pats:    []pattern{{v("p"), cu(pOrganism), cu(c.Orgs[(i/8)%5])}, {v("p"), cu(pMass), v("w")}},
				Vars:    []string{"p", "w"},
				Filter:  "?w > 100000",
				OrderBy: "p", Limit: 10}
			q.filterFn = func(b map[string]rdfterm.Term) bool {
				w, _ := strconv.Atoi(b["w"].Value)
				return w > 100000
			}
		case 3: // DISTINCT over a seeAlso/organism join
			pf := c.Stmts[c.ByPred[pSeeAlso][rng.Intn(len(c.ByPred[pSeeAlso]))]].O
			q = &queryInst{Name: "distinct", Models: []string{modelUni}, Distinct: true,
				Pats: []pattern{{v("p"), cu(pSeeAlso), konst(pf)}, {v("p"), cu(pOrganism), v("o")}},
				Vars: []string{"p", "o"}}
		case 4: // multi-model join over shared protein URIs
			a := c.Proteins[byDegree[(2*(i/8)+1)*c.Nodes/(2*nMulti)]]
			q = &queryInst{Name: "multi_model", Models: []string{modelUni, modelPPI},
				Pats: []pattern{{cu(a), cu(pInteracts), v("b")}, {v("b"), cu(pMnemonic), v("m")}},
				Vars: []string{"b", "m"}}
		case 5: // statements reified through DBUri, by evidence code
			code := c.EvCodes[rng.Intn(len(c.EvCodes))]
			q = &queryInst{Name: "dburi_evidence", Models: []string{modelUni}, Resolve: true,
				Pats:  []pattern{{v("r"), cu(pEvidence), cu(code)}, {v("r"), cu(rdfType), cu(rdfStmt)}},
				Vars:  []string{"r"},
				Stmts: c.Evidence[code]}
			pool = append(pool, q)
			continue
		}
		r.finish(q)
		pool = append(pool, q)
	}
	return pool
}

func stmtKey(s, p, o rdfterm.Term) string {
	return termKey(s) + "\x00" + termKey(p) + "\x00" + termKey(o)
}

// travInst is one NDM traversal with its expected answer.
type travInst struct {
	Op       string // shortest_path | within_cost | nearest | reachable
	Src, Dst int
	MaxCost  float64
	K        int
	Depth    int
	// Dist holds the reference distances from Src (Dijkstra); Reach the
	// nodes within Depth hops (BFS); Nearest the K smallest distances to
	// nodes other than Src, in ascending order.
	Dist    map[int]float64
	Reach   map[int]bool
	Nearest []float64
}

// travPool builds n traversals over the network with reference answers.
// A traversal's cost follows the part of the graph it visits, which on a
// power-law graph ranges over orders of magnitude; so for each operation
// the pool draws three times the candidates it needs, ranks them by the
// nodes the reference visits, and keeps evenly spaced ranks. Every seed
// then gets the same spread of light and heavy traversals.
func travPool(c *corpus, rng *rand.Rand, n int) []*travInst {
	var pool []*travInst
	for _, opName := range []string{"shortest_path", "within_cost", "nearest", "reachable"} {
		want := n / 4
		type cand struct {
			t    *travInst
			work int
		}
		var cands []cand
		for i := 0; i < 3*want; i++ {
			t := &travInst{Op: opName, Src: rng.Intn(c.Nodes), MaxCost: 2, K: 10, Depth: 2}
			work := 0
			switch t.Op {
			case "shortest_path":
				t.Dist = dijkstra(c, t.Src, -1)
				t.Dst = rng.Intn(c.Nodes)
				if len(t.Dist) > 1 && rng.Intn(4) != 0 {
					// Mostly a reachable target.
					reach := make([]int, 0, len(t.Dist))
					for node := range t.Dist {
						if node != t.Src {
							reach = append(reach, node)
						}
					}
					sort.Ints(reach)
					t.Dst = reach[rng.Intn(len(reach))]
				}
				if t.Dst == t.Src {
					t.Dst = (t.Src + 1) % c.Nodes
				}
				work = len(t.Dist)
				if d, ok := t.Dist[t.Dst]; ok {
					work = 0
					for _, x := range t.Dist {
						if x <= d {
							work++
						}
					}
				}
			case "within_cost":
				t.Dist = dijkstra(c, t.Src, t.MaxCost)
				work = len(t.Dist)
			case "nearest":
				t.Dist = dijkstra(c, t.Src, -1)
				for node, d := range t.Dist {
					if node != t.Src {
						t.Nearest = append(t.Nearest, d)
					}
				}
				sort.Float64s(t.Nearest)
				if len(t.Nearest) > t.K {
					t.Nearest = t.Nearest[:t.K]
				}
				work = len(t.Dist)
			case "reachable":
				t.Reach = bfs(c, t.Src, t.Depth)
				work = len(t.Reach)
			}
			cands = append(cands, cand{t, work})
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].work < cands[j].work })
		for j := 0; j < want; j++ {
			pool = append(pool, cands[(2*j+1)*len(cands)/(2*want)].t)
		}
	}
	return pool
}

type pqItem struct {
	node int
	d    float64
}
type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// dijkstra returns the distance of every node reachable from src (src
// included at 0), stopping past maxCost when maxCost >= 0.
func dijkstra(c *corpus, src int, maxCost float64) map[int]float64 {
	dist := map[int]float64{src: 0}
	done := map[int]bool{}
	h := &pq{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for nb, w := range c.Adj[it.node] {
			nd := it.d + float64(w)
			if maxCost >= 0 && nd > maxCost {
				continue
			}
			if d, ok := dist[nb]; !ok || nd < d {
				dist[nb] = nd
				heap.Push(h, pqItem{nb, nd})
			}
		}
	}
	return dist
}

// bfs returns the nodes within depth hops of src, src excluded.
func bfs(c *corpus, src, depth int) map[int]bool {
	seen := map[int]bool{src: true}
	frontier := []int{src}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []int
		for _, n := range frontier {
			for nb := range c.Adj[n] {
				if !seen[nb] {
					seen[nb] = true
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	delete(seen, src)
	return seen
}
