package main

// Input generation. Everything the program under test sees is produced
// here from the seed. The generator keeps its own copy of every
// statement, with reification flags and indexes; that copy is the
// reference every check compares the program's answers to.

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rdfterm"
)

// Vocabulary of the generated data.
const (
	uniNS       = "http://purl.uniprot.org/core/"
	pProtein    = uniNS + "Protein"
	pMnemonic   = uniNS + "mnemonic"
	pOrganism   = uniNS + "organism"
	pCitation   = uniNS + "citation"
	pSequence   = uniNS + "sequence"
	pCreated    = uniNS + "created"
	pMass       = uniNS + "mass"
	pSeeAlso    = "http://www.w3.org/2000/01/rdf-schema#seeAlso"
	pEvidence   = "urn:bench:evidence"
	pInteracts  = "urn:bench:interacts"
	pInsNote    = "urn:bench:note"
	rdfType     = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	rdfSubject  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#subject"
	rdfPred     = "http://www.w3.org/1999/02/22-rdf-syntax-ns#predicate"
	rdfObject   = "http://www.w3.org/1999/02/22-rdf-syntax-ns#object"
	rdfStmt     = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement"
	xsdDate     = "http://www.w3.org/2001/XMLSchema#date"
	xsdInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	probeURI    = "urn:lsid:uniprot.org:uniprot:P93259"
	probeSeeAls = "urn:lsid:uniprot.org:smart:SM00101"
	probeNotRei = "urn:lsid:uniprot.org:pfam:PF09103"
	probeRows   = 24
	modelUni    = "uniprot"
	modelPPI    = "ppi"
	modelIns    = "ins"
)

// stmt is one base statement of the corpus: stored as exactly one row.
type stmt struct {
	S, P, O rdfterm.Term
	// Reified marks statements the input reifies with a naive quad.
	Reified bool
	// Evidence is the evidence code asserted about the reification
	// ("" for none); stored as <DBUri, evidence, code>.
	Evidence string
}

// corpus is the UniProt-like model plus the interaction network.
type corpus struct {
	Stmts     []stmt
	Proteins  []string         // protein subject URIs, protein i at index i
	BySubject map[string][]int // subject URI -> indexes into Stmts
	ByPred    map[string][]int
	ByPredObj map[string][]int // predicate + "\x00" + termKey(object) -> indexes
	Reified   []int            // indexes of reified statements
	NotRei    []int            // indexes of non-reified seeAlso statements
	Evidence  map[string][]int
	EvCodes   []string
	Orgs      []string
	Pfams     []string
	// nt holds the N-Triples lines of protein i (quads expanded); the
	// load workload chunks the input at protein boundaries.
	nt [][]string

	// Network: node i is protein Proteins[i]; Adj[i] maps target -> weight
	// (the number of times the edge appears in the input, which the store
	// keeps as the link's COST).
	Nodes     int
	NodeIndex map[string]int // node URI -> node
	Adj       []map[int]int
	EdgeSeq   [][2]int // edge insertions in input order (repeats included)
}

// sizes shape a corpus.
type sizes struct {
	Proteins   int
	NetNodes   int
	NetEdges   int // edge insertions, repeats included
	LongEvery  int // a >4000-char sequence literal every n-th protein
	ReifyShare float64
}

func uri(s string) rdfterm.Term { return rdfterm.NewURI(s) }

// ntTerm renders a term in N-Triples syntax. Generated literals contain
// no characters that need escaping.
func ntTerm(t rdfterm.Term) string {
	switch t.Kind {
	case rdfterm.URI:
		return "<" + t.Value + ">"
	default:
		s := `"` + t.Value + `"`
		if t.Datatype != "" {
			s += "^^<" + t.Datatype + ">"
		}
		return s
	}
}

func ntLine(s, p, o rdfterm.Term) string {
	return ntTerm(s) + " " + ntTerm(p) + " " + ntTerm(o) + " ."
}

var letters = "ACDEFGHIKLMNPQRSTVWY"

func seqLit(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(letters[rng.Intn(len(letters))])
	}
	return b.String()
}

// generate builds a corpus from the seed.
func generate(seed int64, sz sizes) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{
		BySubject: map[string][]int{},
		ByPred:    map[string][]int{},
		ByPredObj: map[string][]int{},
		Evidence:  map[string][]int{},
	}
	nOrg := 300
	for i := 0; i < nOrg; i++ {
		c.Orgs = append(c.Orgs, fmt.Sprintf("urn:lsid:uniprot.org:taxonomy:%d", 1000+i*7))
	}
	nPfam := sz.Proteins/2 + 10
	for i := 0; i < nPfam; i++ {
		c.Pfams = append(c.Pfams, fmt.Sprintf("urn:lsid:uniprot.org:pfam:PF%05d", 10000+i))
	}
	for i := 0; i < 20; i++ {
		c.EvCodes = append(c.EvCodes, fmt.Sprintf("urn:bench:eco:E%02d", i))
	}
	nCit := sz.Proteins/4 + 5
	orgZipf := rand.NewZipf(rng, 1.2, 1, uint64(nOrg-1))
	stmtNo := 0
	for i := 0; i < sz.Proteins; i++ {
		subj := fmt.Sprintf("urn:lsid:uniprot.org:uniprot:Q%06d", i)
		if i == 0 {
			subj = probeURI
		}
		c.Proteins = append(c.Proteins, subj)
		s := uri(subj)
		var lines []string
		add := func(p string, o rdfterm.Term, reify bool) {
			st := stmt{S: s, P: uri(p), O: o, Reified: reify}
			idx := len(c.Stmts)
			lines = append(lines, ntLine(st.S, st.P, st.O))
			if reify {
				res := uri(fmt.Sprintf("urn:bench:stmt:%d", stmtNo))
				stmtNo++
				lines = append(lines,
					ntLine(res, uri(rdfType), uri(rdfStmt)),
					ntLine(res, uri(rdfSubject), st.S),
					ntLine(res, uri(rdfPred), st.P),
					ntLine(res, uri(rdfObject), st.O))
				if rng.Intn(2) == 0 {
					st.Evidence = c.EvCodes[rng.Intn(len(c.EvCodes))]
					lines = append(lines, ntLine(res, uri(pEvidence), uri(st.Evidence)))
					c.Evidence[st.Evidence] = append(c.Evidence[st.Evidence], idx)
				}
				c.Reified = append(c.Reified, idx)
			} else if p == pSeeAlso {
				c.NotRei = append(c.NotRei, idx)
			}
			c.Stmts = append(c.Stmts, st)
			c.BySubject[subj] = append(c.BySubject[subj], idx)
			c.ByPred[p] = append(c.ByPred[p], idx)
			po := p + "\x00" + termKey(o)
			c.ByPredObj[po] = append(c.ByPredObj[po], idx)
		}
		seqLen := 20 + rng.Intn(30)
		if sz.LongEvery > 0 && i%sz.LongEvery == sz.LongEvery-1 {
			seqLen = 4100
		}
		add(rdfType, uri(pProtein), false)
		add(pMnemonic, rdfterm.NewLiteral(fmt.Sprintf("M%06d_BENCH", i)), false)
		add(pOrganism, uri(c.Orgs[orgZipf.Uint64()]), false)
		add(pCreated, rdfterm.NewTypedLiteral(fmt.Sprintf("20%02d-%02d-%02d", rng.Intn(20), 1+rng.Intn(12), 1+rng.Intn(28)), xsdDate), false)
		add(pMass, rdfterm.NewTypedLiteral(fmt.Sprint(5000+rng.Intn(195000)), xsdInteger), false)
		add(pSequence, rdfterm.NewLiteral(seqLit(rng, seqLen)), false)
		// Per-protein statement counts follow the protein's index, so the
		// size of a subject lookup does not depend on the seed.
		nCitations, nSee := 1+i%3, 1+(i/3)%3
		if i == 0 {
			nCitations, nSee = 8, 10 // the 24-row probe subject (Table 1)
		}
		for _, k := range distinct(rng, nCitations, nCit) {
			add(pCitation, uri(fmt.Sprintf("urn:lsid:uniprot.org:citations:%d", 500000+k)), false)
		}
		if i == 0 {
			add(pSeeAlso, uri(probeSeeAls), true)
			add(pSeeAlso, uri(probeNotRei), false)
			nSee -= 2
		}
		for _, k := range distinct(rng, nSee, nPfam) {
			add(pSeeAlso, uri(c.Pfams[k]), rng.Float64() < sz.ReifyShare)
		}
		c.nt = append(c.nt, lines)
	}

	// Interaction network over the first NetNodes proteins, as
	// communities of 8 to 256 nodes (sizes cycle in a fixed order, so
	// every seed has the same community structure). Inside a community
	// both endpoints of an edge are drawn Zipf-skewed through two
	// permutations, so out- and in-hubs differ and degrees follow a power
	// law; a traversal's breadth ranges from nothing to a whole community.
	n := sz.NetNodes
	if n > sz.Proteins {
		n = sz.Proteins
	}
	c.Nodes = n
	c.NodeIndex = map[string]int{}
	for i := 0; i < n; i++ {
		c.NodeIndex[c.Proteins[i]] = i
	}
	c.Adj = make([]map[int]int, n)
	for i := range c.Adj {
		c.Adj[i] = map[int]int{}
	}
	perNode := float64(sz.NetEdges) / float64(n)
	for lo, k := 0, 0; lo < n; k++ {
		size := 8 << (k % 6)
		if lo+size > n {
			size = n - lo
		}
		if size >= 2 {
			// The community's shape comes from a generator of its own,
			// the same for every seed; the seed only relabels its nodes.
			// So every seed has the same traversal costs.
			shape := rand.New(rand.NewSource(int64(k)))
			outPerm, inPerm := shape.Perm(size), shape.Perm(size)
			zOut := rand.NewZipf(shape, 1.1, 2, uint64(size-1))
			zIn := rand.NewZipf(shape, 1.1, 2, uint64(size-1))
			label := rng.Perm(size)
			edges := int(perNode * float64(size))
			for tries := 0; edges > 0 && tries < 50*size; tries++ {
				a, b := lo+label[outPerm[zOut.Uint64()]], lo+label[inPerm[zIn.Uint64()]]
				if a == b || c.Adj[a][b] >= 3 {
					continue
				}
				c.Adj[a][b]++
				c.EdgeSeq = append(c.EdgeSeq, [2]int{a, b})
				edges--
			}
		}
		lo += size
	}
	return c
}

// distinct draws k distinct values in [0, n).
func distinct(rng *rand.Rand, k, n int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < k && len(out) < n {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// uniLines returns the N-Triples input of proteins [from, to).
func (c *corpus) uniLines(from, to int) []string {
	var out []string
	for _, l := range c.nt[from:to] {
		out = append(out, l...)
	}
	return out
}

// netLines returns the network's N-Triples input, repeats included.
func (c *corpus) netLines() []string {
	out := make([]string, len(c.EdgeSeq))
	p := uri(pInteracts)
	for i, e := range c.EdgeSeq {
		out[i] = ntLine(uri(c.Proteins[e[0]]), p, uri(c.Proteins[e[1]]))
	}
	return out
}

// nEvidence counts evidence assertions (stored as one row each).
func (c *corpus) nEvidence() int {
	n := 0
	for _, v := range c.Evidence {
		n += len(v)
	}
	return n
}

// uniRows is the number of rdf_link$ rows the folded UniProt model
// must hold: one per base statement, one <DBUri, rdf:type,
// rdf:Statement> row per reified statement (not four, §7.3), and one
// per evidence assertion.
func (c *corpus) uniRows() int { return len(c.Stmts) + len(c.Reified) + c.nEvidence() }

// naiveRows is the row count of the same input stored verbatim.
func (c *corpus) naiveRows() int { return len(c.Stmts) + 4*len(c.Reified) + c.nEvidence() }

// netRows is the number of distinct network links.
func (c *corpus) netRows() int {
	n := 0
	for _, m := range c.Adj {
		n += len(m)
	}
	return n
}

func joinLines(lines []string) []byte {
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
