package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdfterm"
)

// quickRun runs one workload on the tiny inputs.
func quickRun(t *testing.T, workload string, trace bool) result {
	t.Helper()
	dir := t.TempDir()
	cfg := config{workload: workload, seed: 3, seconds: 1, trace: trace, quick: true, root: dir,
		dir: filepath.Join(dir, ".bench_build", "run-"+workload)}
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	res, err := run(cfg, devnull)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func TestQuickWorkloadsPassEveryCheck(t *testing.T) {
	for _, wl := range []string{"load", "read", "serve"} {
		res := quickRun(t, wl, false)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", wl, res.Correct, res.Attempted, res.Failed)
		}
		for name, unit := range endToEndUnits {
			m, ok := res.Metrics[name]
			if !ok || m.Unit != unit || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", wl, name, m, unit)
			}
		}
		if len(res.Metrics) != len(endToEndUnits) {
			t.Errorf("%s: %d metrics, want %d", wl, len(res.Metrics), len(endToEndUnits))
		}
	}
}

func TestQuickTracedRunsReportEveryLayer(t *testing.T) {
	for _, wl := range []string{"load", "read", "serve"} {
		res := quickRun(t, wl, true)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", wl, res.Correct, res.Failed)
		}
		if len(res.Metrics) != len(perLayerUnits) {
			t.Errorf("%s traced: %d metrics, want %d", wl, len(res.Metrics), len(perLayerUnits))
		}
	}
}

// TestCorruptedExpectationFailsTheRun corrupts one expected answer and
// requires the run to report correct=false.
func TestCorruptedExpectationFailsTheRun(t *testing.T) {
	defer func() { corruptReference = nil }()

	// load: the probe subject's reference loses one of its 24 triples,
	// and the post-recovery lookup of every subject must notice.
	corruptReference = func(in *inputs) {
		rows := in.c.BySubject[probeURI]
		in.c.BySubject[probeURI] = rows[:len(rows)-1]
	}
	if res := quickRun(t, "load", false); res.Correct || res.Failed == 0 {
		t.Errorf("load: a corrupted subject-lookup expectation reported correct=%v failed=%d", res.Correct, res.Failed)
	}

	// read and serve: one query of the pool expects a wrong first value.
	corruptReference = func(in *inputs) {
		for _, q := range in.qpool {
			if q.Name == "star" && len(q.Want) > 0 {
				q.Want[0][0] = rdfterm.NewLiteral("not the mnemonic")
				return
			}
		}
		t.Fatal("no star query with rows in the pool")
	}
	for _, wl := range []string{"read", "serve"} {
		if res := quickRun(t, wl, false); res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted query expectation reported correct=%v failed=%d", wl, res.Correct, res.Failed)
		}
	}
}

func TestReferenceTraversals(t *testing.T) {
	c := &corpus{Nodes: 4, Adj: []map[int]int{{1: 1, 2: 3}, {2: 1}, {3: 2}, {}}}
	d := dijkstra(c, 0, -1)
	want := map[int]float64{0: 0, 1: 1, 2: 2, 3: 4}
	for n, w := range want {
		if d[n] != w {
			t.Errorf("dist(%d) = %v, want %v", n, d[n], w)
		}
	}
	if d := dijkstra(c, 0, 2); len(d) != 3 {
		t.Errorf("within cost 2: %v, want 3 nodes", d)
	}
	r := bfs(c, 0, 1)
	if len(r) != 2 || !r[1] || !r[2] {
		t.Errorf("depth-1 reach = %v, want {1, 2}", r)
	}
}

func TestReferenceBGP(t *testing.T) {
	c := generate(5, sizes{Proteins: 40, NetNodes: 20, NetEdges: 60, ReifyShare: 0.3})
	r := newRefDB(c)
	q := &queryInst{Models: []string{modelUni},
		Pats: []pattern{{cu(probeURI), v("p"), v("o")}}, Vars: []string{"p", "o"}}
	r.finish(q)
	if len(q.Want) != probeRows {
		t.Fatalf("probe subject has %d rows in the reference, want %d", len(q.Want), probeRows)
	}
	if c.uniRows() != len(c.Stmts)+len(c.Reified)+c.nEvidence() || c.naiveRows()-c.uniRows() != 3*len(c.Reified) {
		t.Errorf("row accounting: folded %d, naive %d, reified %d", c.uniRows(), c.naiveRows(), len(c.Reified))
	}
}

func TestRenderAbbreviatesLongLiterals(t *testing.T) {
	long := make([]byte, 100)
	for i := range long {
		long[i] = 'A'
	}
	got := render(rdfterm.NewLiteral(string(long)))
	if len(got) != 66 || got[62:65] != "..." {
		t.Errorf("render(100-char literal) = %q", got)
	}
	if got := render(rdfterm.NewTypedLiteral("7", xsdInteger)); got != `"7"^^<`+xsdInteger+`>` {
		t.Errorf("render(typed) = %q", got)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric names and units the
// command prints in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, list := range []struct {
		got  []struct{ Name, Unit string }
		want map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits}} {
		if len(list.got) != len(list.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the command prints %d", len(list.got), len(list.want))
		}
		for _, m := range list.got {
			if list.want[m.Name] != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, command unit %q", m.Name, m.Unit, list.want[m.Name])
			}
		}
	}
	for _, w := range spec.Workloads {
		if w.Name != "load" && w.Name != "read" && w.Name != "serve" {
			t.Errorf("unknown workload %q", w.Name)
		}
	}
}
