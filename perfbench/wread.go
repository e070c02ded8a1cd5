package main

// Workload read: a warmed store holding the UniProt-like model and the
// interaction network, driven in-process by a closed-loop mix of subject
// lookups, IS_REIFIED probes, DBUri resolution, SDO_RDF_MATCH queries,
// NDM traversals; it writes nothing. The set-up loads the store durably
// and checkpoints it; the measured phase runs with no WAL attached;
// afterwards the store restarts from its checkpoint.

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

const (
	readSyncEvery = 64
	warmSeconds   = 1.0
	recoverReps   = 3
)

func readSizes(quick bool) sizes {
	if quick {
		return sizes{Proteins: 300, NetNodes: 200, NetEdges: 800, LongEvery: 100, ReifyShare: 0.27}
	}
	return sizes{Proteins: 6000, NetNodes: 2500, NetEdges: 10000, LongEvery: 500, ReifyShare: 0.27}
}

// newInputs draws the seeded request pools for a corpus and computes
// their reference answers.
func newInputs(cfg config, c *corpus) *inputs {
	in := &inputs{c: c, seed: cfg.seed}
	ref := newRefDB(c)
	rng := newRand(cfg.seed)
	in.qpool = queryPool(c, ref, rng, poolSize(cfg.quick))
	in.tpool = travPool(c, rng, poolSize(cfg.quick))
	if corruptReference != nil {
		corruptReference(in)
	}
	in.prepare()
	return in
}

// readStore is the store of one read set-up.
type readStore struct {
	st        *core.Store
	tap       *walTap
	walDir    string
	snap      string
	loadDur   time.Duration
	planDur   time.Duration
	walBytes  int64
	snapBytes int64
	triples   int
	heap      float64
}

// setupRead loads the store durably through a group-commit WAL, gathers
// planner statistics, checkpoints, and detaches the WAL.
func setupRead(cfg config, in *inputs) (*readStore, error) {
	rs := &readStore{tap: &walTap{}, snap: cfg.dir + "/read.snap"}
	var err error
	if rs.walDir, err = freshDir(cfg.dir, "read.wal"); err != nil {
		return nil, err
	}
	base := settle()
	d, _, err := wal.OpenDir(rs.walDir, 0, wal.DirOptions{Wrap: rs.tap.wrap})
	if err != nil {
		return nil, err
	}
	group := wal.GroupSink(d, wal.GroupOptions{SyncEvery: readSyncEvery})
	if rs.st, rs.loadDur, err = buildStore(in.c, group); err != nil {
		return nil, err
	}
	rs.walBytes = rs.tap.bytes.Load()
	t0 := time.Now()
	for _, m := range []string{modelUni, modelPPI} {
		if _, err := rs.st.PlanStatistics(context.Background(), m); err != nil {
			return nil, err
		}
	}
	rs.planDur = time.Since(t0)
	if err := core.CheckpointDir(rs.st, rs.snap, d); err != nil {
		return nil, err
	}
	rs.st.SetDurability(nil)
	if err := group.Close(); err != nil {
		return nil, err
	}
	rs.snapBytes = fileSize(rs.snap)
	rs.triples = rs.st.TotalTriples()
	rs.heap = float64(settle()) - float64(base)
	return rs, nil
}

func runRead(cfg config, w io.Writer) (result, error) {
	in := newInputs(cfg, generate(cfg.seed, readSizes(cfg.quick)))
	var rs *readStore
	var setups, loads, plans []float64
	for rep := 0; rep < setupReps; rep++ {
		rs = nil
		settle()
		t0 := time.Now()
		var err error
		if rs, err = setupRead(cfg, in); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, float64(rs.triples)/rs.loadDur.Seconds())
		plans = append(plans, rs.planDur.Seconds())
	}
	fmt.Fprintf(w, "setup: %v s\n", setups)
	var chk checker
	chk.fail(checkStore(rs.st, in.c))
	dburis, err := dburisOf(rs.st, in.c)
	chk.fail(err)
	in.setDBUris(dburis)
	loc, err := newLocal(in, rs.st)
	if err != nil {
		return result{}, err
	}
	// One client, so that ops_per_s can be taken over the summed latency
	// of the calls, leaving the client's own work out; contention between
	// requests is serve's part.
	gens := []*opGen{newOpGen(in, 0, readMix)}
	exec := func(_ int, o op) (time.Duration, error) { return loc.do(context.Background(), o) }

	warm := closedLoop(secondsDur(warmTime(cfg)), gens, exec)
	settle()
	t := closedLoop(secondsDur(cfg.seconds), gens, exec)
	for _, x := range []*tally{warm, t} {
		chk.fail(x.mismatch)
	}
	// Throughput of the calls alone: the client's drawing of ops and
	// checking of answers between calls stays out of it.
	opsPerS := t.callOpsPerS()
	t.summary(w, "read closed loop")

	var traced *tally
	var rec *recorder
	var gcCycles float64
	if cfg.trace {
		rec = newRecorder(spanLimit)
		loc.rec = rec
		settle()
		gc0 := readGC()
		traced = closedLoop(secondsDur(cfg.seconds), gens, exec)
		gcCycles, _ = readGC().since(gc0)
		chk.fail(traced.mismatch)
		loc.rec = nil
	}

	rs.st = nil
	st, recDur, err := recoverStore(rs.snap, rs.walDir, recoverReps)
	if err != nil {
		return result{}, err
	}
	chk.fail(checkStore(st, in.c))

	res := result{Correct: chk.err == nil, Attempted: warm.ops + t.ops, Failed: warm.failed + t.failed}
	if chk.err != nil {
		fmt.Fprintln(w, "check failed:", chk.err)
	}
	if !cfg.trace {
		res.Metrics = endToEnd(median(setups), map[string]float64{
			"load_triples_per_s":        median(loads),
			"recover_triples_per_s":     float64(st.TotalTriples()) / recDur.Seconds(),
			"wal_bytes_per_triple":      float64(rs.walBytes) / float64(rs.triples),
			"snapshot_bytes_per_triple": float64(rs.snapBytes) / float64(rs.triples),
			"heap_bytes_per_triple":     rs.heap / float64(rs.triples),
		}, &t.lat, opsPerS)
		return res, nil
	}
	res.Attempted += traced.ops
	res.Failed += traced.failed
	pl := perLayer()
	pl["match.parse_us"] = rec.meanUS("match.parse")
	pl["match.exec_us"] = rec.meanUS("match.exec")
	if n := rec.noteSum("match.rows_returned"); n > 0 {
		pl["match.rows_examined_per_row"] = rec.noteSum("match.rows_examined") / n
	}
	pl["match.estimate_error"] = rec.noteMean("match.estimate_qerror")
	pl["core.links_per_find"] = rec.noteMean("core.find_links")
	pl["core.reified_us"] = rec.meanUS("core.reified")
	pl["core.dburi_resolve_us"] = rec.meanUS("core.dburi_resolve")
	pl["core.member_fn_us"] = rec.meanUS("core.member_fn")
	if n := float64(rec.calls("ndm.traverse")); n > 0 {
		pl["core.out_links_us"] = rec.totalSeconds("core.out_links") * 1e6 / n
		pl["ndm.out_links_calls"] = float64(rec.calls("core.out_links")) / n
		pl["ndm.links_visited"] = rec.noteSum("ndm.links_visited") / n
		pl["ndm.self_us"] = rec.selfSeconds("ndm.traverse") * 1e6 / n
	}
	pl["core.plan_stats_s"] = median(plans)
	pl["go.gc_cycles"] = gcCycles
	pl["wal.bytes"] = float64(rs.walBytes)
	pl["core.snapshot_bytes"] = float64(rs.snapBytes)
	tracedOps := traced.callOpsPerS()
	pl["trace.overhead_pct"] = 100 * (opsPerS - tracedOps) / tracedOps
	rec.printTable(w)
	if err := writeSpans(cfg, rec); err != nil {
		return result{}, err
	}
	res.Metrics = layerMetrics(pl)
	return res, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func warmTime(cfg config) float64 {
	if cfg.quick {
		return 0.2
	}
	return warmSeconds
}
