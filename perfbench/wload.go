package main

// Workload load: durable bulk load with quad folding, a checkpoint
// between the two halves, a simulated crash, recovery, and a verification
// pass over the recovered store.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/reify"
	"repro/internal/wal"
)

const (
	loadSyncEvery    = 64
	loadSegmentBytes = 8 << 20
	loadChunkLines   = 512
	setupReps        = 3
)

func loadSizes(quick bool) sizes {
	if quick {
		return sizes{Proteins: 300, NetNodes: 200, NetEdges: 800, LongEvery: 100, ReifyShare: 0.27}
	}
	return sizes{Proteins: 16000, NetNodes: 2500, NetEdges: 10000, LongEvery: 500, ReifyShare: 0.27}
}

// loadInput is the generated input of one load round.
type loadInput struct {
	c *corpus
	// halves of the UniProt input, each split into chunks of whole
	// proteins (quads never straddle a chunk), and the network input.
	halves [2][][]byte
	net    []byte
	lines  int
}

func prepareLoad(seed int64, sz sizes) *loadInput {
	c := generate(seed, sz)
	in := &loadInput{c: c}
	mid := len(c.Proteins) / 2
	for h, rng := range [2][2]int{{0, mid}, {mid, len(c.Proteins)}} {
		var chunk []string
		for p := rng[0]; p < rng[1]; p++ {
			chunk = append(chunk, c.nt[p]...)
			if len(chunk) >= loadChunkLines || p == rng[1]-1 {
				in.halves[h] = append(in.halves[h], joinLines(chunk))
				in.lines += len(chunk)
				chunk = nil
			}
		}
	}
	netLines := c.netLines()
	in.lines += len(netLines)
	in.net = joinLines(netLines)
	return in
}

// loadRound is what one durable load round measured.
type loadRound struct {
	loadDur, recoverDur  time.Duration
	walBytes, snapBytes  int64
	snapTriples, triples int
	heapDelta            float64
	gcCycles, gcPause    float64
	st                   *core.Store
	chunks               int
	tap                  *walTap
	sink                 *timedSink
	reg                  *obs.Registry
}

// durableLoad runs one round: load half 1, checkpoint, load half 2 and
// the network, crash (close without a checkpoint), recover.
func durableLoad(cfg config, in *loadInput, rec *recorder) (*loadRound, error) {
	walDir, err := freshDir(cfg.dir, "load.wal")
	if err != nil {
		return nil, err
	}
	snap := cfg.dir + "/load.snap"
	r := &loadRound{tap: &walTap{rec: rec}}
	opts := wal.DirOptions{SegmentBytes: loadSegmentBytes, Wrap: r.tap.wrap}
	base := settle()
	d, _, err := wal.OpenDir(walDir, 0, opts)
	if err != nil {
		return nil, err
	}
	group := wal.GroupSink(d, wal.GroupOptions{SyncEvery: loadSyncEvery})
	st := core.New()
	var cur atomic.Int64 // the fold span the WAL calls belong to
	var sink core.Durability = group
	if rec != nil {
		r.sink = &timedSink{inner: group, rec: rec, tap: r.tap, parent: &cur}
		sink = r.sink
		r.reg = obs.NewRegistry()
		st.SetMetrics(core.NewMetrics(r.reg))
	}
	st.SetDurability(sink)
	for _, m := range []string{modelUni, modelPPI} {
		if _, err := st.CreateRDFModel(m, "", ""); err != nil {
			return nil, err
		}
	}
	flush := func() error {
		var err error
		rec.time(0, "wal.flush", func(id int64) {
			r.tap.parent.Store(id)
			err = group.Flush()
			r.tap.parent.Store(0)
		})
		return err
	}
	loadChunks := func(model string, chunks [][]byte) error {
		ld := &reify.Loader{Store: st, Model: model, BatchSize: 256}
		for _, text := range chunks {
			var triples []ntriples.Triple
			var err error
			rec.time(0, "load.parse", func(int64) {
				triples, err = load.Parse(bytes.NewReader(text), load.Options{Workers: clients})
			})
			if err != nil {
				return err
			}
			rec.time(0, "reify.fold_insert", func(id int64) {
				cur.Store(id)
				_, err = ld.LoadTriples(triples)
				cur.Store(0)
			})
			if err != nil {
				return err
			}
			r.chunks++
		}
		return nil
	}

	gc0 := readGC()
	t0 := time.Now()
	if err := loadChunks(modelUni, in.halves[0]); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	r.loadDur = time.Since(t0)
	rec.time(0, "core.checkpoint", func(id int64) {
		r.tap.parent.Store(id)
		err = core.CheckpointDir(st, snap, d)
		r.tap.parent.Store(0)
	})
	if err != nil {
		return nil, err
	}
	r.snapBytes = fileSize(snap)
	r.snapTriples = st.TotalTriples()
	t1 := time.Now()
	if err := loadChunks(modelUni, in.halves[1]); err != nil {
		return nil, err
	}
	netChunks := splitLines(in.net, loadChunkLines)
	if err := loadChunks(modelPPI, netChunks); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	r.loadDur += time.Since(t1)
	r.gcCycles, r.gcPause = readGC().since(gc0)
	r.walBytes = r.tap.bytes.Load()
	// Crash: every commit is acknowledged and flushed; the store goes
	// away without a checkpoint, so recovery replays the second half.
	if err := group.Close(); err != nil {
		return nil, err
	}
	st = nil
	settle()

	t2 := time.Now()
	if rec == nil {
		var d2 *wal.Dir
		r.st, d2, _, err = core.RecoverDir(snap, walDir, wal.DirOptions{SegmentBytes: loadSegmentBytes})
		if err != nil {
			return nil, err
		}
		r.recoverDur = time.Since(t2)
		d2.Close()
	} else {
		// The traced run recovers step by step to time each layer.
		var seq int64
		rec.time(0, "core.snapshot_decode", func(int64) { r.st, seq, err = core.LoadFileAt(snap) })
		if err != nil {
			return nil, err
		}
		var d2 *wal.Dir
		var res wal.DirScanResult
		rec.time(0, "wal.scan", func(int64) { d2, res, err = wal.OpenDir(walDir, seq, wal.DirOptions{SegmentBytes: loadSegmentBytes}) })
		if err != nil {
			return nil, err
		}
		rec.time(0, "core.replay", func(int64) { err = r.st.Replay(res.Records) })
		if err != nil {
			return nil, err
		}
		r.recoverDur = time.Since(t2)
		d2.Close()
	}
	r.triples = r.st.TotalTriples()
	r.heapDelta = float64(settle()) - float64(base)
	return r, nil
}

// splitLines cuts N-Triples text into chunks of about n lines.
func splitLines(text []byte, n int) [][]byte {
	var out [][]byte
	for len(text) > 0 {
		cut, lines := 0, 0
		for cut < len(text) && lines < n {
			i := bytes.IndexByte(text[cut:], '\n')
			if i < 0 {
				cut = len(text)
				break
			}
			cut += i + 1
			lines++
		}
		out = append(out, text[:cut])
		text = text[cut:]
	}
	return out
}

// verifyOps lists the post-recovery checks as ops: every protein looked
// up, every reified statement probed (and as many non-reified ones),
// every reified statement resolved through its DBUri, and every query
// and traversal of the pools.
func verifyOps(in *inputs) []op {
	c := in.c
	var ops []op
	for p := range c.Proteins {
		ops = append(ops, op{kind: opFind, prot: p})
	}
	for i, s := range c.Reified {
		ops = append(ops, op{kind: opReified, stmt: s, want: true}, op{kind: opDBUri, stmt: s})
		if i < len(c.NotRei) {
			ops = append(ops, op{kind: opReified, stmt: c.NotRei[i]})
		}
	}
	for _, q := range in.qpool {
		ops = append(ops, op{kind: opQuery, q: q})
	}
	for _, t := range in.tpool {
		ops = append(ops, op{kind: opTraverse, t: t})
	}
	return ops
}

func runLoad(cfg config, w io.Writer) (result, error) {
	sz := loadSizes(cfg.quick)
	// Set-up: generate the input and open an empty durable store, three
	// times; the median is setup_s.
	var in *loadInput
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		in = nil
		settle()
		t0 := time.Now()
		in = prepareLoad(cfg.seed, sz)
		walDir, err := freshDir(cfg.dir, "setup.wal")
		if err != nil {
			return result{}, err
		}
		d, _, err := wal.OpenDir(walDir, 0, wal.DirOptions{SegmentBytes: loadSegmentBytes})
		if err != nil {
			return result{}, err
		}
		st := core.New()
		st.SetDurability(d)
		for _, m := range []string{modelUni, modelPPI} {
			if _, err := st.CreateRDFModel(m, "", ""); err != nil {
				return result{}, err
			}
		}
		d.Close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	refIn := newInputs(cfg, in.c)

	// Whole rounds until their load phases add up to --seconds.
	var rounds []*loadRound
	fmt.Fprintf(w, "setup: %v s\n", setups)
	var chk checker
	var attempted int64
	measured := 0.0
	for len(rounds) == 0 || measured < cfg.seconds {
		r, err := durableLoad(cfg, in, nil)
		if err != nil {
			return result{}, err
		}
		attempted += int64(r.chunks) + 1 // chunks plus the recovery
		chk.fail(checkStore(r.st, in.c))
		measured += r.loadDur.Seconds()
		fmt.Fprintf(w, "load round: %d lines in %.3f s, recovery %.3f s\n", in.lines, r.loadDur.Seconds(), r.recoverDur.Seconds())
		rounds = append(rounds, r)
		if len(rounds) > 1 {
			rounds[len(rounds)-2].st = nil
		}
	}
	last := rounds[len(rounds)-1]

	// Verification passes over the recovered store.
	dburis, err := dburisOf(last.st, in.c)
	chk.fail(err)
	refIn.setDBUris(dburis)
	loc, err := newLocal(refIn, last.st)
	if err != nil {
		return result{}, err
	}
	var ops []op
	for p := 0; p < verifyPasses(cfg.quick); p++ {
		ops = append(ops, verifyOps(refIn)...)
	}
	// One client, as in read: with two, the heaviest queries' latency
	// depended on what the other client ran beside them.
	settle()
	ver := runOps(ops, func(o op) (time.Duration, error) { return loc.do(context.Background(), o) })
	chk.fail(ver.mismatch)
	attempted += ver.ops
	ver.summary(w, "load verification")

	var loadS, recS, triples, walB, snapB, snapT, heap float64
	for _, r := range rounds {
		loadS += r.loadDur.Seconds()
		recS += r.recoverDur.Seconds()
		triples += float64(in.lines)
		walB += float64(r.walBytes)
		snapB += float64(r.snapBytes)
		snapT += float64(r.snapTriples)
		heap += r.heapDelta / float64(r.triples)
	}
	stored := float64(last.triples)
	res := result{Correct: chk.err == nil, Attempted: attempted, Failed: ver.failed}
	if chk.err != nil {
		fmt.Fprintln(w, "check failed:", chk.err)
	}
	if !cfg.trace {
		res.Metrics = endToEnd(median(setups), map[string]float64{
			"load_triples_per_s":        triples / loadS,
			"recover_triples_per_s":     stored * float64(len(rounds)) / recS,
			"wal_bytes_per_triple":      walB / triples,
			"snapshot_bytes_per_triple": snapB / snapT,
			"heap_bytes_per_triple":     heap / float64(len(rounds)),
		}, &ver.lat, ver.callOpsPerS())
		return res, nil
	}

	// Traced round: the same load with the layer timers attached.
	rec := newRecorder(spanLimit)
	tr, err := durableLoad(cfg, in, rec)
	if err != nil {
		return result{}, err
	}
	chk.fail(checkStore(tr.st, in.c))
	res.Correct = chk.err == nil
	pl := perLayer()
	pl["load.parse_s"] = rec.selfSeconds("load.parse")
	pl["reify.fold_insert_s"] = rec.selfSeconds("reify.fold_insert")
	snap := tr.reg.Snapshot()
	hits, _ := snap.Counter("core_term_cache_hits_total")
	misses, _ := snap.Counter("core_term_cache_misses_total")
	if hits.Value+misses.Value > 0 {
		pl["core.term_cache_hit_ratio"] = float64(hits.Value) / float64(hits.Value+misses.Value)
	}
	pl["wal.append_s"] = rec.totalSeconds("wal.append")
	pl["wal.commit_s"] = rec.totalSeconds("wal.commit")
	pl["wal.commits"] = float64(tr.sink.commits.Load())
	pl["wal.fsyncs"] = float64(tr.tap.fsyncs.Load())
	pl["wal.fsync_s"] = rec.totalSeconds("wal.fsync")
	pl["wal.fsync_us"] = rec.meanUS("wal.fsync")
	pl["wal.write_s"] = rec.totalSeconds("wal.write")
	pl["wal.bytes"] = float64(tr.walBytes)
	pl["core.snapshot_bytes"] = float64(tr.snapBytes)
	pl["core.checkpoint_s"] = rec.totalSeconds("core.checkpoint")
	pl["core.snapshot_decode_s"] = rec.totalSeconds("core.snapshot_decode")
	pl["wal.scan_s"] = rec.totalSeconds("wal.scan")
	pl["core.replay_s"] = rec.totalSeconds("core.replay")
	pl["go.gc_cycles"] = tr.gcCycles
	pl["go.gc_pause_s"] = tr.gcPause
	untraced := loadS / float64(len(rounds))
	pl["trace.overhead_pct"] = 100 * (tr.loadDur.Seconds() - untraced) / untraced
	rec.printTable(w)
	accounted := 0.0
	for _, n := range []string{"load.parse", "reify.fold_insert", "wal.append", "wal.commit", "wal.write", "wal.fsync", "wal.flush"} {
		accounted += rec.selfSeconds(n)
	}
	fmt.Fprintf(w, "load: layer self times account for %.3f s of %.3f s traced load time (remainder %.1f%%)\n",
		accounted, tr.loadDur.Seconds(), 100*(tr.loadDur.Seconds()-accounted)/tr.loadDur.Seconds())
	if err := writeSpans(cfg, rec); err != nil {
		return result{}, err
	}
	res.Metrics = layerMetrics(pl)
	return res, nil
}
