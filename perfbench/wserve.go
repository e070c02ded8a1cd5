package main

// Workload serve: the read store behind server.New over a
// supervise.Supervisor with a segmented WAL, driven over loopback HTTP.
// An open-loop phase at a fixed rate gives the latencies; a closed-loop
// phase gives throughput. Afterwards the server shuts down and the store
// restarts from snapshot plus WAL.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdfterm"
	"repro/internal/server"
	"repro/internal/supervise"
	"repro/internal/wal"
)

const (
	// serveCheckpointBytes is the supervisor's WAL-byte checkpoint
	// trigger. A run writes a few MiB of WAL, so the trigger does not
	// fire inside a measured phase: a checkpoint stall inside a 5 s phase
	// decided the p99s (and moved the p50s) by whether it fell in it. The
	// phases start from explicit checkpoints instead.
	serveCheckpointBytes = 64 << 20
	serveSegmentBytes    = 8 << 20
	// serveRate is the open-loop rate in requests per second, about a
	// fifth of the closed-loop capacity of the serve mix on the 2-core
	// reference machine (≈1 900/s). At about half, requests queued behind
	// the heavy ones on the two connections and the open-loop figures
	// spread by 0.3 to 0.7 between seeds.
	serveRate = 400
	// closedShare is the part of the run the closed-loop phase takes.
	// The serve latencies come from it: over two connections, open-loop
	// latencies queue behind the heavy requests, and that queueing turned
	// machine noise into spreads of 0.3 to 0.7 between seeds.
	closedShare = 0.7
	// serveMaxLag is the send lag past which the open-loop generator is
	// judged to have fallen behind for good.
	serveMaxLag = 100 * time.Millisecond
)

// served is one serve set-up: supervisor, server and client.
type served struct {
	sv        *supervise.Supervisor
	srv       *server.Server
	base      string
	client    *http.Client
	tap       *walTap
	snap      string
	walDir    string
	snapBytes int64
	triples   int
	loadDur   time.Duration
	planDur   time.Duration
	heap      float64
	done      chan error
	mutateNS  atomic.Int64
	mutates   atomic.Int64
	reg       *obs.Registry
	rec       *recorder // the traced server's spans
}

// timedBackend is the traced run's server.Backend wrapper: it times each
// gated mutation through the supervisor.
type timedBackend struct {
	*supervise.Supervisor
	s *served
}

func (b timedBackend) Mutate(fn func(*core.Store) error) error {
	var err error
	d := b.s.rec.time(0, "supervise.mutate", func(int64) { err = b.Supervisor.Mutate(fn) })
	b.s.mutateNS.Add(int64(d))
	b.s.mutates.Add(1)
	return err
}

// startServer serves the supervisor on a fresh loopback listener. The
// traced server has a metrics registry and times mutations.
func (s *served) startServer(traced bool) error {
	scfg := server.Config{Backend: s.sv}
	if traced {
		s.reg = obs.NewRegistry()
		// Attach inside a gated mutation: no request is in flight and the
		// checkpoint loop is held off, so nothing else reads the store's
		// metrics field while it changes.
		if err := s.sv.Mutate(func(st *core.Store) error {
			// SetMetrics takes the store's write lock after the
			// recorder is set, and every WAL write happens under that
			// lock, so the writes see it.
			s.tap.rec = s.rec
			st.SetMetrics(core.NewMetrics(s.reg))
			return nil
		}); err != nil {
			return err
		}
		scfg.Backend = timedBackend{s.sv, s}
		scfg.Registry = s.reg
	}
	var err error
	if s.srv, err = server.New(scfg); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
	}}
	return nil
}

// stopServer shuts the server down and waits for it.
func (s *served) stopServer() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if e := <-s.done; e != nil && e != http.ErrServerClosed && err == nil {
		err = e
	}
	s.client.CloseIdleConnections()
	return err
}

func setupServe(cfg config, in *inputs) (*served, error) {
	s := &served{tap: &walTap{}, snap: cfg.dir + "/serve.snap"}
	var err error
	if s.walDir, err = freshDir(cfg.dir, "serve.wal"); err != nil {
		return nil, err
	}
	base := settle()
	st, loadDur, err := buildStore(in.c, nil)
	if err != nil {
		return nil, err
	}
	s.loadDur = loadDur
	if err := st.SaveFile(s.snap); err != nil {
		return nil, err
	}
	s.snapBytes = fileSize(s.snap)
	s.triples = st.TotalTriples()
	st = nil
	s.sv, err = supervise.Open(supervise.Config{
		SnapshotPath: s.snap,
		WALDir:       s.walDir,
		Segment:      wal.DirOptions{SegmentBytes: serveSegmentBytes, Wrap: s.tap.wrap},
		Checkpoint:   supervise.CheckpointPolicy{WALBytes: serveCheckpointBytes, Poll: 50 * time.Millisecond},
		Seed:         cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, m := range []string{modelUni, modelPPI} {
		if _, err := s.sv.Store().PlanStatistics(context.Background(), m); err != nil {
			return nil, err
		}
	}
	s.planDur = time.Since(t0)
	if err := s.startServer(false); err != nil {
		return nil, err
	}
	s.heap = float64(settle()) - float64(base)
	return s, nil
}

// stop shuts the server down and closes the supervisor without a
// checkpoint.
func (s *served) stop() error {
	err := s.stopServer()
	if e := s.sv.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// tenantNames are the X-Tenant values of serve's requests. The server
// runs without a tenant cap (its default), so tenants share admission
// and no request is refused for its tenant.
var tenantNames = [tenants]string{"tenant-a", "tenant-b", "tenant-c"}

// render is how the server writes a term: N-Triples-like, with literals
// over 64 characters abbreviated to 61 characters and "...".
func render(t rdfterm.Term) string {
	if t.Kind == rdfterm.URI {
		return "<" + t.Value + ">"
	}
	v := t.Value
	if len(v) > 64 {
		v = v[:61] + "..."
	}
	s := `"` + v + `"`
	if t.Datatype != "" {
		s += "^^<" + t.Datatype + ">"
	}
	return s
}

// httpExec sends one op to the server and checks the response.
type httpExec struct {
	in  *inputs
	s   *served
	mu  chan struct{}
	ack []string
}

func (h *httpExec) do(o op) (time.Duration, error) {
	req, err := h.request(o)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := h.s.client.Do(req)
	if err != nil {
		return time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("%s: HTTP %d: %s", kindNames[o.kind], resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return d, h.check(o, body)
}

// request builds the HTTP request of an op, sent as the op's tenant.
func (h *httpExec) request(o op) (*http.Request, error) {
	req, err := h.build(o)
	if err == nil {
		req.Header.Set("X-Tenant", tenantNames[o.tenant])
	}
	return req, err
}

func (h *httpExec) build(o op) (*http.Request, error) {
	c := h.in.c
	post := func(path string, v interface{}) (*http.Request, error) {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		r, err := http.NewRequest(http.MethodPost, h.s.base+path, bytes.NewReader(b))
		if err == nil {
			r.Header.Set("Content-Type", "application/json")
		}
		return r, err
	}
	switch o.kind {
	case opFind:
		q := url.Values{"model": {modelUni}, "s": {"<" + c.Proteins[o.prot] + ">"}}
		return http.NewRequest(http.MethodGet, h.s.base+"/find?"+q.Encode(), nil)
	case opReified:
		// IS_REIFIED by DBUri: the reification row of the statement.
		q := url.Values{"model": {modelUni}, "s": {"<" + h.in.dburis[o.stmt] + ">"}, "p": {"<" + rdfType + ">"}}
		return http.NewRequest(http.MethodGet, h.s.base+"/find?"+q.Encode(), nil)
	case opQuery:
		body := map[string]interface{}{"query": o.q.text(), "models": o.q.Models, "filter": o.q.Filter,
			"distinct": o.q.Distinct, "limit": o.q.Limit}
		if o.q.OrderBy != "" {
			body["order_by"] = []string{o.q.OrderBy}
		}
		return post("/query", body)
	case opTraverse:
		t := o.t
		body := map[string]interface{}{"op": t.Op, "models": []string{modelPPI}, "source": "<" + c.Proteins[t.Src] + ">"}
		switch t.Op {
		case "shortest_path":
			body["target"] = "<" + c.Proteins[t.Dst] + ">"
		case "within_cost":
			body["max_cost"] = t.MaxCost
		case "nearest":
			body["k"] = t.K
		case "reachable":
			body["max_depth"] = t.Depth
		}
		return post("/traverse", body)
	case opInsert:
		var trs []map[string]string
		for _, t := range insertTriples(o.insID) {
			trs = append(trs, map[string]string{"s": ntTerm(t[0]), "p": ntTerm(t[1]), "o": ntTerm(t[2])})
		}
		return post("/insert", map[string]interface{}{"model": modelIns, "triples": trs})
	}
	return nil, fmt.Errorf("%s has no HTTP endpoint", kindNames[o.kind])
}

type wireTriple struct{ S, P, O string }

// check compares a 200 response with the reference.
func (h *httpExec) check(o op, body []byte) error {
	c := h.in.c
	switch o.kind {
	case opFind, opReified:
		var r struct {
			Triples []wireTriple `json:"triples"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		var want []wireTriple
		if o.kind == opFind {
			want = h.in.findWire[o.prot]
		} else if o.want {
			want = []wireTriple{h.in.reiWire[o.stmt]}
		}
		if len(r.Triples) != len(want) {
			return bad(fmt.Errorf("%s %d: %d triples, reference %d", kindNames[o.kind], o.prot, len(r.Triples), len(want)))
		}
		if t, ok := sameSet(r.Triples, want); !ok {
			return bad(fmt.Errorf("%s: unexpected triple %v", kindNames[o.kind], t))
		}
	case opQuery:
		var r struct {
			Vars []string   `json:"vars"`
			Rows [][]string `json:"rows"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		cols := make([]int, len(o.q.Vars))
		for i, name := range o.q.Vars {
			if cols[i] = indexOf(r.Vars, name); cols[i] < 0 {
				return bad(fmt.Errorf("query %s: no column %s", o.q.text(), name))
			}
		}
		got := make([]string, len(r.Rows))
		if o.q.Resolve {
			for i, row := range r.Rows {
				got[i] = strings.TrimSuffix(strings.TrimPrefix(row[cols[0]], "<"), ">")
			}
			return bad(checkDBUris(o.q, got))
		}
		picked := make([]string, len(cols))
		for i, row := range r.Rows {
			for j, col := range cols {
				picked[j] = row[col]
			}
			got[i] = strings.Join(picked, "\x00")
		}
		return bad(compareRows(o.q, got, o.q.wantWire))
	case opTraverse:
		var r struct {
			Found bool     `json:"found"`
			Cost  float64  `json:"cost"`
			Path  []string `json:"path"`
			Nodes []struct {
				Node string  `json:"node"`
				Cost float64 `json:"cost"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		tr := travResult{found: r.Found, cost: r.Cost}
		for _, p := range r.Path {
			tr.path = append(tr.path, strings.Trim(p, "<>"))
		}
		for _, n := range r.Nodes {
			tr.nodes = append(tr.nodes, nodeCost{strings.Trim(n.Node, "<>"), n.Cost})
		}
		return bad(checkTraversal(c, o.t, tr))
	case opInsert:
		var r struct {
			Inserted int `json:"inserted"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Inserted != insertBatch {
			return bad(fmt.Errorf("insert %s: %d of %d triples acknowledged", o.insID, r.Inserted, insertBatch))
		}
		h.mu <- struct{}{}
		h.ack = append(h.ack, o.insID)
		<-h.mu
	}
	return nil
}

// backlogGrew reports whether the open-loop generator fell behind for
// good: the median send lag of the last fifth of the requests is past
// serveMaxLag.
func backlogGrew(lags []int64) (bool, float64) {
	tail := append([]int64(nil), lags[len(lags)*4/5:]...)
	if len(tail) == 0 {
		return false, 0
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	med := time.Duration(tail[len(tail)/2])
	return med > serveMaxLag, float64(med) / 1e3
}

func meanUS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return sum / float64(len(ns)) / 1e3
}

func runServe(cfg config, w io.Writer) (result, error) {
	in := newInputs(cfg, generate(cfg.seed, readSizes(cfg.quick)))
	var s *served
	var setups, loads []float64
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return result{}, err
			}
			s = nil
		}
		settle()
		t0 := time.Now()
		var err error
		if s, err = setupServe(cfg, in); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, float64(s.triples)/s.loadDur.Seconds())
	}
	fmt.Fprintf(w, "setup: %v s\n", setups)
	var chk checker
	dburis, err := dburisOf(s.sv.Store(), in.c)
	chk.fail(err)
	in.setDBUris(dburis)
	h := &httpExec{in: in, s: s, mu: make(chan struct{}, 1)}
	gens := []*opGen{newOpGen(in, 0, serveMix), newOpGen(in, 1, serveMix)}
	exec := func(_ int, o op) (time.Duration, error) { return h.do(o) }

	warm := closedLoop(secondsDur(warmTime(cfg)), gens, exec)
	rate := float64(serveRate)
	if cfg.quick {
		rate = 200
	}
	walB0 := s.tap.bytes.Load()
	ack0 := len(h.ack)
	closed, open, err := servePhases(cfg, s, gens, newOpGen(in, 2, serveMix), rate, exec)
	if err != nil {
		return result{}, err
	}
	walBytes := s.tap.bytes.Load() - walB0
	inserted := insertBatch * (len(h.ack) - ack0)
	for _, x := range []*tally{warm, open, closed} {
		chk.fail(x.mismatch)
	}
	if grew, lagUS := backlogGrew(open.lags); grew {
		chk.fail(fmt.Errorf("open loop fell behind: median send lag of the last fifth %.0f us (limit %v)", lagUS, serveMaxLag))
	}
	opsPerS := float64(closed.ops) / closed.elapsed.Seconds()
	open.summary(w, "serve open loop")
	closed.summary(w, "serve closed loop")
	attempted := warm.ops + open.ops + closed.ops
	failed := warm.failed + open.failed + closed.failed

	pl := perLayer()
	if cfg.trace {
		tclosed, topen, err := traceServe(cfg, w, in, s, h, rate, &chk, pl)
		if err != nil {
			return result{}, err
		}
		attempted += tclosed.ops + topen.ops
		failed += tclosed.failed + topen.failed
		tracedOps := float64(tclosed.ops) / tclosed.elapsed.Seconds()
		pl["trace.overhead_pct"] = 100 * (opsPerS - tracedOps) / tracedOps
	}

	if err := s.stop(); err != nil {
		return result{}, err
	}
	st, recDur, err := recoverStore(s.snap, s.walDir, recoverReps)
	if err != nil {
		return result{}, err
	}
	chk.fail(checkStore(st, in.c))
	chk.fail(checkAcked(st, h.ack))

	res := result{Correct: chk.err == nil, Attempted: attempted, Failed: failed}
	if chk.err != nil {
		fmt.Fprintln(w, "check failed:", chk.err)
	}
	if cfg.trace {
		res.Metrics = layerMetrics(pl)
		return res, nil
	}
	perTriple := 0.0
	if inserted > 0 {
		perTriple = float64(walBytes) / float64(inserted)
	}
	res.Metrics = endToEnd(median(setups), map[string]float64{
		"load_triples_per_s":        median(loads),
		"recover_triples_per_s":     float64(st.TotalTriples()) / recDur.Seconds(),
		"wal_bytes_per_triple":      perTriple,
		"snapshot_bytes_per_triple": float64(s.snapBytes) / float64(s.triples),
		"heap_bytes_per_triple":     s.heap / float64(s.triples),
	}, &closed.lat, opsPerS)
	return res, nil
}

// servePhases runs the closed-loop phase for closedShare of the run, then
// the open-loop phase for the rest. Each phase starts from a fresh checkpoint, taken
// through the supervisor, so every run measures both phases from the
// same WAL state.
func servePhases(cfg config, s *served, gens []*opGen, og *opGen, rate float64,
	exec func(int, op) (time.Duration, error)) (closed, open *tally, err error) {
	if err := s.sv.Checkpoint(); err != nil {
		return nil, nil, err
	}
	settle()
	closed = closedLoop(secondsDur(cfg.seconds*closedShare), gens, exec)
	if err := s.sv.Checkpoint(); err != nil {
		return nil, nil, err
	}
	settle()
	open = openLoop(secondsDur(cfg.seconds*(1-closedShare)), rate, og, exec)
	return closed, open, nil
}

// checkpointStats reads the store's checkpoint count and total seconds.
func checkpointStats(reg *obs.Registry) (float64, float64) {
	snap := reg.Snapshot()
	var n, secs float64
	if c, ok := snap.Counter("core_checkpoints_total"); ok {
		n = float64(c.Value)
	}
	if hs, ok := snap.Histogram("core_checkpoint_seconds"); ok {
		secs = hs.Sum
	}
	return n, secs
}

// traceServe repeats the open- and closed-loop phases against a traced
// server over the same supervisor, replays read requests through the
// handler and the engine, and fills the serving layers. It returns the
// traced closed- and open-loop phases' tallies.
func traceServe(cfg config, w io.Writer, in *inputs, s *served, h *httpExec, rate float64, chk *checker, pl map[string]float64) (closed, open *tally, err error) {
	if err := s.stopServer(); err != nil {
		return nil, nil, err
	}
	s.rec = newRecorder(spanLimit)
	if err := s.startServer(true); err != nil {
		return nil, nil, err
	}
	rec := s.rec
	gens := []*opGen{newOpGen(in, 3, serveMix), newOpGen(in, 4, serveMix)}
	exec := func(_ int, o op) (time.Duration, error) {
		var d time.Duration
		var err error
		rec.time(0, "http."+kindNames[o.kind], func(int64) { d, err = h.do(o) })
		return d, err
	}
	settle()
	f0, fns0, b0 := s.tap.fsyncs.Load(), s.tap.fsyncNS.Load(), s.tap.bytes.Load()
	closed, open, err = servePhases(cfg, s, gens, newOpGen(in, 5, serveMix), rate, exec)
	if err != nil {
		return nil, nil, err
	}
	chk.fail(open.mismatch)
	chk.fail(closed.mismatch)

	// Split the serving layers on a replay of read requests: over
	// loopback HTTP, through the handler with an in-memory recorder, and
	// as the direct engine call.
	loc, err := newLocal(in, s.sv.Store())
	if err != nil {
		return nil, nil, err
	}
	g := newOpGen(in, 6, serveMix)
	var httpNS, handlerNS, directNS, sizes []int64
	for len(httpNS) < probeRequests(cfg) {
		o := g.next()
		if o.kind == opInsert {
			continue
		}
		d, err := h.do(o)
		if err != nil {
			chk.fail(err)
			continue
		}
		httpNS = append(httpNS, int64(d))
		req, err := h.request(o)
		if err != nil {
			return nil, nil, err
		}
		rr := httptest.NewRecorder()
		d = rec.time(0, "server.handler", func(int64) { s.srv.Handler().ServeHTTP(rr, req) })
		handlerNS = append(handlerNS, int64(d))
		sizes = append(sizes, int64(rr.Body.Len()))
		if o.kind == opReified {
			o.kind = opDBUri // the in-process equivalent of the DBUri probe
		}
		loc.rec = rec
		d, err = loc.do(context.Background(), o)
		loc.rec = nil
		chk.fail(err)
		directNS = append(directNS, int64(d))
	}
	// Detach the recorder the same way it was attached.
	if err := s.sv.Mutate(func(st *core.Store) error {
		s.tap.rec = nil
		st.SetMetrics(core.NewMetrics(s.reg))
		return nil
	}); err != nil {
		return nil, nil, err
	}
	pl["server.handler_us"] = meanUS(handlerNS)
	pl["http.transport_us"] = meanUS(httpNS) - meanUS(handlerNS)
	pl["server.overhead_us"] = meanUS(handlerNS) - meanUS(directNS)
	pl["server.response_bytes"] = meanUS(sizes) * 1e3
	snap := s.reg.Snapshot()
	if hs, ok := snap.Histogram("server_admission_wait_seconds"); ok {
		pl["server.admission_wait_us"] = hs.Mean() * 1e6
	}
	if hs, ok := snap.Histogram("core_read_lock_wait_seconds"); ok {
		pl["core.read_lock_wait_us"] = hs.Mean() * 1e6
	}
	if hs, ok := snap.Histogram("core_write_lock_wait_seconds"); ok {
		pl["core.write_lock_wait_us"] = hs.Mean() * 1e6
	}
	if n := s.mutates.Load(); n > 0 {
		pl["supervise.mutate_us"] = float64(s.mutateNS.Load()) / float64(n) / 1e3
	}
	pl["supervise.checkpoints"], pl["core.checkpoint_s"] = checkpointStats(s.reg)
	if f := s.tap.fsyncs.Load() - f0; f > 0 {
		pl["wal.fsyncs"] = float64(f)
		pl["wal.fsync_us"] = float64(s.tap.fsyncNS.Load()-fns0) / float64(f) / 1e3
	}
	pl["wal.bytes"] = float64(s.tap.bytes.Load() - b0)
	pl["client.send_lag_us"] = meanUS(open.lags)
	pl["core.plan_stats_s"] = s.planDur.Seconds()
	rec.printTable(w)
	if err := writeSpans(cfg, rec); err != nil {
		return nil, nil, err
	}
	return closed, open, nil
}

func probeRequests(cfg config) int {
	if cfg.quick {
		return 100
	}
	return 2000
}
