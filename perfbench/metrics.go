package main

// The metric catalogue: names and units as BENCHMARK.json lists them.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// endToEndUnits lists every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"setup_s":                   "s",
	"load_triples_per_s":        "triples/s",
	"recover_triples_per_s":     "triples/s",
	"wal_bytes_per_triple":      "B",
	"snapshot_bytes_per_triple": "B",
	"heap_bytes_per_triple":     "B",
	"ops_per_s":                 "ops/s",
	"find_p50_us":               "us",
	"reified_p50_us":            "us",
	"query_p50_us":              "us",
	"query_p99_us":              "us",
	"traverse_p50_us":           "us",
}

// perLayerUnits lists every per-layer metric with its unit.
var perLayerUnits = map[string]string{
	// load
	"load.parse_s":              "s",
	"reify.fold_insert_s":       "s",
	"core.term_cache_hit_ratio": "ratio",
	"wal.append_s":              "s",
	"wal.commit_s":              "s",
	"wal.commits":               "count",
	"wal.fsyncs":                "count",
	"wal.fsync_s":               "s",
	"wal.fsync_us":              "us",
	"wal.write_s":               "s",
	"wal.bytes":                 "B",
	"core.snapshot_bytes":       "B",
	"core.checkpoint_s":         "s",
	"core.snapshot_decode_s":    "s",
	"wal.scan_s":                "s",
	"core.replay_s":             "s",
	"go.gc_cycles":              "count",
	"go.gc_pause_s":             "s",
	// read
	"match.parse_us":              "us",
	"match.exec_us":               "us",
	"match.rows_examined_per_row": "ratio",
	"match.estimate_error":        "ratio",
	"core.links_per_find":         "count",
	"core.reified_us":             "us",
	"core.dburi_resolve_us":       "us",
	"core.member_fn_us":           "us",
	"core.out_links_us":           "us",
	"ndm.out_links_calls":         "count",
	"ndm.links_visited":           "count",
	"ndm.self_us":                 "us",
	"core.plan_stats_s":           "s",
	// serve
	"server.handler_us":        "us",
	"http.transport_us":        "us",
	"server.overhead_us":       "us",
	"server.response_bytes":    "B",
	"server.admission_wait_us": "us",
	"supervise.mutate_us":      "us",
	"supervise.checkpoints":    "count",
	"core.read_lock_wait_us":   "us",
	"core.write_lock_wait_us":  "us",
	"client.send_lag_us":       "us",
	// every workload
	"trace.overhead_pct": "%",
}

// spanLimit bounds the spans a traced run keeps in memory.
const spanLimit = 2_000_000

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eed)) }

// poolSize is the number of query and traversal instances drawn.
func poolSize(quick bool) int {
	if quick {
		return 48
	}
	return 600
}

// verifyPasses is how many times load's verification pass runs. A fixed
// count, not a time: passes repeated for at least 3 s came to one on a
// slow run and two on a fast one, and the p99s of the pass moved with
// that (query p99 spread 0.46 over ten seeds).
func verifyPasses(quick bool) int {
	if quick {
		return 1
	}
	return 2
}

// endToEnd assembles the end-to-end metrics from a workload's
// workload-specific values, its latency samples and throughput.
func endToEnd(setup float64, vals map[string]float64, l *lat, opsPerS float64) map[string]metric {
	vals["setup_s"] = setup
	vals["ops_per_s"] = opsPerS
	vals["find_p50_us"] = l.pctUS(opFind, 0.50)
	vals["reified_p50_us"] = l.pctUS(opReified, 0.50)
	vals["query_p50_us"] = l.pctUS(opQuery, 0.50)
	vals["query_p99_us"] = l.pctUS(opQuery, 0.99)
	vals["traverse_p50_us"] = l.pctUS(opTraverse, 0.50)
	out := map[string]metric{}
	for name, unit := range endToEndUnits {
		out[name] = metric{Value: vals[name], Unit: unit}
	}
	return out
}

// perLayer returns every per-layer metric at zero: a layer a workload
// does not exercise reports 0.
func perLayer() map[string]float64 {
	m := map[string]float64{}
	for name := range perLayerUnits {
		m[name] = 0
	}
	return m
}

func layerMetrics(vals map[string]float64) map[string]metric {
	out := map[string]metric{}
	for name, unit := range perLayerUnits {
		out[name] = metric{Value: vals[name], Unit: unit}
	}
	return out
}

// writeSpans writes the traced run's spans under .bench_build.
func writeSpans(cfg config, rec *recorder) error {
	path := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
