// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads through the program's public Go API, checks every
// answer against a reference computed from the generated inputs, and
// prints one JSON result line:
//
//	go run . -workload load|read|serve -seed N -seconds S -trace 0|1
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// the same workload runs again with per-layer timers and the result holds
// the per-layer metrics. The benchmark's tests run the workloads on tiny
// inputs through config.quick. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	root     string // checkout root
	dir      string // scratch directory of this run
}

// gitHead reads the checked-out commit from root/.git without running
// git; "unknown" outside a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

func main() {
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	workload := flag.String("workload", "", "load, read or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the per-layer traced variant")
	flag.Parse()

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root}
	cfg.dir = filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%s-%d", cfg.workload, os.Getpid()))
	res, err := run(cfg, os.Stdout)
	os.RemoveAll(cfg.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload; the environment record and, when traced,
// the layer table go to w ahead of the result.
func run(cfg config, w *os.File) (result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	envLine, _ := json.Marshal(environment(cfg))
	fmt.Fprintf(w, "env %s\n", envLine)
	switch cfg.workload {
	case "load":
		return runLoad(cfg, w)
	case "read":
		return runRead(cfg, w)
	case "serve":
		return runServe(cfg, w)
	}
	return result{}, fmt.Errorf("unknown workload %q (want load, read or serve)", cfg.workload)
}

// environment records what the numbers depend on.
func environment(cfg config) map[string]interface{} {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				cpu = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	return map[string]interface{}{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"quick":      cfg.quick,
		"commit":     gitHead(cfg.root),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"flush": map[string]string{
			"load":  fmt.Sprintf("segmented WAL, group commit SyncEvery=%d", loadSyncEvery),
			"read":  fmt.Sprintf("set-up load: segmented WAL, group commit SyncEvery=%d; measured phase: no WAL", readSyncEvery),
			"serve": fmt.Sprintf("supervisor segmented WAL, fsync per commit, checkpoint every %d WAL bytes", serveCheckpointBytes),
		}[cfg.workload],
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}
