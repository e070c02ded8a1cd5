package main

// Shared plumbing: store building, the WAL decorators the traced run
// times through, heap and GC readings, and the result record.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/reify"
	"repro/internal/wal"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker records the first failed check of a run.
type checker struct {
	err error
}

func (c *checker) fail(err error) {
	if err != nil && c.err == nil {
		c.err = err
	}
}

// median of a non-empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// settle collects garbage twice so a phase starts from a quiet heap, and
// returns the live heap in bytes.
func settle() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// gcReading is a snapshot of the collector's counters.
type gcReading struct {
	cycles uint32
	pause  uint64
}

func readGC() gcReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcReading{ms.NumGC, ms.PauseTotalNs}
}

func (a gcReading) since(b gcReading) (cycles float64, pauseS float64) {
	return float64(a.cycles - b.cycles), float64(a.pause-b.pause) / 1e9
}

// buildStore loads the corpus into a fresh store through load.Parse and
// reify.Loader and returns the load time. With a group-commit WAL the
// load is durable: the time includes the final flush.
func buildStore(c *corpus, group *wal.GroupLog) (*core.Store, time.Duration, error) {
	uni := joinLines(c.uniLines(0, len(c.Proteins)))
	net := joinLines(c.netLines())
	st := core.New()
	if group != nil {
		st.SetDurability(group)
	}
	t0 := time.Now()
	for _, m := range []string{modelUni, modelPPI, modelIns} {
		if _, err := st.CreateRDFModel(m, "", ""); err != nil {
			return nil, 0, err
		}
	}
	for _, in := range []struct {
		model string
		text  []byte
	}{{modelUni, uni}, {modelPPI, net}} {
		triples, err := load.Parse(bytes.NewReader(in.text), load.Options{Workers: clients})
		if err != nil {
			return nil, 0, err
		}
		ld := &reify.Loader{Store: st, Model: in.model, BatchSize: 1024}
		if _, err := ld.LoadTriples(triples); err != nil {
			return nil, 0, err
		}
	}
	if group != nil {
		if err := group.Flush(); err != nil {
			return nil, 0, err
		}
	}
	return st, time.Since(t0), nil
}

// recoverStore restarts a store from snapshot plus WAL directory reps
// times and returns the last store with the median recovery time.
func recoverStore(snap, walDir string, reps int) (*core.Store, time.Duration, error) {
	var st *core.Store
	var times []float64
	for i := 0; i < reps; i++ {
		st = nil
		settle()
		t0 := time.Now()
		s, d, _, err := core.RecoverDir(snap, walDir, wal.DirOptions{})
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if err := d.Close(); err != nil {
			return nil, 0, err
		}
		st = s
	}
	fmt.Fprintf(os.Stdout, "recover: %d triples in %v s\n", st.TotalTriples(), times)
	return st, time.Duration(median(times) * float64(time.Second)), nil
}

// walFile is the wal.DirOptions.Wrap decorator: it counts bytes and
// fsyncs on every segment file, and in the traced run times each write
// and fsync as a span under the current parent.
type walFile struct {
	wal.File
	w *walTap
}

// walTap aggregates what walFile sees.
type walTap struct {
	bytes   atomic.Int64
	fsyncs  atomic.Int64
	fsyncNS atomic.Int64
	rec     *recorder
	// parent is the span the next write or fsync belongs to, set by the
	// single goroutine that drives a load; 0 for concurrent writers.
	parent atomic.Int64
}

func (t *walTap) wrap(f wal.File) wal.File { return &walFile{File: f, w: t} }

func (f *walFile) Write(p []byte) (int, error) {
	var n int
	var err error
	f.w.rec.time(f.w.parent.Load(), "wal.write", func(int64) { n, err = f.File.Write(p) })
	f.w.bytes.Add(int64(n))
	return n, err
}

func (f *walFile) Sync() error {
	var err error
	d := f.w.rec.time(f.w.parent.Load(), "wal.fsync", func(int64) { err = f.File.Sync() })
	f.w.fsyncs.Add(1)
	f.w.fsyncNS.Add(int64(d))
	return err
}

// Truncate and Seek keep the Dir's torn-write rollback available.
func (f *walFile) Truncate(size int64) error {
	if t, ok := f.File.(interface{ Truncate(int64) error }); ok {
		return t.Truncate(size)
	}
	return fmt.Errorf("perfbench: segment file cannot truncate")
}

func (f *walFile) Seek(off int64, whence int) (int64, error) {
	if s, ok := f.File.(io.Seeker); ok {
		return s.Seek(off, whence)
	}
	return 0, fmt.Errorf("perfbench: segment file cannot seek")
}

// timedSink is the traced run's core.Durability decorator: it times
// every Append and Commit the store makes.
type timedSink struct {
	inner   core.Durability
	rec     *recorder
	tap     *walTap
	parent  *atomic.Int64
	commits atomic.Int64
}

func (s *timedSink) Append(r wal.Record) error {
	var err error
	s.rec.time(s.parent.Load(), "wal.append", func(int64) { err = s.inner.Append(r) })
	return err
}

func (s *timedSink) Commit() error {
	var err error
	s.commits.Add(1)
	s.rec.time(s.parent.Load(), "wal.commit", func(id int64) {
		prev := s.tap.parent.Swap(id)
		err = s.inner.Commit()
		s.tap.parent.Store(prev)
	})
	return err
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// freshDir returns an empty scratch directory under the run directory.
func freshDir(base, name string) (string, error) {
	p := base + "/" + name
	if err := os.RemoveAll(p); err != nil {
		return "", err
	}
	return p, os.MkdirAll(p, 0o755)
}
