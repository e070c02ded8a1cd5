package main

// Client loops: closed loop (each client issues its next request when
// the previous one returns) and open loop (requests are due at a fixed
// rate and their latency runs from the intended send time).

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of client goroutines or connections: the
// machine's core count, as the workloads are defined for nproc = 2.
const clients = 2

// mismatch marks an answer that disagrees with the reference (as
// opposed to a call that failed).
type mismatch struct{ error }

func bad(err error) error {
	if err == nil {
		return nil
	}
	return &mismatch{err}
}

// tally accumulates one phase's outcome across clients. An op fails when
// its call returns an error or its answer disagrees with the reference;
// both count in failed, and the first wrong answer is kept in mismatch.
type tally struct {
	mu       sync.Mutex
	lat      lat
	ops      int64
	failed   int64
	mismatch error
	elapsed  time.Duration
	busy     time.Duration // summed latency of the ops that succeeded
	lags     []int64       // open loop: send lag of every request in due order, ns
}

func (t *tally) record(k opKind, d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	if err == nil {
		t.lat.add(k, d)
		t.busy += d
		return
	}
	if t.failed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", kindNames[k], err)
	}
	t.failed++
	var mm *mismatch
	if errors.As(err, &mm) && t.mismatch == nil {
		t.mismatch = mm.error
	}
}

// closedLoop runs one client per generator until dur has passed; each
// client then finishes its current round, so a run attempts whole rounds.
func closedLoop(dur time.Duration, gens []*opGen, exec func(client int, o op) (time.Duration, error)) *tally {
	t := &tally{}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for cl, g := range gens {
		wg.Add(1)
		go func(cl int, g *opGen) {
			defer wg.Done()
			for !g.roundDone() || time.Now().Before(deadline) {
				o := g.next()
				d, err := exec(cl, o)
				t.record(o.kind, d, err)
			}
		}(cl, g)
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}

// runOps executes a fixed list of ops on one client and returns the
// tally.
func runOps(ops []op, exec func(o op) (time.Duration, error)) *tally {
	t := &tally{}
	start := time.Now()
	for _, o := range ops {
		d, err := exec(o)
		t.record(o.kind, d, err)
	}
	t.elapsed = time.Since(start)
	return t
}

// openLoop issues requests due every 1/rate seconds for dur, rounded up
// to whole rounds of g's stream, from the clients in turn as they come
// free. A request a client picks up after its due time waited because
// every client was busy: its latency runs from the due time, so a
// stalled server shows in the latencies instead of slowing the generator
// (no coordinated omission). A request picked up early is sent when a
// sleep until its due time returns; the lateness of that wake-up (Go's
// timers wake an idle goroutine up to about a millisecond late) is the
// client's, not the server's, and is kept out of the latency. The send
// lag of every request, wake-up included, is kept in due order.
func openLoop(dur time.Duration, rate float64, g *opGen, exec func(client int, o op) (time.Duration, error)) *tally {
	n := int64(math.Ceil(dur.Seconds()*rate/roundLen)) * roundLen
	t := &tally{lags: make([]int64, n)}
	interval := time.Duration(float64(time.Second) / rate)
	var mu sync.Mutex
	var seq atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				if i >= n {
					return
				}
				mu.Lock()
				o := g.next()
				mu.Unlock()
				due := start.Add(time.Duration(i) * interval)
				backlog := time.Duration(0)
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				} else {
					backlog = -w
				}
				t.lags[i] = int64(time.Since(due)) // each index is written by one client
				d, err := exec(cl, o)
				t.record(o.kind, d+backlog, err)
			}
		}(cl)
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}

// callOpsPerS is the throughput of the timed calls alone: the ops that
// succeeded over their summed latency. For one closed-loop client it
// leaves out the client's own work between calls (drawing the next op,
// checking the answer).
func (t *tally) callOpsPerS() float64 {
	return float64(t.ops-t.failed) / t.busy.Seconds()
}

// summary writes the phase's per-kind latency figures.
func (t *tally) summary(w io.Writer, phase string) {
	fmt.Fprintf(w, "%s: %d ops in %.2f s (%.0f ops/s; %.2f s inside the timed calls), %d failed\n", phase, t.ops, t.elapsed.Seconds(),
		float64(t.ops)/t.elapsed.Seconds(), t.busy.Seconds(), t.failed)
	for k := opKind(0); k < nKinds; k++ {
		if ns := t.lat.ns[k]; len(ns) > 0 {
			fmt.Fprintf(w, "  %-9s n=%-7d p50=%9.1fus p99=%10.1fus mean=%9.1fus max=%10.1fus\n", kindNames[k], len(ns),
				quantileUS(ns, 0.5), quantileUS(ns, 0.99), meanUS(ns), quantileUS(ns, 1))
		}
	}
}
