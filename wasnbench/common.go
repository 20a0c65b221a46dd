package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times an untraced run sets up, so setup_s is a
// median rather than one sample.
const setupReps = 3

// setUp runs build setupReps times (once when traced, where setup_s is
// not reported), keeps the last state, and records setup_s as the
// median wall time. Each earlier state is dropped before the next build.
func setUp[T any](o *outcome, tr *tracer, build func() (T, error)) (T, error) {
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	var (
		st    T
		err   error
		times []float64
	)
	for i := 0; i < reps; i++ {
		if c, ok := any(st).(interface{ Close() }); ok && i > 0 {
			c.Close()
		}
		var zero T
		st = zero
		runtime.GC()
		start := time.Now()
		if st, err = build(); err != nil {
			return st, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	o.set("setup_s", "s", quantileOf(times, 0.5))
	o.samples["setup_s"] = int64(reps)
	return st, nil
}

// churnOps is the number of churn ops a run makes: on churn-zipf one
// after each read block, on paper-sweep and http-route in a quiescent
// tail after the timed phase, so every workload reports churn_apply_*.
// A multiple of nine, so every deployment sees whole fail, revive, move
// cycles. The op times depend on which nodes an op picks, so the
// percentiles differ between seeds; 72 ops keep that difference near a
// tenth.
const churnOps = 72

// opTimes holds the wall time of each churn op of a run, in ms, and
// the steal share during it.
type opTimes struct{ ms, steal []float64 }

func (t *opTimes) add(d time.Duration, steal float64) {
	t.ms = append(t.ms, float64(d)/1e6)
	t.steal = append(t.steal, steal)
}

// phaseClock times a phase by the wall clock and also reads how much
// of the phase the hypervisor stole: the share of CPU time the
// machine's virtual CPUs were ready but the host ran something else.
// The share goes to the environment stamp only; the metrics are wall
// time.
type phaseClock struct {
	start        time.Time
	total, steal uint64
}

func startClock() phaseClock {
	total, steal := cpuTicks()
	return phaseClock{time.Now(), total, steal}
}

// elapsed returns the wall time since start and the stolen share of
// the CPU time in between.
func (c phaseClock) elapsed() (time.Duration, float64) {
	d := time.Since(c.start)
	total, steal := cpuTicks()
	return d, ratio(float64(steal-c.steal), float64(total-c.total))
}

// cpuTicks reads the machine's total and steal CPU time from /proc/stat,
// in clock ticks; both are 0 where it is unreadable.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// liveHeap is the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memSnap holds the allocation counters around a timed phase.
type memSnap struct{ mallocs, bytes, pauseNS uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs}
}

// noteRuntime records the Go runtime's per-layer metrics for a timed
// phase of ops public calls.
func noteRuntime(tr *tracer, before, after memSnap, ops int64) {
	tr.note("runtime.allocs_per_op", ratio(float64(after.mallocs-before.mallocs), float64(ops)))
	tr.note("runtime.alloc_bytes_per_op", ratio(float64(after.bytes-before.bytes), float64(ops)))
	tr.note("runtime.gc_pause_ms", float64(after.pauseNS-before.pauseNS)/1e6)
}

// quality accumulates delivery and hop stretch over routed queries.
type quality struct {
	attempted, delivered int64
	stretchSum           float64
	stretchN             int64
}

// add counts one query between endpoints minHops apart (<= 0 when not
// routable: those are not attempted pairs); ideal routes deliver but
// take no part in stretch.
func (q *quality) add(delivered bool, hops int, minHops int32, ideal bool) {
	if minHops <= 0 {
		return
	}
	q.attempted++
	if !delivered {
		return
	}
	q.delivered++
	if !ideal {
		q.stretchSum += float64(hops) / float64(minHops)
		q.stretchN++
	}
}

func (q *quality) merge(o quality) {
	q.attempted += o.attempted
	q.delivered += o.delivered
	q.stretchSum += o.stretchSum
	q.stretchN += o.stretchN
}

// blocks splits a timed phase into blocks of queries and keeps each
// block's rate and latency percentiles. The metrics are medians over
// blocks, so a burst of interference from outside the benchmark moves
// one block, not the result.
type blocks struct {
	rates, p50s, p90s []float64
	all               hist
	steal             []float64 // each block's steal share
}

// add records one block of n queries that took d of wall time, with
// steal share steal and latencies h.
func (b *blocks) add(n int64, d time.Duration, steal float64, h *hist) {
	b.steal = append(b.steal, steal)
	b.rates = append(b.rates, ratio(float64(n), d.Seconds()))
	b.p50s = append(b.p50s, h.quantile(0.5)/1e3)
	b.p90s = append(b.p90s, h.quantile(0.9)/1e3)
	b.all.merge(h)
}

// client is one closed-loop load client of a service workload.
type client interface {
	run(n int)
	latency() hist
}

// runBlock runs n queries on every client concurrently, then adds the
// block to b (nil for warm-up).
func runBlock[C client](cs []C, n int, b *blocks) {
	var wg sync.WaitGroup
	clock := startClock()
	for _, c := range cs {
		wg.Add(1)
		go func(c C) {
			defer wg.Done()
			c.run(n)
		}(c)
	}
	wg.Wait()
	d, steal := clock.elapsed()
	var lat hist
	for _, c := range cs {
		h := c.latency()
		lat.merge(&h)
	}
	if b != nil {
		b.add(int64(n*len(cs)), d, steal, &lat)
	}
}

// setCommon records the metrics every workload reports from its timed
// blocks and churn ops.
func setCommon(o *outcome, b *blocks, q quality, churn opTimes, heap float64) {
	o.set("routes_per_s", "1/s", quantileOf(b.rates, 0.5))
	o.set("route_p50_us", "us", quantileOf(b.p50s, 0.5))
	o.set("route_p90_us", "us", quantileOf(b.p90s, 0.5))
	o.samples["route"] = int64(b.all.n)
	o.samples["route_blocks"] = int64(len(b.rates))
	o.notes["block_steal_share"] = ratio(sum(b.steal), float64(len(b.steal)))
	o.set("delivery_ratio", "ratio", ratio(float64(q.delivered), float64(q.attempted)))
	o.set("hop_stretch", "ratio", ratio(q.stretchSum, float64(q.stretchN)))
	o.samples["delivery"] = q.attempted
	o.samples["stretch"] = q.stretchN
	o.set("churn_apply_p50_ms", "ms", quantileOf(slices.Clone(churn.ms), 0.5))
	o.set("churn_apply_p90_ms", "ms", quantileOf(slices.Clone(churn.ms), 0.9))
	o.samples["churn_apply"] = int64(len(churn.ms))
	o.notes["churn_steal_share"] = ratio(sum(churn.steal), float64(len(churn.steal)))
	o.set("heap_mb", "MB", heap)
	o.set("success_ratio", "ratio", ratio(float64(o.attempted-o.failed), float64(o.attempted)))
}
