package main

import "time"

// churnReadsPerSecond is how many reads each second of --seconds buys
// on churn-zipf, split over the read blocks and the clients.
const churnReadsPerSecond = 1_150_000

// churnClients is how many closed-loop readers churn-zipf runs: one per
// core of the 2-core machine it was sized on.
const churnClients = 2

// churnWarmReads is how many untimed reads each client makes before
// timing starts.
const churnWarmReads = 300_000

// reader is one closed-loop client of the in-process service.
type reader struct {
	st     *svcState
	stream []int32
	pos    int
	seen   []bool // keys already counted for delivery and stretch
	traced bool

	lat, hit, miss hist // lat is per block; hit and miss per run
	q              quality
	reads, hits    int64
	errs           int64
	lastErr        error
}

func newReader(st *svcState, c int, traced bool) *reader {
	return &reader{st: st, stream: st.streams[c], seen: make([]bool, len(serviceSpecs)*keysPerDep), traced: traced}
}

// run makes n reads. Delivery and stretch count each key once, at its
// first read: a repeated key adds only its Zipf weight, and counting it
// again would let a few hot keys decide the ratio.
func (r *reader) run(n int) {
	st := r.st
	for i := 0; i < n; i++ {
		kk := r.stream[r.pos]
		if r.pos++; r.pos == len(r.stream) {
			r.pos = 0
		}
		k := st.decode(kk)
		start := time.Now()
		res, cached, err := st.route(k)
		d := time.Since(start)
		r.lat.add(d)
		r.reads++
		if err != nil {
			r.errs++
			r.lastErr = err
			continue
		}
		if cached {
			r.hits++
		}
		if r.traced {
			if cached {
				r.hit.add(d)
			} else {
				r.miss.add(d)
			}
		}
		if !r.seen[kk] {
			r.seen[kk] = true
			r.q.add(res.Delivered, res.Hops(), st.ideal[k.dep][k.pair], false)
		}
	}
}

// reset drops what the warm-up counted.
func (r *reader) reset() {
	*r = reader{st: r.st, stream: r.stream, pos: r.pos, seen: make([]bool, len(r.seen)), traced: r.traced}
}

// latency hands over and clears the reader's per-block latencies.
func (r *reader) latency() hist {
	h := r.lat
	r.lat = hist{}
	return h
}

func runChurn(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	perBlock := churnReadsPerSecond * cfg.seconds / churnOps / churnClients
	streamLen := min(churnWarmReads+perBlock*churnOps, 1<<20)
	var rs []*reader
	st, err := setUp(o, tr, func() (*svcState, error) {
		st, err := serviceInputs(cfg, tr, churnClients, streamLen)
		if err != nil {
			return nil, err
		}
		if err := st.startService(tr); err != nil {
			return nil, err
		}
		rs = rs[:0]
		for c := 0; c < churnClients; c++ {
			rs = append(rs, newReader(st, c, tr != nil))
		}
		runBlock(rs, churnWarmReads, nil)
		for _, r := range rs {
			r.reset()
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	st.coreProbe(tr)

	ch := newChurner(cfg, st, true)
	var (
		b     blocks
		churn opTimes
		mem   memSnap
	)
	purged := st.svc.Stats().CachePurged
	for i := 0; i < churnOps; i++ {
		var before memSnap
		if tr != nil {
			before = readMem()
		}
		runBlock(rs, perBlock, &b)
		if tr != nil {
			after := readMem()
			mem = memSnap{mem.mallocs + after.mallocs - before.mallocs, mem.bytes + after.bytes - before.bytes, mem.pauseNS + after.pauseNS - before.pauseNS}
		}
		// Both readers are parked: the op runs alone.
		if err := ch.step(o, tr, st.applyInProcess, &churn); err != nil {
			return nil, err
		}
	}
	purged = st.svc.Stats().CachePurged - purged
	if err := st.checkRebuilt(o, cfg); err != nil {
		return nil, err
	}

	var (
		q           quality
		reads, hits int64
	)
	for _, r := range rs {
		q.merge(r.q)
		reads += r.reads
		hits += r.hits
		if r.errs > 0 {
			o.failed += r.errs
			o.problems = append(o.problems, r.lastErr.Error())
		}
		tr.fold("serve.route.hit", &r.hit)
		tr.fold("serve.route.miss", &r.miss)
	}
	o.attempted += reads
	noteRuntime(tr, memSnap{}, mem, reads)
	tr.note("serve.cache_hit_ratio", ratio(float64(hits), float64(reads)))
	tr.note("serve.cache_purged_per_op", ratio(float64(purged), float64(churnOps)))
	o.notes["cache_hit_ratio"] = ratio(float64(hits), float64(reads))
	setCommon(o, &b, q, churn, st.heapMB)
	return o, nil
}
