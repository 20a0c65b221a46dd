package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/straightpath/wasn"
	"github.com/straightpath/wasn/internal/topo"
)

// paperPairsPerSecond is how many query pairs per network each second
// of --seconds buys on paper-sweep; every pair is routed with all seven
// algorithms.
const paperPairsPerSecond = 1150

// paperWarmPairs is how many pairs per network are routed, untimed,
// before the timed phase.
const paperWarmPairs = 256

// paperChunk is how many pairs of one network a worker takes at a time.
const paperChunk = 128

// paperTailNets is how many networks, from the front of paperSpecs, the
// churn tail runs on.
const paperTailNets = 3

// paperRebuildChecks is how many seeded (pair, algorithm) queries of
// each tail network are checked against a from-scratch rebuild.
const paperRebuildChecks = 256

// paperSpecs are the paper's three deployment models at three sizes and
// two fixed seeds, plus FA-500-42, the default deployment that carries
// the SLGF2 node-399 reproducer. The churn tail runs on the first
// paperTailNets (the n=800 networks of seed 1).
func paperSpecs() []spec {
	specs := []spec{{wasn.IA, 800, 1}, {wasn.FA, 800, 1}, {wasn.OB, 800, 1}}
	for _, seed := range []uint64{1, 2} {
		for _, n := range []int{400, 600, 800} {
			for _, m := range []wasn.Model{wasn.IA, wasn.FA, wasn.OB} {
				if n == 800 && seed == 1 {
					continue
				}
				specs = append(specs, spec{m, n, seed})
			}
		}
	}
	return append(specs, spec{wasn.FA, 500, 42})
}

// paperNet is one deployment of the sweep with its queries.
type paperNet struct {
	spec    spec
	sim     *wasn.Sim
	routers []wasn.Router    // indexed like algorithms
	pairs   [][2]topo.NodeID // seeded uniform same-component pairs
	ideal   []int32          // BFS minimum hops per pair
	hops    []int16          // timed results: pair*len(algorithms)+alg, -1 undelivered
}

type paperState struct {
	nets     []*paperNet
	replicas []*replica // per net, only when traced
	heapMB   float64
}

func paperSetup(cfg config, tr *tracer) (*paperState, error) {
	specs := paperSpecs()
	st := &paperState{}
	base := liveHeap()
	for _, sp := range specs {
		id := tr.begin("wasn.Deploy", -1)
		dep, err := wasn.Deploy(sp.model, sp.n, sp.seed)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("deploy %s: %w", sp.name(), err)
		}
		id = tr.begin("wasn.NewSim", -1)
		sim, err := wasn.NewSim(dep)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("sim %s: %w", sp.name(), err)
		}
		pn := &paperNet{spec: sp, sim: sim}
		for _, a := range algorithms {
			pn.routers = append(pn.routers, sim.Router(wasn.Algorithm(a)))
		}
		st.nets = append(st.nets, pn)
	}
	st.heapMB = float64(liveHeap()-base) / 1e6

	want := paperPairsPerSecond * cfg.seconds
	for i, pn := range st.nets {
		var err error
		pn.pairs, err = samplePairs(pn.sim.Net(), want, minPairDist, false, newRNG(cfg.seed, uint64(100+i)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pn.spec.name(), err)
		}
		pn.ideal = minHops(pn.sim.Net(), pn.pairs)
		pn.hops = make([]int16, len(pn.pairs)*len(algorithms))
		if tr != nil {
			r, err := newReplica(pn.spec, tr)
			if err != nil {
				return nil, err
			}
			st.replicas = append(st.replicas, r)
		}
	}
	buf := make([]topo.NodeID, 0, 256)
	for _, pn := range st.nets {
		for _, p := range pn.pairs[:min(paperWarmPairs, len(pn.pairs))] {
			for _, r := range pn.routers {
				r.RouteInto(p[0], p[1], buf)
			}
		}
	}
	return st, nil
}

func runPaper(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	st, err := setUp(o, tr, func() (*paperState, error) { return paperSetup(cfg, tr) })
	if err != nil {
		return nil, err
	}

	algLat := make([]hist, len(algorithms))
	var b blocks
	mem := readMem()
	for r := 0; r < 2*cfg.seconds; r++ {
		routeRound(st.nets, r, 2*cfg.seconds, tr != nil, &b, algLat)
	}
	o.attempted = int64(b.all.n)
	noteRuntime(tr, mem, readMem(), o.attempted)
	for a, alg := range algorithms {
		tr.fold("core.route."+alg, &algLat[a])
	}

	q, perAlg := checkPaper(o, st.nets)
	for a, alg := range algorithms {
		tr.note("core.delivered."+alg, ratio(float64(perAlg[a].delivered), float64(perAlg[a].attempted)))
		tr.note("core.stretch."+alg, ratio(perAlg[a].stretchSum, float64(perAlg[a].stretchN)))
	}

	churn, err := paperTail(o, cfg, tr, st)
	if err != nil {
		return nil, err
	}
	setCommon(o, &b, q, churn, st.heapMB)
	return o, nil
}

// routeRound routes slice r of rounds of every network's pairs with all
// seven algorithms on two workers, which take chunks of one network at a
// time, and adds the round to b as one block. When traced, per-algorithm
// latencies go to perAlg.
func routeRound(nets []*paperNet, r, rounds int, traced bool, b *blocks, perAlg []hist) {
	type job struct {
		pn     *paperNet
		lo, hi int
	}
	var jobs []job
	for _, pn := range nets {
		from, to := r*len(pn.pairs)/rounds, (r+1)*len(pn.pairs)/rounds
		for lo := from; lo < to; lo += paperChunk {
			jobs = append(jobs, job{pn, lo, min(lo+paperChunk, to)})
		}
	}
	const workers = 2
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		lats [workers]hist
		algs [workers][]hist
	)
	clock := startClock()
	for w := 0; w < workers; w++ {
		algs[w] = make([]hist, len(algorithms))
		wg.Add(1)
		go func(lat *hist, perAlg []hist) {
			defer wg.Done()
			buf := make([]topo.NodeID, 0, 256)
			for j := next.Add(1) - 1; j < int64(len(jobs)); j = next.Add(1) - 1 {
				jb := jobs[j]
				for p := jb.lo; p < jb.hi; p++ {
					src, dst := jb.pn.pairs[p][0], jb.pn.pairs[p][1]
					for a, rt := range jb.pn.routers {
						t0 := time.Now()
						res := rt.RouteInto(src, dst, buf)
						d := time.Since(t0)
						lat.add(d)
						if traced {
							perAlg[a].add(d)
						}
						h := int16(-1)
						if res.Delivered {
							h = int16(res.Hops())
						}
						jb.pn.hops[p*len(algorithms)+a] = h
					}
				}
			}
		}(&lats[w], algs[w])
	}
	wg.Wait()
	d, steal := clock.elapsed()
	var lat hist
	for w := range lats {
		lat.merge(&lats[w])
		for a := range perAlg {
			perAlg[a].merge(&algs[w][a])
		}
	}
	b.add(int64(lat.n), d, steal, &lat)
}

// checkPaper checks the timed results — Ideal-length delivers every
// pair, Ideal-hops matches the BFS minimum, and no delivered route beats
// it — and returns delivery and stretch overall and per algorithm.
func checkPaper(o *outcome, nets []*paperNet) (quality, []quality) {
	var q quality
	perAlg := make([]quality, len(algorithms))
	for _, pn := range nets {
		for p, least := range pn.ideal {
			row := pn.hops[p*len(algorithms) : (p+1)*len(algorithms)]
			if row[len(row)-1] < 0 {
				o.fail("%s: Ideal-length did not deliver %v", pn.spec.name(), pn.pairs[p])
			}
			if int32(row[nonIdeal]) != least {
				o.fail("%s: Ideal-hops took %d hops for %v, BFS minimum is %d", pn.spec.name(), row[nonIdeal], pn.pairs[p], least)
			}
			for a, h := range row {
				if h >= 0 && int32(h) < least {
					o.fail("%s: %s took %d hops for %v, below the minimum %d", pn.spec.name(), algorithms[a], h, pn.pairs[p], least)
				}
				q.add(h >= 0, int(h), least, a >= nonIdeal)
				perAlg[a].add(h >= 0, int(h), least, false)
			}
		}
	}
	return q, perAlg
}

// paperTail applies the quiescent churn tail to the Sims of the tail
// networks, replaying each op on the replica when traced for the
// repair spans. At the end it checks that a seeded sample of queries on
// each tail network routes the same as on a Sim rebuilt from scratch
// over the final topology.
func paperTail(o *outcome, cfg config, tr *tracer, st *paperState) (opTimes, error) {
	// wasn.Sim has no revive: each network cycles fail, fail, move.
	kinds := []opKind{opFail, opFail, opMove}
	gens := make([]*opGen, paperTailNets)
	for i := range gens {
		gens[i] = &opGen{rng: newRNG(cfg.seed, uint64(200+i))}
	}
	var churn opTimes
	for j := 0; j < churnOps; j++ {
		ti := j % paperTailNets
		pn := st.nets[ti]
		op := gens[ti].next(ti, kinds[(j/paperTailNets)%len(kinds)], pn.sim.Dep)
		runtime.GC() // as in churner.step
		id := tr.begin("wasn.Sim."+op.kind.String(), -1)
		clock := startClock()
		var err error
		if op.kind == opFail {
			pn.sim.Fail(op.nodes...)
		} else {
			err = pn.sim.Move(op.moves...)
		}
		d, steal := clock.elapsed()
		tr.end(id)
		o.attempted++
		if err != nil {
			o.fail("%s %s: %v", pn.spec.name(), op.kind, err)
			continue
		}
		churn.add(d, steal)
		if tr != nil {
			if _, err := st.replicas[ti].apply(op, tr); err != nil {
				return churn, err
			}
		}
	}

	check := newRNG(cfg.seed, 300)
	for _, pn := range st.nets[:paperTailNets] {
		fresh, err := rebuild(pn.spec, pn.sim.Net())
		if err != nil {
			return churn, fmt.Errorf("rebuilding %s: %w", pn.spec.name(), err)
		}
		for k := 0; k < paperRebuildChecks; k++ {
			p := pn.pairs[check.IntN(len(pn.pairs))]
			a := check.IntN(len(algorithms))
			got := pn.routers[a].RouteInto(p[0], p[1], nil)
			want := fresh.Router(wasn.Algorithm(algorithms[a])).RouteInto(p[0], p[1], nil)
			if !sameRoute(got, want) {
				o.fail("%s after the tail: %s %v routes %v/%d hops, rebuild %v/%d hops", pn.spec.name(), algorithms[a], p, got.Delivered, got.Hops(), want.Delivered, want.Hops())
			}
		}
	}
	return churn, nil
}
