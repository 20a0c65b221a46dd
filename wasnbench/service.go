package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"github.com/straightpath/wasn"
	"github.com/straightpath/wasn/internal/topo"
)

// serviceSpecs are the deployments churn-zipf and http-route serve.
var serviceSpecs = []spec{{wasn.IA, 800, 1}, {wasn.FA, 800, 1}, {wasn.OB, 800, 1}}

// pairsPerDep distinct pairs per deployment, each queried with every
// non-ideal algorithm: 3 x 5 x 8192 = 122,880 keys, 1.9x the default
// 65,536-entry route cache.
const (
	pairsPerDep = 8192
	keysPerDep  = nonIdeal * pairsPerDep
	zipfS       = 1.1
)

// svcState is a service workload's set-up: the service under test, the
// benchmark's replicas of its deployments, and the query inputs.
type svcState struct {
	svc      *wasn.Service
	names    []string // registry name per deployment
	replicas []*replica
	pairs    [][][2]topo.NodeID // per deployment
	ideal    [][]int32          // per deployment: current BFS minimum hops per pair
	streams  [][]int32          // Zipf key stream per client
	heapMB   float64
	close    func()
}

// key is one decoded query of the key space.
type key struct {
	dep, alg, pair int
	src, dst       topo.NodeID
}

func (st *svcState) decode(k int32) key {
	dep, rem := int(k)/keysPerDep, int(k)%keysPerDep
	pair := rem % pairsPerDep
	p := st.pairs[dep][pair]
	return key{dep: dep, alg: rem / pairsPerDep, pair: pair, src: p[0], dst: p[1]}
}

// serviceInputs builds the benchmark's private side of a service
// workload: replicas, pairs, minimum hops and one Zipf stream per
// client, each streamLen long.
func serviceInputs(cfg config, tr *tracer, clients, streamLen int) (*svcState, error) {
	st := &svcState{streams: make([][]int32, clients)}
	for i, sp := range serviceSpecs {
		r, err := newReplica(sp, tr)
		if err != nil {
			return nil, err
		}
		pairs, err := samplePairs(r.dep.Net, pairsPerDep, minPairDist, true, newRNG(cfg.seed, uint64(10+i)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name(), err)
		}
		st.replicas = append(st.replicas, r)
		st.pairs = append(st.pairs, pairs)
		st.ideal = append(st.ideal, minHops(r.dep.Net, pairs))
	}
	perm := make([]int32, len(serviceSpecs)*keysPerDep)
	for i, v := range newRNG(cfg.seed, 20).Perm(len(perm)) {
		perm[i] = int32(v)
	}
	for c := range st.streams {
		st.streams[c] = zipfStream(newRNG(cfg.seed, uint64(30+c)), zipfS, perm, streamLen)
	}
	return st, nil
}

// startService deploys and builds every deployment on a fresh service
// and records the live heap it adds.
func (st *svcState) startService(tr *tracer) error {
	base := liveHeap()
	st.svc = wasn.NewService()
	for _, sp := range serviceSpecs {
		name, err := st.svc.Deploy("", wasn.DeploymentSpec{Model: sp.model, N: sp.n, Seed: sp.seed})
		if err != nil {
			return err
		}
		id := tr.begin("serve.build", -1)
		err = st.svc.Build(name)
		tr.end(id)
		if err != nil {
			return err
		}
		st.names = append(st.names, name)
	}
	st.heapMB = float64(liveHeap()-base) / 1e6
	return nil
}

func (st *svcState) Close() {
	if st.close != nil {
		st.close()
	}
	st.svc.Close()
}

// route asks the service for one key in process.
func (st *svcState) route(k key) (wasn.Result, bool, error) {
	return st.svc.Route(st.names[k.dep], algorithms[k.alg], k.src, k.dst)
}

// refresh recomputes deployment dep's minimum hops after a churn op.
func (st *svcState) refresh(dep int) {
	st.ideal[dep] = minHops(st.replicas[dep].dep.Net, st.pairs[dep])
}

// checkSample routes n seeded keys of deployment dep through the service
// and through ref (the replica's routers, or a fresh rebuild's), and
// counts a failed op for each disagreement.
func (st *svcState) checkSample(o *outcome, rng *rand.Rand, dep, n int, ref []wasn.Router, what string) {
	for i := 0; i < n; i++ {
		k := st.decode(int32(dep*keysPerDep + rng.IntN(keysPerDep)))
		got, _, err := st.route(k)
		if err != nil {
			o.fail("%s: route %v: %v", what, k, err)
			continue
		}
		if want := ref[k.alg].RouteInto(k.src, k.dst, nil); !sameRoute(got, want) {
			o.fail("%s: %s %s %d->%d: service %v/%d hops, reference %v/%d hops", what, st.names[dep], algorithms[k.alg], k.src, k.dst, got.Delivered, got.Hops(), want.Delivered, want.Hops())
		}
	}
}

// checkRebuilt compares a key sample of every deployment against a
// fresh Sim built from scratch over the replica's final topology.
func (st *svcState) checkRebuilt(o *outcome, cfg config) error {
	rng := newRNG(cfg.seed, 40)
	for dep, r := range st.replicas {
		sim, err := rebuild(r.spec, r.dep.Net)
		if err != nil {
			return fmt.Errorf("rebuilding %s: %w", r.spec.name(), err)
		}
		ref := make([]wasn.Router, len(algorithms))
		for a, alg := range algorithms {
			ref[a] = sim.Router(wasn.Algorithm(alg))
		}
		st.checkSample(o, rng, dep, 256, ref, "final rebuild")
	}
	return nil
}

// coreProbe times RouteInto on the replicas for every algorithm over a
// sample of the workload's pairs, for the traced run's core metrics.
func (st *svcState) coreProbe(tr *tracer) {
	if tr == nil {
		return
	}
	perAlg := make([]quality, len(algorithms))
	lat := make([]hist, len(algorithms))
	buf := make([]topo.NodeID, 0, 256)
	for dep, r := range st.replicas {
		for p := 0; p < 512; p++ {
			pair := st.pairs[dep][p]
			for a, rt := range r.routers {
				start := time.Now()
				res := rt.RouteInto(pair[0], pair[1], buf)
				lat[a].add(time.Since(start))
				perAlg[a].add(res.Delivered, res.Hops(), st.ideal[dep][p], false)
			}
		}
	}
	for a, alg := range algorithms {
		tr.fold("core.route."+alg, &lat[a])
		tr.note("core.delivered."+alg, ratio(float64(perAlg[a].delivered), float64(perAlg[a].attempted)))
		tr.note("core.stretch."+alg, ratio(perAlg[a].stretchSum, float64(perAlg[a].stretchN)))
	}
}

// churner drives the churn ops of a service workload: it draws each op
// from the replica's state, has apply run it against the system under
// test, and replays it on the replica. With verify set it also repairs
// the replica's substrates and checks a key sample after each op;
// without it, and untraced, the replica takes only the topology change,
// which the next op and the final rebuild check need.
type churner struct {
	st     *svcState
	gens   []*opGen
	check  *rand.Rand
	count  int
	verify bool
}

func newChurner(cfg config, st *svcState, verify bool) *churner {
	c := &churner{st: st, check: newRNG(cfg.seed, 50), verify: verify}
	for i := range serviceSpecs {
		c.gens = append(c.gens, &opGen{rng: newRNG(cfg.seed, uint64(60+i))})
	}
	return c
}

// step runs the next op — deployments round-robin, each cycling fail,
// revive, move — through apply and adds its wall time to times.
func (c *churner) step(o *outcome, tr *tracer, apply func(churnOp) error, times *opTimes) error {
	dep := c.count % len(serviceSpecs)
	kind := opKind((c.count / len(serviceSpecs)) % 3)
	c.count++
	st := c.st
	op := c.gens[dep].next(dep, kind, st.replicas[dep].dep)
	// Start from a collected heap, so a collection the reads left owing
	// does not land in the op's time.
	runtime.GC()
	id := tr.begin("serve."+kind.String(), -1)
	clock := startClock()
	err := apply(op)
	d, steal := clock.elapsed()
	tr.end(id)
	o.attempted++
	times.add(d, steal)
	if err != nil {
		o.fail("%s %s: %v", st.names[dep], kind, err)
		return nil
	}
	if !c.verify && tr == nil {
		_, err := st.replicas[dep].change(op)
		return err
	}
	t, err := st.replicas[dep].apply(op, tr)
	if err != nil {
		return err
	}
	tr.note("serve.apply_self_ms", float64(d-t.longest())/1e6)
	st.refresh(dep)
	st.checkSample(o, c.check, dep, 64, st.replicas[dep].routers, "after "+kind.String())
	return nil
}

// applyInProcess runs a churn op through the service's Go API.
func (st *svcState) applyInProcess(op churnOp) error {
	name := st.names[op.dep]
	switch op.kind {
	case opFail:
		return st.svc.Fail(name, op.nodes)
	case opRevive:
		return st.svc.Revive(name, op.nodes)
	default:
		return st.svc.Move(name, op.moves)
	}
}
