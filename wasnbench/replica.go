package main

import (
	"fmt"
	"time"

	"github.com/straightpath/wasn"
	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

// algorithms is the full algorithm table in figure-legend order; the
// first nonIdeal entries are the routers under test, the rest the
// omniscient references.
var algorithms = wasn.ServiceAlgorithms()

const nonIdeal = 5

// spec names one fixed deployment. Deployment seeds are constants of
// the benchmark, never derived from the run seed, so every run routes
// over the same networks and only the queries change with --seed.
type spec struct {
	model wasn.Model
	n     int
	seed  uint64
}

func (s spec) name() string { return fmt.Sprintf("%s-%d-%d", s.model, s.n, s.seed) }

// replica is the benchmark's private copy of one deployment: its own
// network and substrates, built and repaired one substrate at a time so
// each layer's time is its own, with the full router table over them.
// Churn ops are replayed on it to check the system under test.
type replica struct {
	spec    spec
	dep     *wasn.Deployment
	safety  *safety.Model
	bounds  *bound.Boundaries
	planar  *planar.Graph
	routers []core.Router // indexed like algorithms
}

func newReplica(sp spec, tr *tracer) (*replica, error) {
	id := tr.begin("replica.build", -1)
	defer tr.end(id)
	d := tr.begin("topo.deploy", id)
	dep, err := wasn.Deploy(sp.model, sp.n, sp.seed)
	tr.end(d)
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", sp.name(), err)
	}
	net := dep.Net
	r := &replica{spec: sp, dep: dep}
	d = tr.begin("safety.build", id)
	r.safety = safety.Build(net)
	tr.end(d)
	d = tr.begin("bound.build", id)
	r.bounds = bound.FindHoles(net)
	tr.end(d)
	d = tr.begin("planar.build", id)
	r.planar = planar.Build(net, planar.GabrielGraph)
	tr.end(d)
	r.routers = []core.Router{
		core.NewGF(net, r.bounds),
		core.NewLGF(net),
		core.NewSLGF(net, r.safety),
		core.NewSLGF2(net, r.safety, core.WithPlanarGraph(r.planar)),
		core.NewGPSR(net, r.planar),
		core.NewIdeal(net, core.IdealMinHop),
		core.NewIdeal(net, core.IdealMinLength),
	}
	return r, nil
}

// repairTimes holds one op's substrate repair wall times.
type repairTimes struct{ safety, bound, planar time.Duration }

func (t repairTimes) longest() time.Duration { return max(t.safety, t.bound, t.planar) }

// change applies op's topology change to the replica's network and
// leaves the substrates stale; for a move it returns the nodes whose
// neighbourhoods changed.
func (r *replica) change(op churnOp) ([]topo.NodeID, error) {
	net := r.dep.Net
	if op.kind == opMove {
		dirty, err := net.SetPositions(op.moves)
		if err != nil {
			return nil, fmt.Errorf("replica %s move: %w", r.spec.name(), err)
		}
		return dirty, nil
	}
	for _, u := range op.nodes {
		net.SetAlive(u, op.kind == opRevive)
	}
	return nil, nil
}

// apply replays op on the replica: the topology change, then each
// substrate's repair, one at a time.
func (r *replica) apply(op churnOp, tr *tracer) (repairTimes, error) {
	id := tr.begin("replica."+op.kind.String(), -1)
	defer tr.end(id)
	var (
		fixSafety, fixBound, fixPlanar func()
		t                              repairTimes
	)
	dirty, err := r.change(op)
	if err != nil {
		return t, err
	}
	switch op.kind {
	case opFail, opRevive:
		fixSafety = func() { r.safety.Repair(op.nodes...) }
		fixBound = func() { r.bounds.Repair(op.nodes) }
		fixPlanar = func() { r.planar.Repair(op.nodes) }
	case opMove:
		fixSafety = func() { r.safety.RepairMoved(dirty) }
		fixBound = func() { r.bounds.RepairMoved(dirty) }
		fixPlanar = func() { r.planar.RepairRows(dirty) }
	}
	t.safety = timeSpan(tr, "safety.repair", id, fixSafety)
	t.bound = timeSpan(tr, "bound.repair", id, fixBound)
	t.planar = timeSpan(tr, "planar.repair", id, fixPlanar)
	return t, nil
}

// timeSpan runs f under a span and returns its wall time.
func timeSpan(tr *tracer, name string, parent int, f func()) time.Duration {
	id := tr.begin(name, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	tr.end(id)
	return d
}

// rebuild deploys sp afresh, applies the positions and dead set of net
// (sp's network after churn), and builds a new Sim from scratch: the
// oracle incremental repair must match.
func rebuild(sp spec, net *topo.Network) (*wasn.Sim, error) {
	dep, err := wasn.Deploy(sp.model, sp.n, sp.seed)
	if err != nil {
		return nil, err
	}
	var moves []wasn.Move
	for u := range net.Nodes {
		id := topo.NodeID(u)
		if p := net.Pos(id); p != dep.Net.Pos(id) {
			moves = append(moves, wasn.Move{Node: id, X: p.X, Y: p.Y})
		}
	}
	if _, err := dep.Net.SetPositions(moves); err != nil {
		return nil, err
	}
	for u := range net.Nodes {
		if id := topo.NodeID(u); !net.Alive(id) {
			dep.Net.SetAlive(id, false)
		}
	}
	return wasn.NewSim(dep)
}

// sameRoute reports whether two outcomes of one query agree on
// delivery, hop count and travelled length.
func sameRoute(a, b core.Result) bool {
	return a.Delivered == b.Delivered && a.Hops() == b.Hops() && a.Length == b.Length
}
