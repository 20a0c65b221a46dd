package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/straightpath/wasn"
	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// minPairDist is the Euclidean separation every sampled pair keeps, so
// no query is a one-hop trivial route.
const minPairDist = 60.0

// newRNG derives an independent PCG stream from the run seed; stream
// separates the generators so adding one input never shifts another.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// samplePairs draws want (src, dst) pairs uniformly from the ordered
// pairs of alive nodes that share a connected component and lie at
// least minDist apart, by seeded rejection sampling. Unlike a scan in
// node order it favours no destination, so the traffic is any-to-any,
// not a convergecast. Pairs may repeat when distinct is false.
func samplePairs(net *topo.Network, want int, minDist float64, distinct bool, rng *rand.Rand) ([][2]topo.NodeID, error) {
	labels, _ := topo.Components(net)
	alive := net.AliveIDs()
	if len(alive) < 2 {
		return nil, fmt.Errorf("sample pairs: %d alive nodes", len(alive))
	}
	seen := map[[2]topo.NodeID]bool{}
	pairs := make([][2]topo.NodeID, 0, want)
	for tries := 0; len(pairs) < want; tries++ {
		if tries > 1000*want {
			return nil, fmt.Errorf("sample pairs: only %d of %d pairs after %d draws", len(pairs), want, tries)
		}
		s := alive[rng.IntN(len(alive))]
		d := alive[rng.IntN(len(alive))]
		if s == d || labels[s] != labels[d] || net.Dist(s, d) < minDist {
			continue
		}
		p := [2]topo.NodeID{s, d}
		if distinct {
			if seen[p] {
				continue
			}
			seen[p] = true
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// minHops returns the BFS minimum hop count of every pair (-1 when the
// endpoints are dead or disconnected), one BFS per distinct source.
func minHops(net *topo.Network, pairs [][2]topo.NodeID) []int32 {
	out := make([]int32, len(pairs))
	bySrc := map[topo.NodeID][]int{}
	for i, p := range pairs {
		bySrc[p[0]] = append(bySrc[p[0]], i)
	}
	for src, idx := range bySrc {
		dist := topo.HopDistances(net, src)
		for _, i := range idx {
			d := pairs[i][1]
			if !net.Alive(d) {
				out[i] = -1
				continue
			}
			out[i] = int32(dist[d])
		}
	}
	return out
}

// zipfStream draws n key ranks from Zipf(s) over [0, keys) — rank r
// has probability proportional to (r+1)^-s — and maps each rank to a
// key through perm, so hot keys spread over every deployment and
// algorithm instead of clustering at low key ids.
func zipfStream(rng *rand.Rand, s float64, perm []int32, n int) []int32 {
	z := rand.NewZipf(rng, s, 1, uint64(len(perm)-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// zipfTopShare is the analytic probability of the most frequent rank
// of Zipf(s) over keys ranks.
func zipfTopShare(s float64, keys int) float64 {
	var h float64
	for k := 1; k <= keys; k++ {
		h += math.Pow(float64(k), -s)
	}
	return 1 / h
}

// opKind is one churn operation type.
type opKind int

const (
	opFail opKind = iota
	opRevive
	opMove
)

func (k opKind) String() string {
	return [...]string{"fail", "revive", "move"}[k]
}

// churnOp is one topology change against one deployment.
type churnOp struct {
	dep   int
	kind  opKind
	nodes []topo.NodeID // fail/revive
	moves []wasn.Move   // move
}

// churnNodes is how many nodes each churn op touches.
const churnNodes = 8

// maxMoveDist bounds one node's displacement in a move op, in metres.
const maxMoveDist = 5.0

// opGen draws churn ops for one deployment from the replica's current
// state: a fail kills churnNodes alive nodes, the next revive brings
// exactly those back, and a move displaces churnNodes nodes by at most
// maxMoveDist, staying in the field and out of forbidden areas.
type opGen struct {
	rng     *rand.Rand
	pending []topo.NodeID // failed by the last fail, awaiting revive
}

func (g *opGen) next(dep int, kind opKind, d *wasn.Deployment) churnOp {
	op := churnOp{dep: dep, kind: kind}
	net := d.Net
	switch kind {
	case opFail:
		alive := net.AliveIDs()
		g.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
		op.nodes = append([]topo.NodeID(nil), alive[:churnNodes]...)
		g.pending = op.nodes
	case opRevive:
		op.nodes, g.pending = g.pending, nil
	case opMove:
		for _, i := range g.rng.Perm(net.N()) {
			if len(op.moves) == churnNodes {
				break
			}
			u := topo.NodeID(i)
			if p, ok := g.displace(net.Pos(u), net.Field, d.Forbidden); ok {
				op.moves = append(op.moves, wasn.Move{Node: u, X: p.X, Y: p.Y})
			}
		}
	}
	return op
}

// displace draws a point at most maxMoveDist from p inside field and
// outside the forbidden areas, giving up after a few draws.
func (g *opGen) displace(p geom.Point, field geom.Rect, forbidden topo.AreaSet) (geom.Point, bool) {
	for try := 0; try < 16; try++ {
		r := maxMoveDist * math.Sqrt(g.rng.Float64())
		a := 2 * math.Pi * g.rng.Float64()
		q := geom.Pt(p.X+r*math.Cos(a), p.Y+r*math.Sin(a))
		if field.Contains(q) && !forbidden.Contains(q) {
			return q, true
		}
	}
	return geom.Point{}, false
}
