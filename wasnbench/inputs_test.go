package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"github.com/straightpath/wasn"
	"github.com/straightpath/wasn/internal/topo"
)

func TestSamplePairsAnyToAny(t *testing.T) {
	const want = 128
	for _, m := range []wasn.Model{wasn.IA, wasn.FA, wasn.OB} {
		dep, err := wasn.Deploy(m, 800, 1)
		if err != nil {
			t.Fatal(err)
		}
		net := dep.Net
		pairs, err := samplePairs(net, want, minPairDist, true, newRNG(7, 1))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(pairs) != want {
			t.Fatalf("%s: got %d pairs, want %d", m, len(pairs), want)
		}
		labels, _ := topo.Components(net)
		perDst := map[topo.NodeID]int{}
		for _, p := range pairs {
			s, d := p[0], p[1]
			if s == d || !net.Alive(s) || !net.Alive(d) || labels[s] != labels[d] || net.Dist(s, d) < minPairDist {
				t.Fatalf("%s: pair %v is not a live same-component pair %v m apart", m, p, minPairDist)
			}
			perDst[d]++
		}
		if len(perDst) < want*8/10 {
			t.Errorf("%s: %d distinct destinations over %d pairs, want >= %d", m, len(perDst), want, want*8/10)
		}
		for d, c := range perDst {
			if c > want/20 {
				t.Errorf("%s: destination %d takes %d of %d pairs, want <= %d", m, d, c, want, want/20)
			}
		}
	}
}

func TestSamplePairsDeterministic(t *testing.T) {
	dep, err := wasn.Deploy(wasn.FA, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := samplePairs(dep.Net, 64, minPairDist, false, newRNG(3, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := samplePairs(dep.Net, 64, minPairDist, false, newRNG(3, 9))
	c, _ := samplePairs(dep.Net, 64, minPairDist, false, newRNG(4, 9))
	if !slices.Equal(a, b) {
		t.Error("same seed gave different pairs")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same pairs")
	}
}

func TestZipfTopKeyShare(t *testing.T) {
	const draws = 400_000
	keys := len(serviceSpecs) * keysPerDep
	perm := make([]int32, keys)
	for i, v := range newRNG(1, 20).Perm(keys) {
		perm[i] = int32(v)
	}
	stream := zipfStream(newRNG(1, 30), zipfS, perm, draws)
	counts := map[int32]int{}
	for _, k := range stream {
		counts[k]++
	}
	for rank := 0; rank < 3; rank++ {
		want := zipfTopShare(zipfS, keys) * math.Pow(float64(rank+1), -zipfS)
		got := float64(counts[perm[rank]]) / draws
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("rank %d key share %.4f, analytic %.4f", rank, got, want)
		}
	}
	if got := zipfTopShare(2, 1); got != 1 {
		t.Errorf("one-key top share %v, want 1", got)
	}
}

func TestOpGenCycle(t *testing.T) {
	dep, err := wasn.Deploy(wasn.OB, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := &opGen{rng: newRNG(5, 60)}
	fail := g.next(0, opFail, dep)
	if len(fail.nodes) != churnNodes {
		t.Fatalf("fail op has %d nodes, want %d", len(fail.nodes), churnNodes)
	}
	for _, u := range fail.nodes {
		if !dep.Net.Alive(u) {
			t.Fatalf("fail op picked dead node %d", u)
		}
		dep.Net.SetAlive(u, false)
	}
	revive := g.next(0, opRevive, dep)
	if !slices.Equal(revive.nodes, fail.nodes) {
		t.Fatalf("revive %v does not undo fail %v", revive.nodes, fail.nodes)
	}
	move := g.next(0, opMove, dep)
	if len(move.moves) != churnNodes {
		t.Fatalf("move op has %d moves, want %d", len(move.moves), churnNodes)
	}
	for _, mv := range move.moves {
		from := dep.Net.Pos(mv.Node)
		to := from
		to.X, to.Y = mv.X, mv.Y
		if d := math.Hypot(to.X-from.X, to.Y-from.Y); d > maxMoveDist {
			t.Errorf("node %d moves %.2f m, bound %v", mv.Node, d, maxMoveDist)
		}
		if !dep.Net.Field.Contains(to) || dep.Forbidden.Contains(to) {
			t.Errorf("node %d moves to %v, outside the field or into a forbidden area", mv.Node, to)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := 1; v <= 100_000; v++ {
		h.add(time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100_000
		if got := h.quantile(q); math.Abs(got-want) > 0.002*want {
			t.Errorf("q%.2f = %.0f, want %.0f within 0.2%%", q, got, want)
		}
	}
}
