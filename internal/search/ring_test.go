package search

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/xrand"
)

func TestExpandingRingFindsNearTarget(t *testing.T) {
	t.Parallel()
	g := pathN(t, 20)
	res, err := ExpandingRing(g.Freeze(), 0, func(v int) bool { return v == 2 }, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.TTL != 2 {
		t.Fatalf("result %+v, want found at ring 2", res)
	}
	if res.Rounds != 2 { // rings 1, 2
		t.Fatalf("rounds %d, want 2", res.Rounds)
	}
}

func TestExpandingRingSelfTarget(t *testing.T) {
	t.Parallel()
	g := pathN(t, 3)
	res, err := ExpandingRing(g.Freeze(), 1, func(v int) bool { return v == 1 }, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("self target %+v", res)
	}
}

func TestExpandingRingMiss(t *testing.T) {
	t.Parallel()
	g := pathN(t, 20)
	res, err := ExpandingRing(g.Freeze(), 0, func(v int) bool { return false }, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("found nonexistent target: %+v", res)
	}
	if res.Rounds != 4 { // 1,2,4,8
		t.Fatalf("rounds %d, want 4", res.Rounds)
	}
}

func TestExpandingRingCustomSchedule(t *testing.T) {
	t.Parallel()
	g := pathN(t, 20)
	res, err := ExpandingRing(g.Freeze(), 0, func(v int) bool { return v == 5 }, []int{3, 10}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.TTL != 10 || res.Rounds != 2 {
		t.Fatalf("custom schedule %+v", res)
	}
}

func TestExpandingRingValidation(t *testing.T) {
	t.Parallel()
	g := pathN(t, 5)
	if _, err := ExpandingRing(g.Freeze(), 0, nil, nil, 4); err == nil {
		t.Error("nil predicate should fail")
	}
	if _, err := ExpandingRing(g.Freeze(), -1, func(int) bool { return false }, nil, 4); err == nil {
		t.Error("bad source should fail")
	}
	if _, err := ExpandingRing(g.Freeze(), 0, func(int) bool { return false }, []int{-1}, 4); err == nil {
		t.Error("negative schedule entry should fail")
	}
}

func TestExpandingRingSavesMessagesOnPopularContent(t *testing.T) {
	t.Parallel()
	// The point of expanding ring (Lv et al.): for nearby/popular content
	// it uses far fewer messages than a single max-TTL flood.
	g, _, err := gen.PA(gen.PAConfig{N: 5000, M: 2, KC: 40}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	// Popular content: 5% of nodes hold it.
	holder := make([]bool, g.N())
	for i := 0; i < g.N()/20; i++ {
		holder[rng.Intn(g.N())] = true
	}
	const maxTTL = 8
	var ringMsgs, floodMsgs int
	for trial := 0; trial < 20; trial++ {
		src := rng.Intn(g.N())
		res, err := ExpandingRing(g.Freeze(), src, func(v int) bool { return holder[v] }, nil, maxTTL)
		if err != nil {
			t.Fatal(err)
		}
		ringMsgs += res.Messages
		fl, err := floodOnce(g, src, maxTTL)
		if err != nil {
			t.Fatal(err)
		}
		floodMsgs += fl.MessagesAt(maxTTL)
	}
	if ringMsgs >= floodMsgs/2 {
		t.Fatalf("expanding ring (%d msgs) should save >2x vs full flood (%d msgs)", ringMsgs, floodMsgs)
	}
}
