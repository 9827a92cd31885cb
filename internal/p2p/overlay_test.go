package p2p

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func newTestOverlay(t *testing.T, cfg OverlayConfig) *Overlay {
	t.Helper()
	if cfg.DiscoverWindow == 0 {
		cfg.DiscoverWindow = 40
	}
	o, err := NewOverlay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	return o
}

func TestOverlayValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewOverlay(OverlayConfig{M: 0}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverlayGrowDAPA(t *testing.T) {
	t.Parallel()
	o := newTestOverlay(t, OverlayConfig{M: 2, KC: 10, TauSub: 4, Strategy: JoinDAPA, Seed: 1})
	if err := o.Grow(60, nil); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 60 {
		t.Fatalf("size %d", o.Size())
	}
	g, _ := o.Snapshot()
	if g.N() != 60 {
		t.Fatalf("snapshot N %d", g.N())
	}
	if !g.Freeze().IsConnected() {
		t.Fatal("live DAPA overlay should be connected (single bootstrap chain)")
	}
	if g.MaxDegree() > 10 {
		t.Fatalf("live overlay violated cutoff: max degree %d", g.MaxDegree())
	}
	// Every joined peer got at least one link.
	if g.MinDegree() < 1 {
		t.Fatal("peer with zero links after join")
	}
}

func TestOverlayGrowHAPA(t *testing.T) {
	t.Parallel()
	o := newTestOverlay(t, OverlayConfig{M: 1, KC: 8, TauSub: 3, Strategy: JoinHAPA, Seed: 2})
	if err := o.Grow(40, nil); err != nil {
		t.Fatal(err)
	}
	g, _ := o.Snapshot()
	if !g.Freeze().IsConnected() {
		t.Fatal("HAPA overlay should be connected")
	}
	if g.MaxDegree() > 8 {
		t.Fatalf("cutoff violated: %d", g.MaxDegree())
	}
}

func TestOverlayGrowRandom(t *testing.T) {
	t.Parallel()
	o := newTestOverlay(t, OverlayConfig{M: 2, TauSub: 4, Strategy: JoinRandom, Seed: 3})
	if err := o.Grow(40, nil); err != nil {
		t.Fatal(err)
	}
	g, _ := o.Snapshot()
	if !g.Freeze().IsConnected() {
		t.Fatal("random-join overlay should be connected")
	}
}

func TestOverlayPreferentialAttachmentSkew(t *testing.T) {
	t.Parallel()
	// DAPA joins should produce a more skewed degree distribution than
	// random joins: compare max degrees on same-size overlays.
	maxDeg := func(strategy JoinStrategy, seed uint64) int {
		o := newTestOverlay(t, OverlayConfig{M: 1, TauSub: 6, Strategy: strategy, Seed: seed})
		if err := o.Grow(80, nil); err != nil {
			t.Fatal(err)
		}
		g, _ := o.Snapshot()
		return g.MaxDegree()
	}
	// Average over a few seeds to damp noise.
	var dapa, random int
	for s := uint64(0); s < 3; s++ {
		dapa += maxDeg(JoinDAPA, 10+s)
		random += maxDeg(JoinRandom, 20+s)
	}
	if dapa <= random {
		t.Fatalf("DAPA max degree sum %d should exceed random %d", dapa, random)
	}
}

func TestOverlayQueryAcrossGrownNetwork(t *testing.T) {
	t.Parallel()
	o := newTestOverlay(t, OverlayConfig{M: 2, TauSub: 5, Strategy: JoinDAPA, Seed: 4})
	err := o.Grow(50, func(i int) []string {
		return []string{fmt.Sprintf("file-%d", i)}
	})
	if err != nil {
		t.Fatal(err)
	}
	src := o.Peer(o.Addrs()[0])
	res, err := src.Query("file-37", AlgFlood, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 {
		t.Fatalf("hits %v", res.Hits)
	}
}

func TestOverlayRemoveGraceful(t *testing.T) {
	t.Parallel()
	o := newTestOverlay(t, OverlayConfig{M: 2, TauSub: 4, Strategy: JoinDAPA, Seed: 5})
	if err := o.Grow(30, nil); err != nil {
		t.Fatal(err)
	}
	victim := o.Addrs()[10]
	o.Remove(victim, true)
	if o.Size() != 29 {
		t.Fatalf("size %d", o.Size())
	}
	g, _ := o.Snapshot()
	if g.N() != 29 {
		t.Fatalf("snapshot N %d", g.N())
	}
	// No peer should still list the departed node once the disconnect
	// notifications drain (delivery is asynchronous).
	cleaned := waitFor(t, 2*time.Second, func() bool {
		for _, addr := range o.Addrs() {
			p := o.Peer(addr)
			if p == nil {
				continue
			}
			for _, nb := range p.Neighbors() {
				if nb.Addr == victim {
					return false
				}
			}
		}
		return true
	})
	if !cleaned {
		t.Fatalf("some peer still lists departed %s", victim)
	}
}

func TestOverlayChurn(t *testing.T) {
	t.Parallel()
	// Sustained join/leave (the paper's §VI future work): the overlay
	// must stay connected-ish and respect cutoffs throughout.
	o := newTestOverlay(t, OverlayConfig{M: 2, KC: 12, TauSub: 5, Strategy: JoinDAPA, Seed: 6})
	if err := o.Grow(40, nil); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 15; round++ {
		// Leave: a random non-bootstrap peer departs.
		addrs := o.Addrs()
		o.Remove(addrs[len(addrs)/2], round%2 == 0)
		// Join: a new peer arrives.
		if _, err := o.SpawnJoin(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if o.Size() != 40 {
		t.Fatalf("size %d after churn", o.Size())
	}
	g, _ := o.Snapshot()
	if g.MaxDegree() > 12 {
		t.Fatalf("cutoff violated under churn: %d", g.MaxDegree())
	}
	giant := len(g.Freeze().GiantComponent())
	if giant < 30 {
		t.Fatalf("giant component %d/40 after churn", giant)
	}
}

func TestOverlayMaintainRepairsDegrees(t *testing.T) {
	t.Parallel()
	o := newTestOverlay(t, OverlayConfig{M: 2, KC: 12, TauSub: 5, Strategy: JoinDAPA, Seed: 8})
	if err := o.Grow(30, nil); err != nil {
		t.Fatal(err)
	}
	// Crash a third of the peers to strand some survivors below m.
	addrs := o.Addrs()
	for i := 0; i < 10; i++ {
		o.Remove(addrs[i*2], false)
	}
	dead := map[string]bool{}
	for i := 0; i < 10; i++ {
		dead[addrs[i*2]] = true
	}
	// Maintain prunes dead links (crashes send no Disconnect) and lets
	// under-connected survivors re-join. Run a couple of rounds: repairs
	// may cascade.
	o.Maintain()
	o.Maintain()
	healthy := waitFor(t, 2*time.Second, func() bool {
		for _, a := range o.Addrs() {
			p := o.Peer(a)
			if p == nil {
				continue
			}
			if p.Degree() < 2 {
				return false
			}
			for _, nb := range p.Neighbors() {
				if dead[nb.Addr] {
					return false
				}
			}
		}
		return true
	})
	if !healthy {
		for _, a := range o.Addrs() {
			if p := o.Peer(a); p != nil && p.Degree() < 2 {
				t.Logf("%s degree %d", a, p.Degree())
			}
		}
		t.Fatal("overlay not healthy after Maintain: under-connected peers or dead links remain")
	}
}

func TestOverlaySnapshotDegreeHistogram(t *testing.T) {
	t.Parallel()
	o := newTestOverlay(t, OverlayConfig{M: 1, TauSub: 4, Strategy: JoinDAPA, Seed: 7})
	if err := o.Grow(30, nil); err != nil {
		t.Fatal(err)
	}
	h := o.DegreeHistogram()
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 30 {
		t.Fatalf("histogram covers %d peers", total)
	}
	degs := o.SortedDegrees()
	if len(degs) != 30 || degs[0] < 1 {
		t.Fatalf("degrees %v", degs)
	}
}

func TestInMemoryNetworkErrors(t *testing.T) {
	t.Parallel()
	n := NewInMemoryNetwork()
	err := n.Send(Envelope{From: "x", To: "ghost"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v", err)
	}
	inbox := make(chan Envelope) // unbuffered: always full
	if err := n.Register("a", inbox); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Envelope{To: "a"}); !errors.Is(err, ErrInboxOverrun) {
		t.Fatalf("err = %v", err)
	}
	n.Unregister("a")
	if err := n.Send(Envelope{To: "a"}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("after unregister err = %v", err)
	}
	n.Close()
	if err := n.Register("b", inbox); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("register after close err = %v", err)
	}
	if got := n.Peers(); len(got) != 0 {
		t.Fatalf("peers after close: %v", got)
	}
}
