package churn

import (
	"testing"

	"scalefree/internal/p2p"
)

// These tests close the loop between the two churn laboratories: the
// deterministic graph-level Simulator in this package and the live actor
// overlay in internal/p2p. Churn-style join/leave dynamics run over a
// p2p.FaultyNetwork injecting drops and partitions, and the overlay must
// re-converge the way the Simulator's repair policies promise.

// TestChurnOverLossyFaultyNetwork drives balanced churn — ungraceful
// crashes interleaved with fresh joins — over a transport dropping 5% of
// all messages, and requires the surviving overlay to heal back to one
// connected component after every wave.
func TestChurnOverLossyFaultyNetwork(t *testing.T) {
	t.Parallel()
	fn := p2p.NewFaultyNetwork(p2p.NewInMemoryNetwork(), p2p.FaultConfig{Seed: 11, Drop: 0.05})
	o, err := p2p.NewOverlay(p2p.OverlayConfig{
		M: 2, TauSub: 3, Seed: 4242, DiscoverWindow: 40, Transport: fn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	// Over a lossy transport a join can legitimately fail when every
	// connection attempt is dropped; real peers retry, so the test does
	// too (removing the isolated carcass between attempts).
	mustJoin := func(what string) {
		t.Helper()
		for attempt := 0; ; attempt++ {
			p, err := o.SpawnJoin()
			if err == nil {
				return
			}
			o.Remove(p.Addr(), false)
			if attempt >= 9 {
				t.Fatalf("%s: join failed 10 times over 5%% loss: %v", what, err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		mustJoin("grow")
	}

	for wave := 0; wave < 3; wave++ {
		// Crash a quarter of the population without farewells, then admit
		// the same number of newcomers (balanced churn, as in Step(0.5)).
		addrs := o.Addrs()
		for i := 0; i < len(addrs); i += 4 {
			o.Remove(addrs[i], false)
		}
		for i := 0; i < len(addrs)/4; i++ {
			mustJoin("wave")
		}
		rep := o.Heal(40)
		if !rep.Recovered {
			t.Fatalf("wave %d: overlay did not re-converge: coverage=%v", wave, rep.Coverage)
		}
	}
	if st := fn.Stats(); st.Dropped == 0 {
		t.Fatal("lossy schedule never dropped a message — the test exercised nothing")
	}
	g, _ := o.Snapshot()
	if giant := len(g.Freeze().GiantComponent()); giant != g.N() {
		t.Fatalf("final snapshot disconnected: giant %d of %d", giant, g.N())
	}
}

// TestChurnAcrossPartition splits the overlay's transport into two named
// partitions, churns both sides, then heals the network and requires the
// overlay to stitch itself back together.
func TestChurnAcrossPartition(t *testing.T) {
	t.Parallel()
	fn := p2p.NewFaultyNetwork(p2p.NewInMemoryNetwork(), p2p.FaultConfig{Seed: 7})
	o, err := p2p.NewOverlay(p2p.OverlayConfig{
		M: 2, TauSub: 3, Seed: 99, DiscoverWindow: 40, Transport: fn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	if err := o.Grow(16, nil); err != nil {
		t.Fatal(err)
	}

	addrs := o.Addrs()
	half := len(addrs) / 2
	fn.Partition("west", addrs[:half]...)
	fn.Partition("east", addrs[half:]...)

	// Churn inside the partition: crash one peer per side. Joins would
	// have to cross the cut (the bootstrap peer may sit on either side),
	// so the waves here are pure departures.
	o.Remove(addrs[0], false)
	o.Remove(addrs[len(addrs)-1], false)

	// While partitioned, maintenance cannot see across the cut; traffic
	// between the sides is eaten by the fault layer.
	o.Maintain()
	if st := fn.Stats(); st.PartitionDropped == 0 {
		t.Fatal("partition never dropped a message — groups were not wired up")
	}

	fn.Heal()
	rep := o.Heal(40)
	if !rep.Recovered {
		t.Fatalf("overlay did not re-converge after the partition healed: coverage=%v", rep.Coverage)
	}
	g, _ := o.Snapshot()
	if giant := len(g.Freeze().GiantComponent()); giant != g.N() {
		t.Fatalf("post-heal snapshot disconnected: giant %d of %d", giant, g.N())
	}
}
