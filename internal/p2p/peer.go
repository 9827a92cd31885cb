package p2p

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scalefree/internal/xrand"
)

// Peer is one overlay participant: a mailbox-driven actor processing the
// wire protocol on a single dispatcher goroutine. External API calls
// (Join, Query, Discover, Leave) run on the caller's goroutine and
// correlate replies through per-request channels, so the dispatcher never
// blocks on protocol round-trips.
type Peer struct {
	cfg Config
	net Network

	inbox chan Envelope
	stop  chan struct{}
	done  chan struct{}

	// Outbound path: send() enqueues, a single writer goroutine drains to
	// the transport. A full outbox sheds its oldest entry (Stats.Shed), so
	// the dispatcher and API callers never block on a slow transport (a
	// TCP dial to a dead peer takes seconds; an in-memory send never
	// should).
	outMu      sync.Mutex
	outCond    *sync.Cond
	outbox     []Envelope
	outHead    int
	outClosed  bool
	writerDone chan struct{}

	mu        sync.Mutex
	closed    bool
	neighbors map[string]int      // addr -> last advertised degree
	keys      map[string]struct{} // shared content
	seen      map[string]time.Time
	hitSent   map[string]time.Time
	pending   map[string]chan Message
	rng       *xrand.RNG

	stats peerStats
}

// peerStats mirrors Stats with atomic counters.
type peerStats struct {
	sent, received, dropped, shed    atomic.Int64
	queriesSeen, queriesForwarded    atomic.Int64
	hitsServed                       atomic.Int64
	connectsAccepted, connectsDenied atomic.Int64
}

// seenCap bounds the duplicate-suppression tables; beyond it, expired
// entries are pruned (and if none expired, the tables are reset — losing
// old GUIDs only risks re-answering a stale query, which is harmless).
const seenCap = 16384

// NewPeer registers a peer on the network and starts its dispatcher.
// Callers must eventually call Close or Leave.
func NewPeer(cfg Config, net Network) (*Peer, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = DefaultInboxSize
	}
	if cfg.OutboxSize <= 0 {
		cfg.OutboxSize = DefaultOutboxSize
	}
	if cfg.DiscoverWindow <= 0 {
		cfg.DiscoverWindow = DefaultDiscoverWindow
	}
	if cfg.MaxTTL <= 0 {
		cfg.MaxTTL = DefaultMaxTTL
	}
	p := &Peer{
		cfg:        cfg,
		net:        net,
		inbox:      make(chan Envelope, cfg.InboxSize),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
		neighbors:  make(map[string]int),
		keys:       make(map[string]struct{}, len(cfg.Keys)),
		seen:       make(map[string]time.Time),
		hitSent:    make(map[string]time.Time),
		pending:    make(map[string]chan Message),
		rng:        xrand.New(cfg.Seed),
	}
	p.outCond = sync.NewCond(&p.outMu)
	for _, k := range cfg.Keys {
		p.keys[k] = struct{}{}
	}
	if err := net.Register(cfg.Addr, p.inbox); err != nil {
		return nil, fmt.Errorf("register %s: %w", cfg.Addr, err)
	}
	go p.loop()
	go p.writer()
	return p, nil
}

// Addr returns the peer's address.
func (p *Peer) Addr() string { return p.cfg.Addr }

// Degree returns the current number of overlay links.
func (p *Peer) Degree() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.neighbors)
}

// Neighbors returns a snapshot of the peer's links, sorted by address.
func (p *Peer) Neighbors() []PeerInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerInfo, 0, len(p.neighbors))
	for addr, deg := range p.neighbors {
		out = append(out, PeerInfo{Addr: addr, Degree: deg})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// HasKey reports whether the peer shares the given content key.
func (p *Peer) HasKey(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.keys[key]
	return ok
}

// AddKey publishes a content key on this peer.
func (p *Peer) AddKey(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.keys[key] = struct{}{}
}

// RemoveKey withdraws a content key.
func (p *Peer) RemoveKey(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.keys, key)
}

// Stats returns a snapshot of protocol counters.
func (p *Peer) Stats() Stats {
	return Stats{
		Sent:             p.stats.sent.Load(),
		Received:         p.stats.received.Load(),
		Dropped:          p.stats.dropped.Load(),
		Shed:             p.stats.shed.Load(),
		QueriesSeen:      p.stats.queriesSeen.Load(),
		QueriesForwarded: p.stats.queriesForwarded.Load(),
		HitsServed:       p.stats.hitsServed.Load(),
		ConnectsAccepted: p.stats.connectsAccepted.Load(),
		ConnectsRejected: p.stats.connectsDenied.Load(),
	}
}

// Close shuts the peer down without notifying neighbors (a crash, in
// protocol terms). Idempotent. Messages already queued in the outbox
// (e.g. Leave's disconnect notices) are flushed before the writer exits;
// sends enqueued after Close begins are silently discarded.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.net.Unregister(p.cfg.Addr)
	close(p.stop)
	<-p.done
	p.outMu.Lock()
	p.outClosed = true
	p.outCond.Broadcast()
	p.outMu.Unlock()
	<-p.writerDone
}

// Leave departs gracefully: it tells every neighbor to drop the link
// (paper §VI's join/leave future work), then closes.
func (p *Peer) Leave() {
	p.mu.Lock()
	addrs := make([]string, 0, len(p.neighbors))
	for a := range p.neighbors {
		addrs = append(addrs, a)
	}
	p.mu.Unlock()
	for _, a := range addrs {
		p.send(a, Message{Kind: KindDisconnect})
	}
	p.Close()
}

// send enqueues one message for the writer goroutine, shedding the
// oldest queued message when the outbox is full (best-effort delivery;
// unstructured overlays are loss-tolerant, and fresh traffic is worth
// more than stale traffic).
func (p *Peer) send(to string, msg Message) {
	env := Envelope{From: p.cfg.Addr, To: to, Msg: msg}
	p.outMu.Lock()
	if p.outClosed {
		p.outMu.Unlock()
		return
	}
	if len(p.outbox)-p.outHead >= p.cfg.OutboxSize {
		p.outbox[p.outHead] = Envelope{}
		p.outHead++
		p.stats.shed.Add(1)
	}
	if p.outHead >= p.cfg.OutboxSize {
		// Compact the consumed prefix so sustained shedding reuses the
		// backing array instead of growing it without bound.
		n := copy(p.outbox, p.outbox[p.outHead:])
		for i := n; i < len(p.outbox); i++ {
			p.outbox[i] = Envelope{}
		}
		p.outbox = p.outbox[:n]
		p.outHead = 0
	}
	p.outbox = append(p.outbox, env)
	p.outCond.Signal()
	p.outMu.Unlock()
}

// writer is the single outbound goroutine: it drains the outbox to the
// transport in FIFO order, counting successes and failures. It exits
// only once the outbox is closed AND empty, so queued farewells flush on
// Close.
func (p *Peer) writer() {
	defer close(p.writerDone)
	for {
		p.outMu.Lock()
		for p.outHead == len(p.outbox) && !p.outClosed {
			p.outCond.Wait()
		}
		if p.outHead == len(p.outbox) {
			p.outMu.Unlock()
			return // closed and drained
		}
		env := p.outbox[p.outHead]
		p.outbox[p.outHead] = Envelope{}
		p.outHead++
		if p.outHead == len(p.outbox) {
			// Reset the queue so the backing array is reused instead of
			// growing without bound.
			p.outbox = p.outbox[:0]
			p.outHead = 0
		}
		p.outMu.Unlock()
		if err := p.net.Send(env); err != nil {
			p.stats.dropped.Add(1)
			continue
		}
		p.stats.sent.Add(1)
	}
}

// newID mints a request GUID unique across the peer's lifetime.
func (p *Peer) newID() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg.Addr + "/" + strconv.FormatUint(p.rng.Uint64(), 36)
}

// await registers a reply channel for a request ID. The returned cancel
// must be called when the caller stops listening.
func (p *Peer) await(id string) (<-chan Message, func()) {
	ch := make(chan Message, 512)
	p.mu.Lock()
	p.pending[id] = ch
	p.mu.Unlock()
	cancel := func() {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
	}
	return ch, cancel
}

// route delivers a reply to its awaiting requester, dropping if nobody
// listens (late replies after timeout are normal).
func (p *Peer) route(id string, msg Message) {
	p.mu.Lock()
	ch, ok := p.pending[id]
	p.mu.Unlock()
	if !ok {
		return
	}
	select {
	case ch <- msg:
	default:
	}
}

// markSeen records a GUID in the given table, pruning when oversized.
// Returns false if the GUID was already present.
func (p *Peer) markSeen(table map[string]time.Time, id string) bool {
	if _, dup := table[id]; dup {
		return false
	}
	if len(table) >= seenCap {
		cutoff := time.Now().Add(-time.Minute)
		for k, t := range table {
			if t.Before(cutoff) {
				delete(table, k)
			}
		}
		if len(table) >= seenCap {
			for k := range table {
				delete(table, k)
			}
		}
	}
	table[id] = time.Now()
	return true
}

// loop is the dispatcher goroutine.
func (p *Peer) loop() {
	defer close(p.done)
	for {
		select {
		case env := <-p.inbox:
			p.stats.received.Add(1)
			p.handle(env)
		case <-p.stop:
			return
		}
	}
}

// handle dispatches one envelope. It runs only on the dispatcher
// goroutine.
func (p *Peer) handle(env Envelope) {
	switch env.Msg.Kind {
	case KindDiscover:
		p.handleDiscover(env)
	case KindDiscoverReply, KindConnectReply, KindNeighborReply, KindQueryHit, KindPong, KindPeersReply:
		if env.Msg.Kind == KindPong {
			p.refreshNeighborDegree(env.From, env.Msg.Degree)
		}
		p.route(env.Msg.ID, env.Msg)
	case KindConnect:
		p.handleConnect(env)
	case KindDisconnect:
		p.mu.Lock()
		delete(p.neighbors, env.From)
		p.mu.Unlock()
	case KindQuery:
		p.handleQuery(env)
	case KindNeighborReq:
		p.handleNeighborReq(env)
	case KindPeersReq:
		p.send(env.From, Message{Kind: KindPeersReply, ID: env.Msg.ID, Peers: p.Neighbors(), Degree: p.advertisedDegree(p.Degree())})
	case KindPing:
		p.send(env.From, Message{Kind: KindPong, ID: env.Msg.ID, Degree: p.advertisedDegree(p.Degree())})
	}
}

// advertisedDegree returns the degree this peer reports in protocol
// replies: the truth, unless Behavior.FakeDegree overrides it.
func (p *Peer) advertisedDegree(real int) int {
	if fd := p.cfg.Behavior.FakeDegree; fd > 0 {
		return fd
	}
	return real
}

// forgetNeighbor removes a link unilaterally — the neighbor is presumed
// dead, so no Disconnect is sent. Reports whether a link was removed.
func (p *Peer) forgetNeighbor(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.neighbors[addr]; !ok {
		return false
	}
	delete(p.neighbors, addr)
	return true
}

func (p *Peer) refreshNeighborDegree(addr string, degree int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.neighbors[addr]; ok {
		p.neighbors[addr] = degree
	}
}

// handleDiscover answers and propagates a DAPA horizon flood: reply with
// our own info directly to the origin, then forward with decremented TTL
// to all neighbors except the sender, suppressing duplicates by GUID.
func (p *Peer) handleDiscover(env Envelope) {
	msg := env.Msg
	if msg.TTL > p.cfg.MaxTTL {
		msg.TTL = p.cfg.MaxTTL // clamp hostile TTLs (amplification guard)
	}
	p.mu.Lock()
	fresh := p.markSeen(p.seen, msg.ID)
	degree := len(p.neighbors)
	var fwd []string
	if fresh && msg.TTL > 1 {
		for a := range p.neighbors {
			if a != env.From && a != msg.Origin {
				fwd = append(fwd, a)
			}
		}
	}
	p.mu.Unlock()
	if !fresh {
		return
	}
	if msg.Origin != p.cfg.Addr {
		p.send(msg.Origin, Message{
			Kind:  KindDiscoverReply,
			ID:    msg.ID,
			Peers: []PeerInfo{{Addr: p.cfg.Addr, Degree: p.advertisedDegree(degree)}},
		})
	}
	next := Message{
		Kind: KindDiscover, ID: msg.ID, Origin: msg.Origin,
		TTL: msg.TTL - 1, Hops: msg.Hops + 1,
	}
	for _, a := range fwd {
		p.send(a, next)
	}
}

// handleConnect arbitrates an inbound link request against the hard
// cutoff. Acceptance installs the link immediately on this side; the
// requester installs it on receiving the acceptance.
func (p *Peer) handleConnect(env Envelope) {
	p.mu.Lock()
	_, already := p.neighbors[env.From]
	ok := !already && env.From != p.cfg.Addr &&
		!p.cfg.Behavior.RefuseConnects &&
		(p.cfg.KC == NoCutoff || len(p.neighbors) < p.cfg.KC)
	if ok {
		p.neighbors[env.From] = env.Msg.Degree
	}
	degree := len(p.neighbors)
	p.mu.Unlock()
	if ok {
		p.stats.connectsAccepted.Add(1)
	} else {
		p.stats.connectsDenied.Add(1)
	}
	p.send(env.From, Message{Kind: KindConnectReply, ID: env.Msg.ID, Accept: ok, Degree: p.advertisedDegree(degree)})
}

// handleNeighborReq serves the HAPA hop primitive: a uniformly random
// neighbor plus our own advertised degree.
func (p *Peer) handleNeighborReq(env Envelope) {
	p.mu.Lock()
	var pick PeerInfo
	if len(p.neighbors) > 0 {
		idx := p.rng.Intn(len(p.neighbors))
		for a, d := range p.neighbors {
			if idx == 0 {
				pick = PeerInfo{Addr: a, Degree: d}
				break
			}
			idx--
		}
	}
	degree := len(p.neighbors)
	p.mu.Unlock()
	reply := Message{Kind: KindNeighborReply, ID: env.Msg.ID, Degree: p.advertisedDegree(degree)}
	if pick.Addr != "" {
		reply.Peers = []PeerInfo{pick}
	}
	p.send(env.From, reply)
}

// handleQuery implements the live search protocols. Local matches are
// reported directly to the origin (Gnutella query-hit routing). Forwarding
// follows the algorithm: FL to all neighbors but the sender, NF to at most
// KMin random neighbors, RW to exactly one (revisits allowed, so RW skips
// GUID suppression for propagation but still deduplicates hit reports).
func (p *Peer) handleQuery(env Envelope) {
	msg := env.Msg
	if msg.TTL > p.cfg.MaxTTL {
		msg.TTL = p.cfg.MaxTTL // clamp hostile TTLs (amplification guard)
	}
	p.mu.Lock()
	if msg.Alg != AlgRW {
		if !p.markSeen(p.seen, msg.ID) {
			p.mu.Unlock()
			return
		}
		p.stats.queriesSeen.Add(1)
	}
	_, match := p.keys[msg.Key]
	reportHit := match && msg.Origin != p.cfg.Addr &&
		!p.cfg.Behavior.NeverServeHits && p.markSeen(p.hitSent, msg.ID)
	degree := len(p.neighbors)
	// A freerider relays nothing with probability DropQueryProb; it still
	// answers (or leeches) above, so the defection is invisible upstream.
	dropped := p.cfg.Behavior.DropQueryProb > 0 && p.rng.Bool(p.cfg.Behavior.DropQueryProb)
	// Candidate forward set: neighbors except the sender.
	var cands []string
	if msg.TTL > 1 && !dropped {
		for a := range p.neighbors {
			if a != env.From {
				cands = append(cands, a)
			}
		}
	}
	var targets []string
	switch msg.Alg {
	case AlgNF:
		k := msg.KMin
		if k < 1 {
			k = 1
		}
		if len(cands) > k {
			p.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			cands = cands[:k]
		}
		targets = cands
	case AlgRW:
		if len(cands) > 0 {
			targets = []string{cands[p.rng.Intn(len(cands))]}
		} else if msg.TTL > 1 && env.From != "" {
			// Dead end: backtrack (mirrors search.Scratch.RandomWalk).
			if _, ok := p.neighbors[env.From]; ok {
				targets = []string{env.From}
			}
		}
	default: // AlgFlood
		targets = cands
	}
	p.mu.Unlock()

	if reportHit {
		p.stats.hitsServed.Add(1)
		p.send(msg.Origin, Message{
			Kind: KindQueryHit, ID: msg.ID, Key: msg.Key, Hops: msg.Hops,
			Peers: []PeerInfo{{Addr: p.cfg.Addr, Degree: p.advertisedDegree(degree)}},
		})
	}
	if len(targets) == 0 {
		return
	}
	next := msg
	next.TTL--
	next.Hops++
	for _, a := range targets {
		p.stats.queriesForwarded.Add(1)
		p.send(a, next)
	}
}
