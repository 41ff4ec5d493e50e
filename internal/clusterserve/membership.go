package clusterserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"fairco2/internal/attrserver"
)

// MemberState is one peer's position in the health state machine. The
// numeric values are published as the fairco2_cluster_member_state gauge,
// so they are part of the metric contract: 0 down, 1 warming, 2 up.
type MemberState int32

// The three membership states. Up peers are ring members; Warming peers
// are alive but still replaying missed commits (excluded from the ring,
// still replicated to); Down peers are excluded and skipped entirely.
const (
	MemberDown    MemberState = 0
	MemberWarming MemberState = 1
	MemberUp      MemberState = 2
)

func (s MemberState) String() string {
	switch s {
	case MemberDown:
		return "down"
	case MemberWarming:
		return "warming"
	case MemberUp:
		return "up"
	}
	return "unknown"
}

// ProbeConfig tunes the health prober. Zero values select the defaults.
type ProbeConfig struct {
	// Interval is the base probe period per peer (default 500ms). Each
	// probe is scheduled Interval plus up to Jitter*Interval later, so a
	// fleet's probes decorrelate instead of arriving in waves.
	Interval time.Duration
	// Jitter is the fractional spread on Interval (default 0.2).
	Jitter float64
	// Timeout bounds one probe request (default Interval/2). A peer that
	// accepts connections but stalls past it counts as failed — the
	// partition fault mode.
	Timeout time.Duration
	// FailThreshold is K: consecutive probe failures before a peer
	// transitions to Down (default 3).
	FailThreshold int
	// UpThreshold is M: consecutive ok probes before a non-Up peer
	// transitions to Up (default 2). Hysteresis: a flapping peer must
	// string M clean probes together to rejoin the ring.
	UpThreshold int
	// Seed derives each probe loop's jitter stream, so tests replay
	// exactly (default 1).
	Seed int64
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.2
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 2
	}
	if c.FailThreshold < 1 {
		c.FailThreshold = 3
	}
	if c.UpThreshold < 1 {
		c.UpThreshold = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// memberHealth is one peer's hysteresis accounting. Guarded by
// membership.mu.
type memberHealth struct {
	state MemberState
	fails int // consecutive probe failures
	oks   int // consecutive ok probes
	// cursor is how far into this peer's commit log we have accounted:
	// fast-forwarded on healthy probes (live replication already delivered
	// those commits) and advanced by replay during catch-up pulls.
	cursor uint64
	// pullPending freezes cursor fast-forwarding between a transition to
	// Up and the catch-up pull it triggers, so the pull cannot be skipped
	// past by a probe racing it.
	pullPending bool
}

// membership runs the health probers for one node and owns the peer state
// machine. Transitions rebuild the node's active ring, which is swapped
// atomically so the request path never locks.
type membership struct {
	n   *Node
	cfg ProbeConfig

	mu    sync.Mutex
	peers map[string]*memberHealth

	syncMu sync.Mutex // serializes catch-up pulls

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newMembership(n *Node, cfg ProbeConfig) *membership {
	m := &membership{
		n:     n,
		cfg:   cfg.withDefaults(),
		peers: make(map[string]*memberHealth, len(n.urls)),
		stop:  make(chan struct{}),
	}
	// Peers start Up (optimistic, the static-membership behavior) so a
	// cluster with its prober briefly behind still routes everywhere.
	for id := range n.urls {
		m.peers[id] = &memberHealth{state: MemberUp}
		m.n.inst.MemberState.With(m.n.id, id).Set(float64(MemberUp))
	}
	return m
}

// start launches the warmup catch-up and the per-peer probe loops
// concurrently. Probing must not wait behind warmup: under a continuous
// commit stream catch-up can take many rounds, and failure detection has
// to keep running throughout (warmup and probe-triggered pulls serialize
// on syncMu, so they never race each other's replays).
func (m *membership) start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.warmup()
	}()
	m.mu.Lock()
	ids := make([]string, 0, len(m.peers))
	for id := range m.peers {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	for _, id := range ids {
		m.wg.Add(1)
		go m.probeLoop(id)
	}
}

func (m *membership) halt() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

func (m *membership) stopped() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// sleep waits d or until halt, reporting whether it slept the full d.
func (m *membership) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.stop:
		return false
	case <-t.C:
		return true
	}
}

// probeLoop polls one peer's /healthz forever on a jittered interval.
func (m *membership) probeLoop(peer string) {
	defer m.wg.Done()
	rng := rand.New(rand.NewSource(m.cfg.Seed ^ int64(fnv64a(peer))))
	for {
		d := m.cfg.Interval + time.Duration(rng.Int63n(int64(float64(m.cfg.Interval)*m.cfg.Jitter)+1))
		if !m.sleep(d) {
			return
		}
		m.probe(peer)
	}
}

// probeDoc is the healthz subset the prober parses.
type probeDoc struct {
	Status    string `json:"status"`
	CommitSeq uint64 `json:"commit_seq"`
}

// probe issues one health check and feeds the outcome into the state
// machine.
func (m *membership) probe(peer string) {
	doc, err := m.fetchHealth(peer)
	switch {
	case err != nil || doc.Status == attrserver.HealthDraining:
		m.observeFailure(peer)
	case doc.Status == attrserver.HealthWarming:
		m.observeWarming(peer)
	default:
		m.observeOK(peer, doc.CommitSeq)
	}
}

func (m *membership) fetchHealth(peer string) (probeDoc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.n.urls[peer]+"/healthz", nil)
	if err != nil {
		return probeDoc{}, err
	}
	resp, err := m.n.client.Do(req)
	if err != nil {
		return probeDoc{}, err
	}
	defer resp.Body.Close()
	var doc probeDoc
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&doc); err != nil {
		return probeDoc{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return probeDoc{}, fmt.Errorf("clusterserve: peer %s healthz status %d", peer, resp.StatusCode)
	}
	return doc, nil
}

// observeOK counts a clean probe: M consecutive of them bring a non-Up
// peer back into the ring and trigger a catch-up pull for the commits we
// missed while it was unreachable.
func (m *membership) observeOK(peer string, seq uint64) {
	m.mu.Lock()
	h := m.peers[peer]
	h.fails = 0
	h.oks++
	pull := false
	if h.state != MemberUp && h.oks >= m.cfg.UpThreshold {
		m.transitionLocked(peer, h, MemberUp)
		h.pullPending = true
		pull = true
	} else if h.state == MemberUp && h.pullPending {
		// A previous catch-up pull failed mid-way; retry it.
		pull = true
	}
	if h.state == MemberUp && !h.pullPending && seq > h.cursor {
		// Live replication already delivered these commits; account for
		// them so a later outage pulls only what was actually missed.
		h.cursor = seq
	}
	m.mu.Unlock()
	if pull {
		m.pullFrom(peer)
	}
}

func (m *membership) observeWarming(peer string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.peers[peer]
	h.fails, h.oks = 0, 0
	// A self-reported state needs no hysteresis: the peer is alive and
	// explicitly not ready.
	if h.state != MemberWarming {
		m.transitionLocked(peer, h, MemberWarming)
	}
}

func (m *membership) observeFailure(peer string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.peers[peer]
	h.oks = 0
	h.fails++
	if h.state != MemberDown && h.fails >= m.cfg.FailThreshold {
		m.transitionLocked(peer, h, MemberDown)
		// The peer may come back as a fresh incarnation whose commit log
		// restarts at zero; forget the cursor so rejoin replays its whole
		// history. Replay is idempotent, so safety costs only bounded
		// (commit-rate, not request-rate) work.
		h.cursor = 0
		h.pullPending = false
	}
}

// transitionLocked flips one peer's state, publishes the change, and
// swaps in a rebuilt ring excluding non-Up peers. Callers hold m.mu.
func (m *membership) transitionLocked(peer string, h *memberHealth, to MemberState) {
	h.state = to
	h.fails, h.oks = 0, 0
	m.n.inst.MemberState.With(m.n.id, peer).Set(float64(to))
	m.n.inst.Transitions.With(peer, to.String()).Inc()
	members := []string{m.n.id}
	for id, ph := range m.peers {
		if ph.state == MemberUp {
			members = append(members, id)
		}
	}
	ring, err := NewRing(members, m.n.ring.VNodes())
	if err != nil {
		// Unreachable: members always includes self and IDs were already
		// validated at construction. Keep the previous ring.
		return
	}
	m.n.active.Store(ring)
}

// states snapshots the peer state machine (for introspection and tests).
func (m *membership) states() map[string]MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]MemberState, len(m.peers))
	for id, h := range m.peers {
		out[id] = h.state
	}
	return out
}

// replicableLocked reports whether commits should still be broadcast to
// peer: Down peers are skipped (they will catch up on rejoin), Warming
// ones keep receiving live commits so their replay tail stays short.
func (m *membership) replicable(peer string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peers[peer].state != MemberDown
}

// maxWarmupRounds bounds the initial catch-up against a pathological peer
// that grows its log faster than we can replay it.
const maxWarmupRounds = 64

// warmup is the rejoin catch-up: the node reports Warming, replays missed
// commits from the first ok peer until two consecutive rounds find
// nothing new, then reports OK and enters normal service. With no peers
// (or none reachable — a fresh cluster booting all at once, or a full
// partition) the node serves what it has.
func (m *membership) warmup() {
	if len(m.n.urls) == 0 {
		return
	}
	m.n.setHealth(attrserver.HealthWarming)
	defer m.n.setHealth(attrserver.HealthOK)
	start := time.Now()
	defer func() { m.n.inst.SyncLag.Set(time.Since(start).Seconds()) }()

	quiet := 0
	for round := 0; quiet < 2 && round < maxWarmupRounds; round++ {
		if m.stopped() {
			return
		}
		replayed, reachable := m.pullRound()
		if !reachable {
			return
		}
		if replayed == 0 {
			quiet++
		} else {
			quiet = 0
		}
		if quiet < 2 && !m.sleep(m.cfg.Interval/2) {
			return
		}
	}
}

// pullRound drains one reachable peer's log — preferring peers reporting
// ok, whose logs are complete — and reports how many entries it replayed.
func (m *membership) pullRound() (replayed int, reachable bool) {
	type candidate struct {
		id string
		ok bool
	}
	var cands []candidate
	for id := range m.n.urls {
		doc, err := m.fetchHealth(id)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{id, doc.Status == attrserver.HealthOK})
	}
	for _, preferOK := range []bool{true, false} {
		for _, c := range cands {
			if c.ok != preferOK {
				continue
			}
			n, err := m.pullFrom(c.id)
			if err == nil {
				return n, true
			}
		}
	}
	return 0, len(cands) > 0
}

// pullFrom pages through peer's commit log from our cursor, replaying
// every entry locally. Replays are idempotent whole-workload
// replacements, so overlapping pulls from different peers converge.
func (m *membership) pullFrom(peer string) (int, error) {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	total := 0
	for page := 0; ; page++ {
		m.mu.Lock()
		cursor := m.peers[peer].cursor
		m.mu.Unlock()
		resp, err := m.fetchSync(peer, cursor)
		if err != nil {
			return total, err
		}
		for _, e := range resp.Entries {
			applied, err := m.n.applySynced(CommitEntry{Stamp: e.Stamp, Origin: e.Origin, Body: []byte(e.Body)})
			if err != nil {
				return total, err
			}
			// Only count entries that changed state: superseded and
			// duplicate entries advance the cursor without resetting the
			// warmup quiet counter, so catch-up converges even while live
			// replication keeps delivering the same commits.
			if applied {
				total++
			}
		}
		m.mu.Lock()
		if resp.Next > m.peers[peer].cursor {
			m.peers[peer].cursor = resp.Next
		}
		if !resp.More {
			m.peers[peer].pullPending = false
		}
		m.mu.Unlock()
		if !resp.More || m.stopped() {
			return total, nil
		}
	}
}

func (m *membership) fetchSync(peer string, since uint64) (*syncResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*m.cfg.Timeout)
	defer cancel()
	url := fmt.Sprintf("%s/v1/cluster/sync?since=%d", m.n.urls[peer], since)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("clusterserve: sync from %s: status %d", peer, resp.StatusCode)
	}
	return decodeSyncPage(resp.Body, since)
}

// errSyncPage marks a sync page that decodes but breaks the paging
// contract.
var errSyncPage = errors.New("clusterserve: malformed sync page")

// decodeSyncPage reads one /v1/cluster/sync page answering a request for
// the entries after since. A page must echo since, set next to since plus
// its entry count, and carry entries whenever it claims more. A page that
// breaks any of these would stall the puller's cursor (a "more" page that
// never advances is refetched forever) or skip commits, so it is refused.
func decodeSyncPage(r io.Reader, since uint64) (*syncResponse, error) {
	var out syncResponse
	if err := json.NewDecoder(io.LimitReader(r, 16<<20)).Decode(&out); err != nil {
		return nil, err
	}
	switch {
	case out.Since != since:
		return nil, fmt.Errorf("%w: asked since=%d, got since=%d", errSyncPage, since, out.Since)
	case out.Next != since+uint64(len(out.Entries)):
		return nil, fmt.Errorf("%w: next=%d after since=%d with %d entries", errSyncPage, out.Next, since, len(out.Entries))
	case out.More && len(out.Entries) == 0:
		return nil, fmt.Errorf("%w: more set on an empty page", errSyncPage)
	}
	return &out, nil
}

// applySynced replays one commit-log entry exactly as a live replicated
// commit would apply: through the per-tenant commit-order guard, under
// commitMu, never re-broadcast. It reports whether the entry actually
// applied — entries already delivered by live replication, or superseded
// by a newer commit, are skipped.
func (n *Node) applySynced(e CommitEntry) (bool, error) {
	applied, rec := n.applyReplicated(e.Stamp, e.Origin, e.Body)
	if rec.status != http.StatusOK {
		return false, fmt.Errorf("clusterserve: replaying synced commit: status %d: %s", rec.status, rec.body.String())
	}
	if applied {
		n.inst.SyncReplayed.Inc()
	}
	return applied, nil
}
