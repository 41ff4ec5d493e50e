package clusterserve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"time"

	"fairco2/internal/resilience"
)

// HeaderHedge marks a forwarded request that was re-routed off the ring
// owner — a hedge past a slow owner or a failover past a dead one. The
// receiving replica serves it locally even when its own ring disagrees
// about ownership: during a membership change replicas briefly hold
// different rings, and bouncing 421s between them would fail requests
// that either side could answer. HeaderForwarded still rides along, so
// hedged work is never re-forwarded — the loop guard holds.
const HeaderHedge = "X-FairCO2-Hedge"

// HedgeConfig tunes hedged forwarding. Zero values select the defaults.
type HedgeConfig struct {
	// Successors is how many ring successors beyond the owner a request
	// may fail over to (default 2).
	Successors int
	// LatencyBudget is how long to wait on the owner before hedging a
	// read to the next successor (default 150ms). Reads are idempotent,
	// so the hedge races the owner and the first answer wins.
	LatencyBudget time.Duration
	// Breaker tunes the per-peer circuit breakers that fast-fail
	// forwarding to a peer that keeps erroring. The zero value selects
	// cluster defaults (3 failures open, 1s probe interval) rather than
	// the resilience package's signal-poller defaults.
	Breaker resilience.BreakerConfig
	// Backoff shapes the pause before each delta failover attempt —
	// writes retry sequentially, never raced (default 10ms base, 250ms
	// cap).
	Backoff resilience.Backoff
	// Seed makes the backoff jitter deterministic (default 1).
	Seed int64
}

func (c HedgeConfig) withDefaults() HedgeConfig {
	if c.Successors < 1 {
		c.Successors = 2
	}
	if c.LatencyBudget <= 0 {
		c.LatencyBudget = 150 * time.Millisecond
	}
	if c.Breaker.FailureThreshold == 0 {
		c.Breaker.FailureThreshold = 3
	}
	if c.Breaker.ProbeInterval == 0 {
		c.Breaker.ProbeInterval = time.Second
	}
	if c.Backoff.Base == 0 {
		c.Backoff.Base = 10 * time.Millisecond
	}
	if c.Backoff.Cap == 0 {
		c.Backoff.Cap = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// nextDelay draws one backoff delay under the node's rng lock
// (math/rand.Rand is unsynchronized and requests are concurrent).
func (n *Node) nextDelay(prev time.Duration) time.Duration {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.hedge.Backoff.Next(n.rnd, prev)
}

// forwardRequest builds the outbound copy of r aimed at peer. hedged
// attempts carry HeaderHedge so the receiver serves them without an
// ownership check.
func (n *Node) forwardRequest(ctx context.Context, r *http.Request, peer string, body []byte, hedged bool) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, n.urls[peer]+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderForwarded, n.id)
	if hedged {
		req.Header.Set(HeaderHedge, "1")
	}
	for _, h := range []string{HeaderTenant, "Content-Type", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return req, nil
}

// forwardHedged relays an idempotent read toward key's owner with hedged
// failover: the owner gets LatencyBudget to answer; past it (or on owner
// error / open breaker) the next ring successor is raced, and the first
// usable response streams through. It reports false — the caller computes
// locally — only when every candidate failed.
func (n *Node) forwardHedged(w http.ResponseWriter, r *http.Request, ring *Ring, key string, body []byte) bool {
	var cbuf [8]string
	cands := ring.Successors(key, 1+n.hedge.Successors, cbuf[:0])

	type outcome struct {
		peer string
		resp *http.Response
		err  error
	}
	results := make(chan outcome, len(cands))
	cancels := make([]context.CancelFunc, 0, len(cands))
	pending, next := 0, 0

	// launch starts the next viable candidate; the first is the ring
	// owner (plain forward), later ones are hedges.
	launch := func() bool {
		for next < len(cands) {
			idx := next
			peer := cands[idx]
			next++
			if peer == n.id {
				// Our own replica is the next successor: stop walking so
				// the caller's local fallback takes over once any attempts
				// already in flight conclude.
				next = len(cands)
				return false
			}
			if br := n.breakers[peer]; br != nil && br.Allow() != nil {
				n.inst.Failovers.Inc()
				continue
			}
			ctx, cancel := context.WithCancel(r.Context())
			req, err := n.forwardRequest(ctx, r, peer, body, idx > 0)
			if err != nil {
				cancel()
				continue
			}
			cancels = append(cancels, cancel)
			pending++
			go func(peer string) {
				resp, err := n.client.Do(req)
				results <- outcome{peer, resp, err}
			}(peer)
			return true
		}
		return false
	}

	defer func() {
		// Cancel losers and reap their responses off the buffered channel
		// without holding up this response.
		for _, c := range cancels {
			c()
		}
		if pending > 0 {
			go func(pending int) {
				for i := 0; i < pending; i++ {
					if o := <-results; o.resp != nil {
						io.Copy(io.Discard, o.resp.Body)
						o.resp.Body.Close()
					}
				}
			}(pending)
		}
	}()

	if !launch() {
		return false
	}
	timer := time.NewTimer(n.hedge.LatencyBudget)
	defer timer.Stop()
	for pending > 0 {
		select {
		case o := <-results:
			pending--
			br := n.breakers[o.peer]
			if o.err == nil && o.resp.StatusCode != http.StatusMisdirectedRequest {
				if br != nil {
					br.Success()
				}
				n.inst.Forwards.With(o.peer).Inc()
				streamResponse(w, o.resp)
				o.resp.Body.Close()
				return true
			}
			if o.resp != nil {
				// A 421: the peer is healthy, just disagrees about the
				// ring; record breaker success and re-route.
				io.Copy(io.Discard, o.resp.Body)
				o.resp.Body.Close()
				if br != nil {
					br.Success()
				}
			} else if br != nil && r.Context().Err() == nil {
				br.Failure()
			}
			n.inst.Failovers.Inc()
			if !launch() && pending == 0 {
				return false
			}
		case <-timer.C:
			if launch() {
				n.inst.Hedges.Inc()
				timer.Reset(n.hedge.LatencyBudget)
			}
		}
	}
	return false
}

// forwardDelta relays a demand delta toward peer, reporting true when a
// response (any status but 421) streamed through. Unlike reads, deltas
// fail over sequentially — forwardDeltaHedged never races two copies of a
// commit, it moves on only after an attempt concludes.
func (n *Node) forwardDelta(w http.ResponseWriter, r *http.Request, peer string, body []byte, hedged bool) bool {
	br := n.breakers[peer]
	req, err := n.forwardRequest(r.Context(), r, peer, body, hedged)
	if err != nil {
		return false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		if br != nil && r.Context().Err() == nil {
			br.Failure()
		}
		return false
	}
	defer resp.Body.Close()
	if br != nil {
		br.Success()
	}
	if resp.StatusCode == http.StatusMisdirectedRequest {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	n.inst.Forwards.With(peer).Inc()
	streamResponse(w, resp)
	return true
}

// forwardDeltaHedged walks key's successor list sequentially: the owner
// first, then — after a short decorrelated pause — each fallback with the
// hedge header set, so the receiver applies (and replicates) the delta as
// an acting owner. The per-tenant commit order makes a fallback apply
// racing the owner's replication converge to one deterministic winner.
func (n *Node) forwardDeltaHedged(w http.ResponseWriter, r *http.Request, ring *Ring, key string, body []byte) bool {
	var cbuf [8]string
	cands := ring.Successors(key, 1+n.hedge.Successors, cbuf[:0])
	prev := time.Duration(0)
	for idx, peer := range cands {
		if peer == n.id {
			// We are the next successor: act as owner locally. The body
			// already decoded in handleDelta.
			tenant, commit, _ := deltaIntent(body)
			n.applyDelta(w, r, body, tenant, commit)
			return true
		}
		if br := n.breakers[peer]; br != nil && br.Allow() != nil {
			n.inst.Failovers.Inc()
			continue
		}
		if idx > 0 {
			prev = n.nextDelay(prev)
			t := time.NewTimer(prev)
			select {
			case <-r.Context().Done():
				t.Stop()
				return false
			case <-t.C:
			}
		}
		if n.forwardDelta(w, r, peer, body, idx > 0) {
			if idx > 0 {
				n.inst.Failovers.Inc()
			}
			return true
		}
		n.inst.Failovers.Inc()
	}
	return false
}

// deltaIntent decodes the fields of a delta body that routing and commit
// ordering need: the tenant and the commit flag. On error they hold
// whatever decoded, so best-effort callers may still use them.
func deltaIntent(body []byte) (tenant int, commit bool, err error) {
	var req struct {
		Tenant int  `json:"tenant"`
		Commit bool `json:"commit"`
	}
	err = json.Unmarshal(body, &req)
	return req.Tenant, req.Commit, err
}

// streamResponse copies a proxied response — headers, status, body — to w.
func streamResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vv := range resp.Header {
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// newBreakers builds one circuit breaker per peer, publishing transitions
// nowhere (the member-state gauge covers liveness; breakers are a
// fast-path latch between probe intervals).
func newBreakers(urls map[string]string, cfg resilience.BreakerConfig) map[string]*resilience.Breaker {
	out := make(map[string]*resilience.Breaker, len(urls))
	for id := range urls {
		out[id] = resilience.NewBreaker(cfg)
	}
	return out
}

// hedgeRNG seeds the delta-failover backoff stream.
func hedgeRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
