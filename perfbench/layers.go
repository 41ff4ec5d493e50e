package main

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"
)

// layers derives the per-layer metrics of a traced run from the traced
// phase p, its spans and answer checks, and the untraced half ref.
type layers struct {
	f             *fixture
	ref, p        *phase
	v             []verdict
	t             *tracer
	before, after registrySnapshot
	out           map[string]metric
}

func (l *layers) set(name, unit string, v float64) { l.out[name] = metric{v, unit} }

// counter reports family's change over the traced phase; a family the
// registry no longer has is left out, not an error. Cluster families read
// 0 on the single-node workloads, which have no cluster layer.
func (l *layers) counter(name, family string) float64 {
	d, ok := l.after.delta(l.before, family)
	if !ok && strings.HasPrefix(family, "fairco2_cluster_") && len(l.f.nodes) == 0 {
		d, ok = 0, true
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: metric family %s absent; %s not reported\n", family, name)
		return 0
	}
	l.set(name, "count", d)
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *layers) compute() error {
	p := l.p
	spans := l.t.byRequest(p.ops)
	vs := l.v
	c := countPhase(p, vs)

	// bench: was the load valid?
	l.set("gen.late_p99_ms", "ms", c.lateP99)
	l.set("gen.sent", "count", float64(c.sent))
	l.set("gen.ok", "count", float64(c.ok))
	l.set("gen.failed", "count", float64(c.errored+c.wrong))
	l.set("gen.refused", "count", float64(c.refused))
	l.set("gen.timed_out", "count", float64(c.timedOut))
	l.set("gen.error_ratio", "ratio", ratio(float64(c.failed()), float64(c.attempted)))
	// Latency percentiles over both halves: enough samples for a p99 with
	// ten beyond it, at the price of the tracing overhead (trace.overhead_ms)
	// on half of them.
	both := append(latencies(l.ref, isAny), latencies(p, isAny)...)
	l.set("gen.p50_ms", "ms", quantile(both, 0.50))
	l.set("gen.p90_ms", "ms", quantile(both, 0.90))
	l.set("gen.p99_ms", "ms", quantile(both, 0.99))
	l.set("trace.overhead_ms", "ms", median(latencies(p, isAny))-median(latencies(l.ref, isAny)))
	l.set("trace.spans", "count", float64(len(l.t.spans)))

	// net/http and attrserver, from the spans.
	var client, transport, hit, miss, missWait, bytes, whatif, commit, hop []float64
	var engineSum, missSum float64
	engine := map[string][]float64{}
	missKeys := map[*expected]bool{}
	var fullReads, fullHits float64
	var coalitions, periods []float64
	for i := range p.ops {
		o, out, v, s := &p.ops[i], &p.out[i], &vs[i], spans[i]
		if out.status != http.StatusOK || v.resp == nil || s.client == nil || s.handler == nil {
			continue
		}
		client = append(client, us(s.client.dur()))
		transport = append(transport, us(s.client.dur()-s.handler.dur()))
		answering := s.handler
		if s.owner != nil {
			answering = s.owner
			hop = append(hop, us(s.handler.dur()-s.owner.dur()))
		}
		switch o.kind {
		case opWhatIf:
			whatif = append(whatif, us(answering.dur()))
		case opCommit:
			commit = append(commit, us(answering.dur()))
		}
		if o.kind != opRead {
			coalitions = append(coalitions, float64(v.resp.Delta.Coalitions))
			periods = append(periods, float64(v.resp.Delta.Periods))
			continue
		}
		bytes = append(bytes, float64(out.size))
		// An answer computed before the request was sent came from the cache.
		isHit := v.resp.ComputedAt.Before(out.sent)
		if o.q.start == 0 && o.q.end == l.f.sched.Slices && out.stateLo > 0 {
			fullReads++
			if isHit {
				fullHits++
			}
		}
		if isHit {
			hit = append(hit, us(answering.dur()))
			continue
		}
		miss = append(miss, us(answering.dur()))
		if v.exp != nil {
			missWait = append(missWait, us(answering.dur()-v.exp.took))
			engineSum += us(v.exp.took)
			missSum += us(answering.dur())
			if !missKeys[v.exp] {
				missKeys[v.exp] = true
				engine[o.q.method] = append(engine[o.q.method], us(v.exp.took))
			}
		}
	}
	l.set("http.client_us", "us", mean(client))
	l.set("http.transport_us", "us", mean(transport))
	l.set("attrserver.parse_us", "us", l.parseMicros())
	l.set("attrserver.hit_us", "us", mean(hit))
	l.set("attrserver.miss_us", "us", mean(miss))
	l.set("attrserver.miss_wait_us", "us", mean(missWait))
	l.set("attrserver.resp_bytes", "bytes", mean(bytes))

	// attrserver cache and coalescing, from the registry and /healthz.
	hits := l.counter("cache.hits", "fairco2_attrserver_cache_hits_total")
	misses := l.counter("cache.misses", "fairco2_attrserver_cache_misses_total")
	l.set("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	l.counter("cache.evictions", "fairco2_attrserver_cache_evictions_total")
	entries, cbytes, err := l.f.cacheStats()
	if err != nil {
		return err
	}
	l.set("cache.entries", "count", entries)
	l.set("cache.bytes", "bytes", cbytes)
	comps := l.counter("coalesce.computations", "fairco2_attrserver_computations_total")
	l.counter("coalesce.coalesced", "fairco2_attrserver_coalesced_total")
	l.set("coalesce.keys_per_computation", "ratio", ratio(float64(len(missKeys)), comps))

	// attribution engines, timed by the answer checks.
	for _, m := range methods {
		l.set("engine."+m+"_us", "us", mean(engine[m]))
	}
	l.set("engine.share", "ratio", ratio(engineSum, missSum))

	// shapley/temporal delta, through the endpoint.
	l.set("delta.whatif_us", "us", mean(whatif))
	l.set("delta.commit_us", "us", mean(commit))
	l.set("delta.coalitions_reevaluated", "count", mean(coalitions))
	l.set("delta.periods_recomputed", "count", mean(periods))
	l.set("delta.post_commit_hit_ratio", "ratio", ratio(fullHits, fullReads))
	writes := latencies(l.ref, isWrite)
	l.set("delta.writes", "count", float64(len(writes)))
	l.set("delta.write_p50_ms", "ms", quantile(writes, 0.50))
	l.set("delta.write_p90_ms", "ms", quantile(writes, 0.90))

	// clusterserve.
	forwards := l.counter("cluster.forwards", "fairco2_cluster_forwards_total")
	l.counter("cluster.local", "fairco2_cluster_local_requests_total")
	l.counter("cluster.shed", "fairco2_cluster_shed_total")
	l.counter("cluster.hedges", "fairco2_cluster_hedges_total")
	l.counter("cluster.forward_errors", "fairco2_cluster_forward_errors_total")
	l.set("cluster.forward_share", "ratio", ratio(forwards, float64(c.sent)))
	l.set("cluster.forward_hop_us", "us", mean(hop))
	l.set("cluster.ring_lookup_ns", "ns", l.ringLookupNanos())

	// Go runtime, over the traced phase.
	done := float64(max(1, completed(p)))
	l.set("runtime.allocs_per_op", "count", float64(p.rt.allocs)/done)
	l.set("runtime.bytes_per_op", "bytes", float64(p.rt.allocBytes)/done)
	l.set("runtime.gc_cycles", "count", float64(p.rt.gcCycles))
	return nil
}

// timingReps repeats the offline entry-point timings so one pass is not
// at the clock's resolution.
const timingReps = 20

// parseMicros times Server.CanonicalQueryKey, the parse the GET
// endpoints run, over the traced phase's read requests.
func (l *layers) parseMicros() float64 {
	reqs := l.readRequests()
	if len(reqs) == 0 {
		return 0
	}
	srv := l.f.servers[0]
	t0 := time.Now()
	for rep := 0; rep < timingReps; rep++ {
		for _, r := range reqs {
			if _, err := srv.CanonicalQueryKey(r); err != nil {
				return 0
			}
		}
	}
	return us(time.Since(t0)) / float64(timingReps*len(reqs))
}

// ringLookupNanos times the entry node's active ring lookup on the traced
// phase's routing keys; 0 without a cluster.
func (l *layers) ringLookupNanos() float64 {
	if len(l.f.nodes) == 0 {
		return 0
	}
	var ks []string
	for _, r := range l.readRequests() {
		if k, err := l.f.servers[0].CanonicalQueryKey(r); err == nil {
			ks = append(ks, k)
		}
	}
	if len(ks) == 0 {
		return 0
	}
	ring := l.f.nodes[0].ActiveRing()
	t0 := time.Now()
	for rep := 0; rep < timingReps; rep++ {
		for _, k := range ks {
			ringSink = ring.Lookup(k)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(timingReps*len(ks))
}

// ringSink keeps the timed lookups from being optimized away.
var ringSink string

// maxTimedRequests bounds the offline timing sample.
const maxTimedRequests = 2000

func (l *layers) readRequests() []*http.Request {
	var out []*http.Request
	for i := range l.p.ops {
		o := &l.p.ops[i]
		if o.kind != opRead || len(out) == maxTimedRequests {
			continue
		}
		r, err := http.NewRequest(http.MethodGet, o.uri, nil)
		if err == nil {
			out = append(out, r)
		}
	}
	return out
}
