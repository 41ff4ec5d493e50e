package attrserver

import "fairco2/internal/metrics"

// Instruments are the serving-layer metrics for one Server. Every family
// carries a leading `replica` label so several replicas — the cluster
// proxy's normal deployment, and any multi-replica test — can share one
// registry without aliasing each other's counters; the fields here are
// the children (or curried views) already bound to this Server's replica
// value. Families are registered get-or-create, so the second replica on
// a registry reuses the first one's families.
type Instruments struct {
	// Requests counts finished HTTP requests by endpoint and status code
	// (fairco2_attrserver_requests_total{replica,endpoint,code}).
	Requests metrics.CurriedCounterVec
	// CacheHits / CacheMisses count result-cache lookups on the query path.
	CacheHits   *metrics.Counter
	CacheMisses *metrics.Counter
	// CacheEvictions counts entries dropped by the byte-budget LRU or by
	// TTL expiry.
	CacheEvictions *metrics.Counter
	// Coalesced counts queries served by a computation they did not
	// trigger: misses that attached to an already-in-flight computation.
	Coalesced *metrics.Counter
	// Computations counts underlying attribution computations by method —
	// the denominator that proves coalescing works, and, summed across
	// replicas, that cluster routing never computes one query twice
	// (fairco2_attrserver_computations_total{replica,method}).
	Computations metrics.CurriedCounterVec
	// Inflight gauges HTTP requests currently being served.
	Inflight *metrics.Gauge
}

// NewInstruments registers the serving-layer metrics on reg for the
// default replica "0" — the single-process deployment.
func NewInstruments(reg *metrics.Registry) *Instruments {
	return NewReplicaInstruments(reg, "0")
}

// NewReplicaInstruments registers (or joins) the serving-layer metric
// families on reg and binds their children to the given replica label.
func NewReplicaInstruments(reg *metrics.Registry, replica string) *Instruments {
	return &Instruments{
		Requests: reg.GetOrNewCounterVec(
			"fairco2_attrserver_requests_total",
			"Attribution-service HTTP requests finished, by replica, endpoint and status code.",
			"replica", "endpoint", "code").Curry(replica),
		CacheHits: reg.GetOrNewCounterVec(
			"fairco2_attrserver_cache_hits_total",
			"Result-cache lookups answered from the cache.",
			"replica").With(replica),
		CacheMisses: reg.GetOrNewCounterVec(
			"fairco2_attrserver_cache_misses_total",
			"Result-cache lookups that missed (expired or never computed).",
			"replica").With(replica),
		CacheEvictions: reg.GetOrNewCounterVec(
			"fairco2_attrserver_cache_evictions_total",
			"Result-cache entries evicted by the byte-budget LRU or TTL expiry.",
			"replica").With(replica),
		Coalesced: reg.GetOrNewCounterVec(
			"fairco2_attrserver_coalesced_total",
			"Queries served by a computation they did not trigger (in-flight shares).",
			"replica").With(replica),
		Computations: reg.GetOrNewCounterVec(
			"fairco2_attrserver_computations_total",
			"Underlying attribution computations executed, by replica and method.",
			"replica", "method").Curry(replica),
		Inflight: reg.GetOrNewGaugeVec(
			"fairco2_attrserver_inflight",
			"HTTP requests currently in flight.",
			"replica").With(replica),
	}
}
