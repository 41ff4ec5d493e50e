// Package attrserver is the online serving layer over the attribution
// engines: a long-lived HTTP service that answers per-tenant attribution,
// share and billing queries against a configured fleet schedule, without
// re-running a batch sweep per question.
//
// The handlers are thin; the substrate does the work:
//
//   - One in-memory result table (cache.go) keyed by the same
//     config-fingerprint machinery the checkpointed sweeps use
//     (internal/checkpoint CRC fingerprints over the schedule, budget,
//     method and period): one map, one LRU list of ready answers under a
//     byte budget, one mutex. Entry TTL is tied to the staleness of the
//     live signal the result was priced against (internal/livesignal's
//     degradation ladder), so a result never outlives the signal that
//     justified it.
//   - Request coalescing in the same table: a miss either attaches to
//     the key's in-flight entry or registers one and leads its
//     computation, in one step under the table lock. N concurrent
//     queries for the same (tenant-set, period, config) key trigger
//     exactly one Shapley computation on the parallel engine; the rest
//     wait for the shared result. The former 5 ms batch window merged
//     only same-key queries, which in-flight entries already merge, so it
//     added latency and nothing else.
//
// Everything is observable: fairco2_attrserver_{requests_total,
// cache_hits_total, cache_misses_total, cache_evictions_total,
// coalesced_total, computations_total, inflight} via
// internal/metrics, plus /metrics and /healthz endpoints.
package attrserver
