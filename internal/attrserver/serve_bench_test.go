package attrserver

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
)

// BenchmarkServe times one GET /v1/attribution through Server.Handler(),
// recorded by httptest, over the attribution-server daemon's default
// schedule (schedule.Generate with MaxWorkloads 14, seed 1), per method.
// hit answers a warmed key from the cache: parse, lookup, render. miss
// moves the clock past the cache TTL before every request, so each one
// pays the expired lookup, the flight, the engine, the cache insert and
// the render. The engines run serially, so the figure does not depend on
// the host's core count.
func BenchmarkServe(b *testing.B) {
	gen := schedule.DefaultGeneratorConfig()
	gen.MaxWorkloads = 14
	sched, err := schedule.Generate(gen, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"hit", "miss"} {
		for _, method := range []string{MethodRUP, MethodDemandProportional, MethodFairCO2, MethodGroundTruth} {
			b.Run(mode+"/"+method, func(b *testing.B) {
				now := time.Unix(0, 0)
				cfg := DefaultConfig()
				cfg.Schedule = sched
				cfg.Budget = 1e6
				cfg.Parallelism = 1
				cfg.Now = func() time.Time { return now }
				srv, err := New(cfg, metrics.NewRegistry())
				if err != nil {
					b.Fatal(err)
				}
				h := srv.Handler()
				target := "/v1/attribution?method=" + method
				serve := func() {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d: %s", rec.Code, rec.Body)
					}
				}
				serve() // warm the key
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "miss" {
						now = now.Add(cfg.CacheTTL + time.Second)
					}
					serve()
				}
			})
		}
	}
}
