package attrserver

import (
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzParseQuery drives the query parser and the cluster routing key with
// arbitrary method, period and tenant strings. Parsing never panics; an
// accepted query names a known method, a non-empty period inside the
// schedule and an all-tenants (-1) or valid workload filter; and its key
// is deterministic and agrees with the parsed query.
func FuzzParseQuery(f *testing.F) {
	srv, _ := newTestServer(f, nil, nil)
	for _, seed := range [][3]string{
		{"", "", ""},
		{MethodFairCO2, "0:4", ""},
		{MethodGroundTruth, "1:6", "2"},
		{MethodRUP, "0:8", "3"},
		{MethodDemandProportional, "7:8", "0"},
		{MethodFairCO2, "+1:3", "+0"},
		{"nope", "9:2", "x"},
		{MethodFairCO2, "0:", "-1"},
		{MethodFairCO2, "4:4", "4"},
		{MethodFairCO2, "0:9", ""},
		{MethodFairCO2, "-1:3", ""},
		{"", "", "-2"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	sched := srv.snapshot().sched
	f.Fuzz(func(t *testing.T, method, period, tenant string) {
		// The request is built by hand, in a fixed order: url.Values.Encode
		// (map order) and httptest.NewRequest (pooled buffers) take paths
		// that vary run to run, which the fuzzer reads as new coverage and
		// then stalls minimizing.
		var raw []string
		for _, kv := range [][2]string{{"method", method}, {"period", period}, {"tenant", tenant}} {
			if kv[1] != "" {
				raw = append(raw, kv[0]+"="+url.QueryEscape(kv[1]))
			}
		}
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/attribution", RawQuery: strings.Join(raw, "&")}}
		q, err := srv.parseQuery(r)
		key, keyErr := srv.CanonicalQueryKey(r)
		if (err == nil) != (keyErr == nil) {
			t.Fatalf("parseQuery err %v but CanonicalQueryKey err %v", err, keyErr)
		}
		if err != nil {
			return
		}
		if _, ok := srv.methods[q.method]; !ok {
			t.Fatalf("accepted unknown method %q", q.method)
		}
		if method != "" && q.method != method {
			t.Fatalf("method %q parsed as %q", method, q.method)
		}
		if q.start < 0 || q.start >= q.end || q.end > sched.Slices {
			t.Fatalf("accepted period %d:%d outside [0, %d]", q.start, q.end, sched.Slices)
		}
		if q.tenant != -1 && (q.tenant < 0 || q.tenant >= len(sched.Workloads)) {
			t.Fatalf("accepted tenant %d outside [0, %d)", q.tenant, len(sched.Workloads))
		}
		if want := q.cacheKey(srv.Fingerprint()); key != want {
			t.Fatalf("key %q, want %q", key, want)
		}
		if again, _ := srv.CanonicalQueryKey(r); again != key {
			t.Fatalf("key not deterministic: %q then %q", key, again)
		}
	})
}
