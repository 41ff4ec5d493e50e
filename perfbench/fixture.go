package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fairco2/internal/attrserver"
	"fairco2/internal/clusterserve"
	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
)

// budget is the embodied budget in gCO2e over each schedule window, the
// daemon's default.
const budget = 1e6

// fixture is the system under test: one attrserver, or a cluster of
// replicas wired the way the daemon's cluster mode wires them, each on
// its own loopback listener.
type fixture struct {
	sched    *schedule.Schedule
	reg      *metrics.Registry
	servers  []*attrserver.Server
	nodes    []*clusterserve.Node
	https    []*http.Server
	urls     []string         // base URL per replica; urls[0] takes the load
	switches []*handlerSwitch // per replica when traceable, else nil
}

// handlerSwitch lets a traced run put the span-recording wrapper in front
// of a replica's handler for the traced phase only.
type handlerSwitch struct {
	plain http.Handler
	cur   atomic.Value // holds handlerBox
}

type handlerBox struct{ h http.Handler }

func newSwitch(h http.Handler) *handlerSwitch {
	s := &handlerSwitch{plain: h}
	s.use(h)
	return s
}

func (s *handlerSwitch) use(h http.Handler) { s.cur.Store(handlerBox{h}) }

func (s *handlerSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.cur.Load().(handlerBox).h.ServeHTTP(w, r)
}

// clusterReplicas is the cluster-forward replica count.
const clusterReplicas = 3

// setup builds the fixture for wl from seed and returns once the entry
// replica's /healthz answers 200. traceable puts a handler switch in
// front of every replica.
func setup(wl *workload, seed int64, traceable bool) (*fixture, error) {
	sched, err := wl.schedule(seed)
	if err != nil {
		return nil, fmt.Errorf("generating schedule: %w", err)
	}
	f := &fixture{sched: sched, reg: metrics.NewRegistry()}
	n := 1
	if wl.cluster {
		n = clusterReplicas
	}
	lns := make([]net.Listener, n)
	peers := map[string]string{}
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeListeners(lns)
			return nil, err
		}
		f.urls = append(f.urls, "http://"+lns[i].Addr().String())
		peers[strconv.Itoa(i)] = f.urls[i]
	}
	handlers := make([]http.Handler, n)
	for i := range handlers {
		cfg := attrserver.DefaultConfig()
		cfg.Schedule = sched
		cfg.Budget = budget
		cfg.Replica = strconv.Itoa(i)
		srv, err := attrserver.New(cfg, f.reg)
		if err != nil {
			closeListeners(lns)
			return nil, fmt.Errorf("building replica %d: %w", i, err)
		}
		f.servers = append(f.servers, srv)
		handlers[i] = srv.Handler()
		if wl.cluster {
			node, err := clusterserve.New(clusterserve.Config{ReplicaID: cfg.Replica, Peers: peers, Server: srv}, f.reg)
			if err != nil {
				closeListeners(lns)
				return nil, fmt.Errorf("building node %d: %w", i, err)
			}
			f.nodes = append(f.nodes, node)
			handlers[i] = node.Handler()
		}
	}
	for i, ln := range lns {
		h := handlers[i]
		if traceable {
			sw := newSwitch(h)
			f.switches = append(f.switches, sw)
			h = sw
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
		f.https = append(f.https, hs)
		go func(ln net.Listener) { _ = hs.Serve(ln) }(ln) // returns ErrServerClosed at close
	}
	for _, node := range f.nodes {
		node.Start()
	}
	if err := waitHealthy(f.urls[0]); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// close stops the probers and closes every listener and connection; the
// load has finished by then, so there is nothing to drain.
func (f *fixture) close() {
	for _, n := range f.nodes {
		n.Stop()
	}
	for _, hs := range f.https {
		hs.Close()
	}
	controlClient.CloseIdleConnections()
}

// release closes the fixture and drops its servers, nodes, listeners and
// registry, so a garbage collection reclaims all they retain; only the
// schedule, the benchmark's own input, is kept.
func (f *fixture) release() {
	f.close()
	f.servers, f.nodes, f.https, f.switches, f.reg = nil, nil, nil, nil, nil
}

// controlClient serves set-up polls and state reads; the load goes
// through the generator's own connections.
var controlClient = &http.Client{Timeout: 5 * time.Second}

// waitHealthy polls base's /healthz until it answers 200.
func waitHealthy(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := controlClient.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after 10s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitRouted blocks until every replica's active ring holds all the
// replicas, so the load sees the steady-state forwarding pattern.
func (f *fixture) waitRouted() error {
	deadline := time.Now().Add(15 * time.Second)
	for _, u := range f.urls {
		for {
			var info struct {
				Active []string `json:"active"`
			}
			if err := getJSON(u+"/v1/cluster", &info); err == nil && len(info.Active) == len(f.urls) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: cluster ring incomplete after 15s", u)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// cacheStats sums the replicas' cache occupancy from their /healthz.
func (f *fixture) cacheStats() (entries, bytes float64, err error) {
	for _, u := range f.urls {
		var doc struct {
			Cache *struct {
				Entries *float64 `json:"entries"`
				Bytes   *float64 `json:"bytes"`
			} `json:"cache"`
		}
		if err := getJSON(u+"/healthz", &doc); err != nil {
			return 0, 0, err
		}
		if doc.Cache == nil || doc.Cache.Entries == nil || doc.Cache.Bytes == nil {
			return 0, 0, errors.New(u + "/healthz has no cache entries or bytes")
		}
		entries += *doc.Cache.Entries
		bytes += *doc.Cache.Bytes
	}
	return entries, bytes, nil
}

func getJSON(url string, v any) error {
	resp, err := controlClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
