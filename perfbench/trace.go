package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// headerForwarded is the cluster wire contract's hop marker: a request
// carrying it was forwarded in by a peer.
const headerForwarded = "X-FairCO2-Forwarded"

// span is one timed interval at a layer boundary. Spans of one request
// share req; a forwarded hop does not carry the benchmark's header, so
// its span has req 0 and is joined to its parent by URI and containment.
type span struct {
	Name    string `json:"name"` // client | handler | owner | engine.<method>
	Req     int64  `json:"req,omitempty"`
	Parent  string `json:"parent,omitempty"`
	Replica string `json:"replica,omitempty"`
	URI     string `json:"uri,omitempty"`
	Start   int64  `json:"start_ns"` // from the traced phase's start
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced phase; write dumps them
// once the run is over.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(origin time.Time, capacity int) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, capacity)}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.origin)) }

// client records the client span of request id.
func (t *tracer) client(id int64, start, end time.Time) {
	t.add(span{Name: "client", Req: id, Start: t.at(start), End: t.at(end)})
}

// wrap times replica's handler: a "handler" span for requests arriving
// from the benchmark, an "owner" span for hops forwarded in by a peer.
func (t *tracer) wrap(replica string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		s := span{Name: "handler", Parent: "client", Replica: replica, Start: t.at(start), End: t.at(end)}
		if r.Header.Get(headerForwarded) != "" {
			s.Name, s.Parent, s.URI = "owner", "handler", r.URL.RequestURI()
		} else {
			s.Req, _ = strconv.ParseInt(r.Header.Get(headerRequestID), 10, 64)
		}
		t.add(s)
	})
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestSpans joins one traced request's spans: its client span, the
// entry handler's span, and for a forwarded request the owner's span.
type requestSpans struct {
	client, handler, owner *span
}

// byRequest joins the spans of ops' requests. An owner span joins the
// request whose entry span has the same URI and contains it.
func (t *tracer) byRequest(ops []op) []requestSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]requestSpans, len(ops))
	owners := map[string][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.Name == "owner":
			owners[s.URI] = append(owners[s.URI], s)
		case s.Req >= 1 && int(s.Req) <= len(ops) && s.Name == "client":
			out[s.Req-1].client = s
		case s.Req >= 1 && int(s.Req) <= len(ops) && s.Name == "handler":
			out[s.Req-1].handler = s
		}
	}
	for i := range out {
		h := out[i].handler
		if h == nil {
			continue
		}
		cands := owners[ops[i].uri]
		for j, s := range cands {
			if s != nil && s.Start >= h.Start && s.End <= h.End {
				out[i].owner = s
				cands[j] = nil
				break
			}
		}
	}
	return out
}
