package main

import (
	"bytes"
	"context"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opKind separates reads from the two kinds of demand delta.
type opKind uint8

const (
	opRead opKind = iota
	opWhatIf
	opCommit
)

// query is what a GET asks for; the answer check recomputes it.
type query struct {
	endpoint   string // attribution | share | billing
	method     string
	start, end int
	tenant     int // -1 = all tenants
}

// change is what a POST /v1/demand/delta asks for.
type change struct {
	tenant, cores int
	method        string
	seq           int // position among the phase's writes
}

// op is one scheduled request of a phase.
type op struct {
	due  time.Duration // offset from the phase start
	kind opKind
	uri  string // request URI (path and query)
	body []byte // POST body; nil for GET
	q    query
	c    change
}

// outcome records what happened to one op.
type outcome struct {
	sent, done time.Time // zero sent: never sent (timed out in the queue)
	status     int
	err        string
	body       int32  // index into the generator's body table; -1 if none
	size       int    // body length
	bodyText   string // the body of a non-200 answer, for the failure report
	// stateLo and stateHi bound the committed schedule states the answer
	// may reflect: the commits finished when the request was sent, and
	// those finished or in flight when its answer arrived. For a write,
	// stateLo is the state it applied to and stateHi the state it left.
	stateLo, stateHi int
}

// phase is one run of ops against the entry server, open-loop.
type phase struct {
	name   string
	ops    []op
	out    []outcome
	start  time.Time
	traced bool
	// cpu and rt are the process CPU time and runtime counters over the
	// phase.
	cpu time.Duration
	rt  runtimeCounters
}

// headerRequestID carries the benchmark's request ID in traced phases so
// the handler span can be joined to the client span.
const headerRequestID = "X-Bench-Request"

// drainLimit is the client timeout, and how long past its due time an op
// may still be sent; a later one counts as timed out.
const drainLimit = 10 * time.Second

// generator plays phases against one entry URL from a fixed pool of
// workers, each holding one keep-alive connection.
type generator struct {
	base    string
	clients []*http.Client
	tracer  *tracer // set for the traced phase

	// writes go out one at a time in op order, so the committed schedule
	// sequence the answer checks replay is the order the ops were drawn.
	writeMu   sync.Mutex
	writeCond *sync.Cond
	nextWrite int

	committed atomic.Int64 // successful commits so far
	inflight  atomic.Int64 // 1 while a commit is outstanding

	bodyMu sync.Mutex
	bodyIx map[uint64][]int32
	bodies [][]byte
}

// connections is the worker (and so connection) count: at most nproc,
// and at most two.
func connections() int { return min(2, runtime.NumCPU()) }

func newGenerator(base string) *generator {
	g := &generator{base: base, bodyIx: map[uint64][]int32{}}
	g.writeCond = sync.NewCond(&g.writeMu)
	for i := 0; i < connections(); i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: drainLimit,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

// close drops the workers' idle connections.
func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// intern stores one copy of each distinct response body and returns its
// index: a long phase keeps only the bodies it has not seen before.
func (g *generator) intern(b []byte) int32 {
	h := fnv.New64a()
	h.Write(b)
	sum := h.Sum64()
	g.bodyMu.Lock()
	defer g.bodyMu.Unlock()
	for _, ix := range g.bodyIx[sum] {
		if bytes.Equal(g.bodies[ix], b) {
			return ix
		}
	}
	ix := int32(len(g.bodies))
	g.bodies = append(g.bodies, bytes.Clone(b))
	g.bodyIx[sum] = append(g.bodyIx[sum], ix)
	return ix
}

// run plays p. Each worker takes the next op in due order, waits until
// it falls due and sends it, so an op whose due time finds both workers
// busy waits for the first to free up. Latency counts from the due time,
// so a stalled server delays every op queued behind it.
func (g *generator) run(p *phase) error {
	sleepers := make([]*sleeper, len(g.clients))
	for i := range sleepers {
		sl, err := newSleeper()
		if err != nil {
			return err
		}
		defer sl.close()
		sleepers[i] = sl
	}
	p.out = make([]outcome, len(p.ops))
	cpu0 := processCPU()
	rt0 := readRuntime()

	g.nextWrite = 0
	var next atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now()
	for w, c := range g.clients {
		wg.Add(1)
		go func(client *http.Client, sl *sleeper) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.ops) {
					return
				}
				due := p.start.Add(p.ops[i].due)
				if err := sl.until(due); err != nil {
					time.Sleep(time.Until(due))
				}
				g.do(p, client, i)
			}
		}(c, sleepers[w])
	}
	wg.Wait()
	p.cpu = processCPU() - cpu0
	p.rt = readRuntime().sub(rt0)
	return nil
}

// do sends one op and records its outcome.
func (g *generator) do(p *phase, client *http.Client, ix int) {
	o := &p.ops[ix]
	out := &p.out[ix]
	out.body = -1
	if o.kind != opRead {
		g.waitWriteTurn(o)
		defer g.endWriteTurn()
	}
	if time.Since(p.start) > o.due+drainLimit {
		out.err = "timed out in the send queue"
		return
	}
	method, rd := http.MethodGet, io.Reader(nil)
	if o.body != nil {
		method, rd = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, g.base+o.uri, rd)
	if err != nil {
		out.err = err.Error()
		return
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if p.traced {
		req.Header.Set(headerRequestID, strconv.Itoa(ix+1))
	}
	out.stateLo = int(g.committed.Load())
	if o.kind == opCommit {
		g.inflight.Store(1)
	}
	out.sent = time.Now()
	resp, err := client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
	}
	out.done = time.Now()
	if o.kind == opCommit {
		if err == nil && out.status == http.StatusOK {
			g.committed.Add(1)
		}
		g.inflight.Store(0)
	}
	// Load the in-flight flag before the count: a commit finishing in
	// between then widens the range instead of escaping it.
	inflight := g.inflight.Load()
	out.stateHi = int(g.committed.Load() + inflight)
	if err != nil {
		out.err = err.Error()
		return
	}
	out.size = len(body)
	if out.status != http.StatusOK {
		out.bodyText = string(body)
		return
	}
	out.body = g.intern(body)
	if p.traced {
		g.tracer.client(int64(ix+1), out.sent, out.done)
	}
}

// waitWriteTurn blocks until every earlier write of the phase has
// finished; writes are numbered in op order by change.seq.
func (g *generator) waitWriteTurn(o *op) {
	g.writeMu.Lock()
	for g.nextWrite != o.c.seq {
		g.writeCond.Wait()
	}
	g.writeMu.Unlock()
}

func (g *generator) endWriteTurn() {
	g.writeMu.Lock()
	g.nextWrite++
	g.writeMu.Unlock()
	g.writeCond.Broadcast()
}
