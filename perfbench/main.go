// Command perfbench is the attribution service's serve-path benchmark. It
// starts the real attrserver (and, for cluster-forward, three clusterserve
// replicas) on loopback listeners, drives one seeded open-loop traffic mix
// through them over HTTP, checks every answer against the library's
// attribution engines, and prints one JSON result line.
//
//	go build -o perfbench . && ./perfbench -workload hot-dashboard -seed 1 -seconds 12 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the timed phase is split into an untraced and a traced half, and the
// result carries the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"fairco2/internal/attrserver"
	"fairco2/internal/metrics"
)

// spanDir is where traced runs write their spans, under the checkout the
// benchmark runs in.
var spanDir = filepath.Join(".bench_build", "spans")

// setupReps is how many times a run builds the fixture for its seed;
// setup_s is the median, and the last fixture serves the load.
const setupReps = 101

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "traffic mix: hot-dashboard, cold-sweep, whatif-commit or cluster-forward")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 12, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	wl, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("-seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run sets the fixture up, warms it, plays the timed phases, checks every
// answer and gathers the metrics.
func run(wl *workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	idle := runtime.NumGoroutine()
	setups := make([]float64, setupReps)
	var f *fixture
	for i := range setups {
		// Let the previous fixture's goroutines end and collect its
		// garbage first, so no set-up pays for another's.
		if f != nil {
			f.close()
			if err := settle(idle); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		fx, err := setup(wl, seed, traced)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
		f = fx
	}
	defer f.close()
	if wl.cluster {
		if err := f.waitRouted(); err != nil {
			return nil, err
		}
	}
	g := newGenerator(f.urls[0])
	defer g.close()

	warmOps, draw := wl.plan(f.sched, planRNG(seed))
	warm := &phase{name: "warm", ops: warmOps}
	if err := g.run(warm); err != nil {
		return nil, err
	}

	due := arrivals(arrivalRNG(seed), wl.rate, dur)
	var timed []*phase
	if !traced {
		timed = []*phase{{name: "timed", ops: timedOps(due, draw)}}
	} else {
		half := dur / 2
		cut := sort.Search(len(due), func(i int) bool { return due[i] >= half })
		rest := append([]time.Duration(nil), due[cut:]...)
		for i := range rest {
			rest[i] -= half
		}
		timed = []*phase{
			{name: "untraced", ops: timedOps(due[:cut], draw)},
			{name: "traced", ops: timedOps(rest, draw), traced: true},
		}
	}
	measured := timed[len(timed)-1]
	var before, after registrySnapshot
	var heapMB float64
	for _, p := range timed {
		if p.traced {
			g.tracer = newTracer(time.Now(), 4*len(p.ops))
			for i, sw := range f.switches {
				sw.use(g.tracer.wrap(strconv.Itoa(i), sw.plain))
			}
		}
		if p == measured {
			before = snapshotRegistry(f.reg)
		}
		if err := g.run(p); err != nil {
			return nil, err
		}
		if p == measured {
			after = snapshotRegistry(f.reg)
		}
		if p.traced {
			for _, sw := range f.switches {
				sw.use(sw.plain)
			}
		}
	}
	if !traced {
		h, err := serverHeapMB(f, g, idle)
		if err != nil {
			return nil, err
		}
		heapMB = h
	}

	phases := append([]*phase{warm}, timed...)
	orc := newOracle(f.sched)
	verdicts, err := verify(g, orc, phases)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for i, p := range phases {
		c := countPhase(p, verdicts[i])
		report(wl, p, c)
		printed := 0
		for j := range p.ops {
			if err := opFailure(&p.out[j], verdicts[i][j]); err != nil && printed < maxReported {
				reportWrong(p, j, err)
				printed++
			}
		}
		res.Attempted += c.attempted
		res.Failed += c.failed()
	}
	if wl.cluster {
		mismatches, err := compareSingleNode(f, g, phases)
		if err != nil {
			return nil, err
		}
		res.Failed += mismatches
	}
	res.Correct = res.Failed == 0

	if !traced {
		lat := latencies(measured, isAny)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["p50_ms"] = metric{quantile(lat, 0.50), "ms"}
		res.Metrics["cpu_us_per_op"] = metric{us(measured.cpu) / float64(max(1, completed(measured))), "us"}
		res.Metrics["live_heap_mb"] = metric{heapMB, "MB"}
		return res, nil
	}
	l := &layers{f: f, ref: timed[0], p: measured, v: verdicts[len(verdicts)-1], t: g.tracer, before: before, after: after, out: res.Metrics}
	if err := l.compute(); err != nil {
		return nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
	if err := g.tracer.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return res, nil
}

// serverHeapMB is the heap the fixture's servers retain after the timed
// phase: the live heap with the fixture, minus the live heap once it is
// released and every goroutine it started has ended. The generator's
// records and the bodies kept for the checks are live in both readings,
// so they cancel out. The benchmark's own connections are closed before
// the first reading, as what they hold depends on how many the benchmark
// opens. idle is the goroutine count before any set-up.
func serverHeapMB(f *fixture, g *generator, idle int) (float64, error) {
	g.close()
	controlClient.CloseIdleConnections()
	quiesce()
	with := liveHeap()
	f.release()
	if err := settle(idle); err != nil {
		return 0, err
	}
	return float64(int64(with)-int64(liveHeap())) / (1 << 20), nil
}

// quiesce waits until the goroutine count has not changed for 20 ms, so
// connections just closed are torn down at both ends.
func quiesce() {
	n, since := runtime.NumGoroutine(), time.Now()
	for deadline := since.Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		} else if time.Since(since) >= 20*time.Millisecond {
			return
		}
	}
}

// settle waits until no more than idle goroutines run, that is until
// every goroutine a closed fixture started has ended.
func settle(idle int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running 5s after the fixture closed, %d before set-up", runtime.NumGoroutine(), idle)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// verdict is the answer check of one op.
type verdict struct {
	resp *response // nil unless the op returned 200 with a parsable body
	exp  *expected // the oracle answer it matched
	err  error     // a wrong answer
}

// verify checks every answer of every phase. Commits are replayed into
// the oracle first, in write order, so each read can be checked against
// the committed states it may have observed.
func verify(g *generator, orc *oracle, phases []*phase) ([][]verdict, error) {
	type parsedBody struct {
		r   *response
		err error
	}
	parsed := map[int32]parsedBody{}
	parse := func(ix int32) (*response, error) {
		pb, ok := parsed[ix]
		if !ok {
			pb.r, pb.err = parseResponse(g.bodies[ix])
			parsed[ix] = pb
		}
		return pb.r, pb.err
	}
	for _, p := range phases {
		for i := range p.ops {
			o, out := &p.ops[i], &p.out[i]
			if o.kind == opCommit && out.status == http.StatusOK {
				if out.stateLo != len(orc.states)-1 {
					return nil, fmt.Errorf("commit %d applied to state %d, oracle is at %d", o.c.seq, out.stateLo, len(orc.states)-1)
				}
				orc.commit(o.c)
			}
		}
	}
	all := make([][]verdict, len(phases))
	for pi, p := range phases {
		vs := make([]verdict, len(p.ops))
		for i := range p.ops {
			o, out, v := &p.ops[i], &p.out[i], &vs[i]
			if out.status != http.StatusOK || out.body < 0 {
				continue
			}
			r, err := parse(out.body)
			if err != nil {
				v.err = err
				continue
			}
			v.resp = r
			if o.kind != opRead {
				e, err := orc.whatIf(out.stateLo, o.c)
				if err != nil {
					return nil, err
				}
				v.exp, v.err = e, checkWrite(o, r, e)
				continue
			}
			for st := out.stateLo; st <= min(out.stateHi, len(orc.states)-1); st++ {
				e, err := orc.answer(st, key{o.q.method, o.q.start, o.q.end})
				if err != nil {
					return nil, err
				}
				if v.err = checkRead(o.q, r, e); v.err == nil {
					v.exp = e
					break
				}
			}
		}
		all[pi] = vs
	}
	return all, nil
}

// phaseCounts is the generator's account of one phase.
type phaseCounts struct {
	attempted, sent, ok, refused, timedOut, errored, wrong int
	lateP50, lateP99                                       float64
}

func (c phaseCounts) failed() int { return c.attempted - c.ok + c.wrong }

func countPhase(p *phase, vs []verdict) phaseCounts {
	c := phaseCounts{attempted: len(p.ops)}
	var late []float64
	for i := range p.out {
		out := &p.out[i]
		if !out.sent.IsZero() {
			c.sent++
			late = append(late, ms(out.sent.Sub(p.start.Add(p.ops[i].due))))
		}
		switch {
		case out.status == http.StatusOK:
			c.ok++
			if vs[i].err != nil {
				c.wrong++
			}
		case out.status == http.StatusTooManyRequests || out.status == http.StatusServiceUnavailable:
			c.refused++
		case out.sent.IsZero() || isTimeout(out.err):
			c.timedOut++
		default:
			c.errored++
		}
	}
	if len(late) > 0 {
		c.lateP50, c.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	}
	return c
}

var timeoutRE = regexp.MustCompile(`(?i)timeout|deadline exceeded|timed out`)

func isTimeout(err string) bool { return err != "" && timeoutRE.MatchString(err) }

// report prints the phase's generator account to standard error.
func report(wl *workload, p *phase, c phaseCounts) {
	fmt.Fprintf(os.Stderr, "%s %-8s attempted=%d sent=%d ok=%d failed=%d refused=%d timed_out=%d wrong=%d late_p50_ms=%.3f late_p99_ms=%.3f conns=%d\n",
		wl.name, p.name, c.attempted, c.sent, c.ok, c.errored, c.refused, c.timedOut, c.wrong, c.lateP50, c.lateP99, connections())
}

// maxReported caps the failures printed per phase.
const maxReported = 20

// opFailure describes why an op failed, or returns nil if it succeeded.
func opFailure(out *outcome, v verdict) error {
	switch {
	case out.err != "":
		return errors.New(out.err)
	case out.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", out.status, out.bodyText)
	}
	return v.err
}

// reportWrong prints one failed check.
func reportWrong(p *phase, i int, err error) {
	o := &p.ops[i]
	fmt.Fprintf(os.Stderr, "perfbench: %s op %d %s %s: %v\n", p.name, i, o.uri, o.body, err)
}

// latencies lists done-due in ms for the ops keep selects; an op that
// did not answer 200 counts as taking the whole client timeout.
func latencies(p *phase, keep func(*op) bool) []float64 {
	var out []float64
	for i := range p.ops {
		if !keep(&p.ops[i]) {
			continue
		}
		o := &p.out[i]
		if o.status != http.StatusOK {
			out = append(out, ms(drainLimit))
			continue
		}
		out = append(out, ms(o.done.Sub(p.start.Add(p.ops[i].due))))
	}
	return out
}

func isAny(*op) bool     { return true }
func isWrite(o *op) bool { return o.kind != opRead }

func completed(p *phase) int {
	n := 0
	for i := range p.out {
		if p.out[i].status == http.StatusOK {
			n++
		}
	}
	return n
}

var computedAtRE = regexp.MustCompile(`"computed_at":"[^"]*"`)

// compareSingleNode checks every distinct cluster answer against the one
// a standalone attrserver over the same schedule renders for the same
// request, ignoring computed_at. It returns the number of mismatches.
func compareSingleNode(f *fixture, g *generator, phases []*phase) (int, error) {
	cfg := attrserver.DefaultConfig()
	cfg.Schedule = f.sched
	cfg.Budget = budget
	cfg.Replica = "reference"
	ref, err := attrserver.New(cfg, metrics.NewRegistry())
	if err != nil {
		return 0, err
	}
	type answered struct {
		p    *phase
		i    int
		body int32
	}
	var todo []answered
	seen := map[string]int32{}
	for _, p := range phases {
		for i := range p.ops {
			o, out := &p.ops[i], &p.out[i]
			if o.kind != opRead || out.status != http.StatusOK {
				continue
			}
			if prev, ok := seen[o.uri]; ok && prev == out.body {
				continue
			}
			seen[o.uri] = out.body
			todo = append(todo, answered{p, i, out.body})
		}
	}
	// The reference computes each key once; a small pool overlaps the
	// computations' batch waits.
	h := ref.Handler()
	wrong := make([]error, len(todo))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < compareWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				a := todo[k]
				req, err := http.NewRequest(http.MethodGet, a.p.ops[a.i].uri, nil)
				if err != nil {
					wrong[k] = err
					continue
				}
				rec := &recorder{header: http.Header{}}
				h.ServeHTTP(rec, req)
				want := computedAtRE.ReplaceAll(rec.body, nil)
				got := computedAtRE.ReplaceAll(g.bodies[a.body], nil)
				if rec.code != http.StatusOK || !bytes.Equal(want, got) {
					wrong[k] = fmt.Errorf("cluster answer differs from the single-node answer %q", want)
				}
			}
		}()
	}
	for k := range todo {
		work <- k
	}
	close(work)
	wg.Wait()
	mismatches := 0
	for k, err := range wrong {
		if err != nil {
			if mismatches < maxReported {
				reportWrong(todo[k].p, todo[k].i, err)
			}
			mismatches++
		}
	}
	return mismatches, nil
}

// compareWorkers bounds the single-node comparison's concurrency.
const compareWorkers = 16

// recorder is a minimal in-memory ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   []byte
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, b...)
	return len(b), nil
}
