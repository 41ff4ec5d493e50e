package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"fairco2"
	"fairco2/internal/schedule"
)

// expected is the answer the service owes for one key: the engine run on
// the clipped sub-schedule with the prorated budget.
type expected struct {
	ids    []int
	grams  []float64
	budget float64
	took   time.Duration // time spent in fairco2.AttributeSchedule
}

type stateKey struct {
	state int
	k     key
}

type whatIfKey struct {
	state int
	c     change
}

// oracle recomputes answers through the library entry point. states is
// the committed schedule sequence: states[0] is the generated schedule and
// each successful commit appends the schedule it left.
type oracle struct {
	states  []*schedule.Schedule
	answers map[stateKey]*expected
	whatifs map[whatIfKey]*expected
}

func newOracle(s *schedule.Schedule) *oracle {
	return &oracle{states: []*schedule.Schedule{s}, answers: map[stateKey]*expected{}, whatifs: map[whatIfKey]*expected{}}
}

// commit appends the schedule c leaves behind the latest state.
func (o *oracle) commit(c change) {
	o.states = append(o.states, withCores(o.states[len(o.states)-1], c))
}

func withCores(s *schedule.Schedule, c change) *schedule.Schedule {
	n := *s
	n.Workloads = append([]schedule.Workload(nil), s.Workloads...)
	n.Workloads[c.tenant].Cores = c.cores
	return &n
}

// clip restricts s to [start, end): workloads clipped to the window and
// re-numbered densely, with ids mapping back to the original IDs.
func clip(s *schedule.Schedule, start, end int) (*schedule.Schedule, []int) {
	sub := &schedule.Schedule{Slices: end - start, SliceDuration: s.SliceDuration}
	var ids []int
	for _, w := range s.Workloads {
		ws, we := max(w.Start, start), min(w.End(), end)
		if ws >= we {
			continue
		}
		sub.Workloads = append(sub.Workloads, schedule.Workload{ID: len(ids), Cores: w.Cores, Start: ws - start, Duration: we - ws})
		ids = append(ids, w.ID)
	}
	return sub, ids
}

func attribute(method string, s *schedule.Schedule, ids []int, b float64) (*expected, error) {
	t0 := time.Now()
	grams, err := fairco2.AttributeSchedule(method, s, fairco2.GramsCO2e(b))
	took := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s oracle: %w", method, err)
	}
	return &expected{ids: ids, grams: grams, budget: b, took: took}, nil
}

// answer is the expected GET answer for k under committed state st.
func (o *oracle) answer(st int, k key) (*expected, error) {
	sk := stateKey{st, k}
	if e, ok := o.answers[sk]; ok {
		return e, nil
	}
	s := o.states[st]
	sub, ids := clip(s, k.start, k.end)
	e, err := attribute(k.method, sub, ids, float64(budget)*float64(k.end-k.start)/float64(s.Slices))
	if err != nil {
		return nil, err
	}
	o.answers[sk] = e
	return e, nil
}

// whatIf is the expected full-window answer for c applied to state st.
func (o *oracle) whatIf(st int, c change) (*expected, error) {
	wk := whatIfKey{st, change{tenant: c.tenant, cores: c.cores, method: c.method}}
	if e, ok := o.whatifs[wk]; ok {
		return e, nil
	}
	s := withCores(o.states[st], c)
	ids := make([]int, len(s.Workloads))
	for i := range ids {
		ids[i] = i
	}
	e, err := attribute(c.method, s, ids, float64(budget))
	if err != nil {
		return nil, err
	}
	o.whatifs[wk] = e
	return e, nil
}

// response is the wire shape of every answer the benchmark reads.
type response struct {
	Method string `json:"method"`
	Period struct {
		Start int `json:"start"`
		End   int `json:"end"`
	} `json:"period"`
	Budget     float64   `json:"budget_gco2e"`
	ComputedAt time.Time `json:"computed_at"`
	Workloads  []struct {
		ID    int     `json:"id"`
		Grams float64 `json:"gco2e"`
	} `json:"workloads"`
	Shares []struct {
		ID    int     `json:"id"`
		Share float64 `json:"share"`
	} `json:"shares"`
	Billing *struct {
		Price float64 `json:"price_per_tonne_usd"`
		Lines []struct {
			ID    int     `json:"id"`
			Grams float64 `json:"gco2e"`
			USD   float64 `json:"usd"`
		} `json:"lines"`
	} `json:"billing"`
	// Demand-delta responses.
	Committed bool `json:"committed"`
	Workload  *struct {
		ID    int `json:"id"`
		Cores int `json:"cores"`
	} `json:"workload"`
	Delta *struct {
		Coalitions int `json:"shapley_coalitions_reevaluated"`
		Periods    int `json:"temporal_periods_recomputed"`
	} `json:"delta"`
}

func parseResponse(body []byte) (*response, error) {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &r, nil
}

// efficiencyTol is the relative tolerance on Σ grams = budget.
const efficiencyTol = 1e-9

// checkRead verifies a GET answer against e: the same period, budget and
// ID set, every value bitwise equal to the oracle's, all finite and
// non-negative, and an unfiltered answer summing to the budget.
func checkRead(q query, r *response, e *expected) error {
	if r.Method != q.method || r.Period.Start != q.start || r.Period.End != q.end {
		return fmt.Errorf("answer is for %s %d:%d", r.Method, r.Period.Start, r.Period.End)
	}
	if r.Budget != e.budget {
		return fmt.Errorf("budget %v, want %v", r.Budget, e.budget)
	}
	ids, grams := e.ids, e.grams
	if q.tenant >= 0 {
		g := 0.0
		for i, id := range e.ids {
			if id == q.tenant {
				g = e.grams[i]
			}
		}
		ids, grams = []int{q.tenant}, []float64{g}
	}
	total := 0.0
	for _, g := range e.grams {
		total += g
	}
	var gotIDs []int
	var got, want []float64
	switch q.endpoint {
	case "attribution":
		for _, w := range r.Workloads {
			gotIDs, got = append(gotIDs, w.ID), append(got, w.Grams)
		}
		want = grams
	case "share":
		for _, s := range r.Shares {
			gotIDs, got = append(gotIDs, s.ID), append(got, s.Share)
		}
		for _, g := range grams {
			share := 0.0
			if total > 0 {
				share = g / total
			}
			want = append(want, share)
		}
	case "billing":
		if r.Billing == nil {
			return fmt.Errorf("billing answer has no billing object")
		}
		price := r.Billing.Price
		if !(price >= 0) || math.IsInf(price, 0) {
			return fmt.Errorf("price %v", price)
		}
		for i, l := range r.Billing.Lines {
			gotIDs, got = append(gotIDs, l.ID), append(got, l.Grams)
			if i < len(grams) && l.USD != grams[i]/1e6*price {
				return fmt.Errorf("tenant %d: usd %v, want %v", l.ID, l.USD, grams[i]/1e6*price)
			}
		}
		want = grams
	}
	if err := sameValues(gotIDs, got, ids, want); err != nil {
		return err
	}
	if q.tenant < 0 && q.endpoint != "share" {
		if err := efficient(got, r.Budget); err != nil {
			return err
		}
	}
	return nil
}

// checkWrite verifies a demand-delta answer against e, the oracle's full
// recompute of the changed schedule.
func checkWrite(o *op, r *response, e *expected) error {
	if r.Method != o.c.method || r.Committed != (o.kind == opCommit) {
		return fmt.Errorf("answer is %s committed=%t", r.Method, r.Committed)
	}
	if r.Workload == nil || r.Workload.ID != o.c.tenant || r.Workload.Cores != o.c.cores {
		return fmt.Errorf("answer echoes workload %+v", r.Workload)
	}
	if r.Delta == nil {
		return fmt.Errorf("answer has no delta stats")
	}
	if r.Budget != e.budget {
		return fmt.Errorf("budget %v, want %v", r.Budget, e.budget)
	}
	var ids []int
	var got []float64
	for _, w := range r.Workloads {
		ids, got = append(ids, w.ID), append(got, w.Grams)
	}
	if err := sameValues(ids, got, e.ids, e.grams); err != nil {
		return err
	}
	return efficient(got, r.Budget)
}

func sameValues(gotIDs []int, got []float64, wantIDs []int, want []float64) error {
	if len(gotIDs) != len(wantIDs) {
		return fmt.Errorf("%d workloads, want %d", len(gotIDs), len(wantIDs))
	}
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] {
			return fmt.Errorf("workload %d has ID %d, want %d", i, gotIDs[i], wantIDs[i])
		}
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) || got[i] < 0 {
			return fmt.Errorf("tenant %d: value %v is not finite and non-negative", gotIDs[i], got[i])
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("tenant %d: %v, oracle %v", gotIDs[i], got[i], want[i])
		}
	}
	return nil
}

// efficient checks Σ values = budget within efficiencyTol.
func efficient(vals []float64, b float64) error {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if math.Abs(sum-b) > efficiencyTol*math.Abs(b) {
		return fmt.Errorf("values sum to %v, budget %v", sum, b)
	}
	return nil
}
