package shapley

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// deltaGame is the test stand-in for the attribution demand-peak game: one
// integer-valued demand vector per player, coalition value = peak of the
// summed member vectors. Integer values make add/remove arithmetic exact,
// so the incremental enumeration contract (bitwise equality to a fresh
// build for any walk order) holds and every comparison below can demand
// Float64bits equality.
type deltaGame struct {
	slices int
	vecs   [][]float64
}

func randomVec(rng *rand.Rand, slices, maxCores int) []float64 {
	vec := make([]float64, slices)
	for t := range vec {
		vec[t] = float64(rng.Intn(maxCores + 1))
	}
	return vec
}

func randomDeltaGame(rng *rand.Rand, n, slices int) *deltaGame {
	g := &deltaGame{slices: slices, vecs: make([][]float64, n)}
	for i := range g.vecs {
		g.vecs[i] = randomVec(rng, slices, 7)
	}
	return g
}

func cloneVecs(vecs [][]float64) [][]float64 {
	out := make([][]float64, len(vecs))
	for i, v := range vecs {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

// plain returns the O(|S| * slices) scratch characteristic function.
func (g *deltaGame) plain() SetFunc {
	return func(mask uint64) float64 {
		peak := 0.0
		for t := 0; t < g.slices; t++ {
			s := 0.0
			for m := mask; m != 0; m &= m - 1 {
				s += g.vecs[bits.TrailingZeros64(m)][t]
			}
			if s > peak {
				peak = s
			}
		}
		return peak
	}
}

// factory returns fresh incremental state per call, like the attribution
// demand-peak game's factory.
func (g *deltaGame) factory() Game {
	return func() (func(int), func(int), func() float64) {
		demand := make([]float64, g.slices)
		add := func(i int) {
			for t, v := range g.vecs[i] {
				demand[t] += v
			}
		}
		remove := func(i int) {
			for t, v := range g.vecs[i] {
				demand[t] -= v
			}
		}
		value := func() float64 {
			peak := 0.0
			for _, d := range demand {
				if d > peak {
					peak = d
				}
			}
			return peak
		}
		return add, remove, value
	}
}

// requireTableBits asserts got == want entry-for-entry at the bit level.
func requireTableBits(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: table length %d != %d", ctx, len(got), len(want))
	}
	for m := range got {
		if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
			t.Fatalf("%s: mask %#x: delta %v (%016x) != scratch %v (%016x)",
				ctx, m, got[m], math.Float64bits(got[m]), want[m], math.Float64bits(want[m]))
		}
	}
}

// TestDeltaTableDifferential is the 200-seed harness the delta engine is
// pinned by: random games, random chained perturbations (single-player,
// multi-player, revert-to-original), random worker counts everywhere, and
// after every apply the wrapped table must equal a scratch rebuild
// Float64bits-exactly — via both a plain and an incremental game —
// with fingerprints matching a freshly wrapped table and stats matching
// the affected-coalition count exactly.
func TestDeltaTableDifferential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		if seed%37 == 0 {
			n = 11 + rng.Intn(3) // a few larger games past one block
		}
		slices := 1 + rng.Intn(6)
		g := randomDeltaGame(rng, n, slices)
		orig := cloneVecs(g.vecs)

		var dt *DeltaTable
		var err error
		if seed%2 == 0 {
			dt, err = NewDeltaTable(n, setGame(g.plain()), 1+rng.Intn(4))
		} else {
			dt, err = NewDeltaTable(n, g.factory(), 1+rng.Intn(4))
		}
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}

		steps := 3 + rng.Intn(3)
		for step := 0; step < steps; step++ {
			var changed uint64
			switch step % 3 {
			case 0: // single-player perturbation
				p := rng.Intn(n)
				g.vecs[p] = randomVec(rng, slices, 7)
				changed = 1 << uint(p)
			case 1: // multi-player perturbation
				for j := 0; j <= rng.Intn(3); j++ {
					p := rng.Intn(n)
					g.vecs[p] = randomVec(rng, slices, 7)
					changed |= 1 << uint(p)
				}
			default: // revert players to their original vectors
				for p := 0; p < n; p++ {
					if rng.Intn(2) == 0 {
						g.vecs[p] = append([]float64(nil), orig[p]...)
						changed |= 1 << uint(p)
					}
				}
				if changed == 0 {
					g.vecs[0] = append([]float64(nil), orig[0]...)
					changed = 1
				}
			}

			var stats DeltaStats
			if step%2 == 0 {
				stats, err = dt.Apply(changed, g.factory(), 1+rng.Intn(4))
			} else {
				stats, err = dt.Apply(changed, setGame(g.plain()), 1+rng.Intn(4))
			}
			if err != nil {
				t.Fatalf("seed %d step %d: apply: %v", seed, step, err)
			}

			scratch, err := buildTable(n, setGame(g.plain()), 1+rng.Intn(3))
			if err != nil {
				t.Fatalf("seed %d step %d: scratch: %v", seed, step, err)
			}
			incr, err := buildTable(n, g.factory(), 1+rng.Intn(3))
			if err != nil {
				t.Fatalf("seed %d step %d: scratch incremental: %v", seed, step, err)
			}
			requireTableBits(t, "delta vs BuildTableParallel", dt.Table(), scratch)
			requireTableBits(t, "delta vs BuildTableIncrementalParallel", dt.Table(), incr)

			// The Shapley reduction over the delta table must match too.
			wantPhi, err := ExactFromTable(n, scratch, 1)
			if err != nil {
				t.Fatalf("seed %d step %d: phi: %v", seed, step, err)
			}
			gotPhi, err := ExactFromTable(n, dt.Table(), 1+rng.Intn(3))
			if err != nil {
				t.Fatalf("seed %d step %d: phi from delta: %v", seed, step, err)
			}
			for i := range wantPhi {
				if math.Float64bits(gotPhi[i]) != math.Float64bits(wantPhi[i]) {
					t.Fatalf("seed %d step %d: phi[%d] %v != %v", seed, step, i, gotPhi[i], wantPhi[i])
				}
			}

			// Fingerprints must equal a freshly wrapped table's.
			fresh := newDeltaFromTable(n, scratch)
			for b, fp := range fresh.BlockFingerprints() {
				if dt.BlockFingerprints()[b] != fp {
					t.Fatalf("seed %d step %d: block %d fingerprint %08x != fresh %08x",
						seed, step, b, dt.BlockFingerprints()[b], fp)
				}
			}

			// Stats invariants: the subcube decomposition touches exactly the
			// coalitions containing a changed player, and every block is
			// either recomputed or skipped.
			if got := stats.BlocksRecomputed + stats.BlocksSkipped; got != dt.Blocks() {
				t.Fatalf("seed %d step %d: recomputed %d + skipped %d != blocks %d",
					seed, step, stats.BlocksRecomputed, stats.BlocksSkipped, dt.Blocks())
			}
			k := bits.OnesCount64(changed)
			wantCoals := 1<<uint(n) - 1<<uint(n-k)
			if stats.Coalitions != wantCoals {
				t.Fatalf("seed %d step %d: %d coalitions re-evaluated, want %d (n=%d, |changed|=%d)",
					seed, step, stats.Coalitions, wantCoals, n, k)
			}
			if stats.BlocksChanged > stats.BlocksRecomputed {
				t.Fatalf("seed %d step %d: changed %d > recomputed %d",
					seed, step, stats.BlocksChanged, stats.BlocksRecomputed)
			}
		}
	}
}

// TestDeltaTableDegenerate covers the degenerate games the differential
// randomness rarely lands on exactly.
func TestDeltaTableDegenerate(t *testing.T) {
	cases := []struct {
		name string
		n    int
		vec  func(i int) []float64
	}{
		{"single-player", 1, func(int) []float64 { return []float64{3, 1} }},
		{"zero-demand", 4, func(int) []float64 { return []float64{0, 0, 0} }},
		{"all-equal-demand", 5, func(int) []float64 { return []float64{2, 2} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &deltaGame{slices: len(tc.vec(0))}
			for i := 0; i < tc.n; i++ {
				g.vecs = append(g.vecs, tc.vec(i))
			}
			dt, err := NewDeltaTable(tc.n, g.factory(), 1)
			if err != nil {
				t.Fatal(err)
			}

			// Re-applying the unchanged game must keep every fingerprint.
			stats, err := dt.Apply(1, g.factory(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if stats.BlocksChanged != 0 {
				t.Errorf("no-op apply changed %d block fingerprints", stats.BlocksChanged)
			}

			// A real perturbation must track the scratch rebuild bit-for-bit.
			g.vecs[0] = make([]float64, g.slices)
			for s := range g.vecs[0] {
				g.vecs[0][s] = float64(5 + s)
			}
			if _, err := dt.Apply(1, setGame(g.plain()), 1); err != nil {
				t.Fatal(err)
			}
			scratch, err := BuildTable(tc.n, g.plain())
			if err != nil {
				t.Fatal(err)
			}
			requireTableBits(t, tc.name, dt.Table(), scratch)
		})
	}
}

// TestDeltaTableWorkerInvariance pins the determinism contract: the same
// delta applied with different worker counts yields identical tables,
// fingerprints and stats.
func TestDeltaTableWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 9
	g := randomDeltaGame(rng, n, 4)
	build := func() *DeltaTable {
		dt, err := NewDeltaTable(n, g.factory(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	base := cloneVecs(g.vecs)
	tables := make([]*DeltaTable, 4)
	statses := make([]DeltaStats, 4)
	for w := 1; w <= 4; w++ {
		g.vecs = cloneVecs(base)
		dt := build()
		g.vecs[2] = []float64{9, 9, 0, 1}
		g.vecs[7] = []float64{0, 0, 0, 0}
		stats, err := dt.Apply(1<<2|1<<7, g.factory(), w)
		if err != nil {
			t.Fatal(err)
		}
		tables[w-1], statses[w-1] = dt, stats
	}
	for w := 1; w < 4; w++ {
		requireTableBits(t, "worker invariance", tables[w].Table(), tables[0].Table())
		for b := range tables[0].BlockFingerprints() {
			if tables[w].BlockFingerprints()[b] != tables[0].BlockFingerprints()[b] {
				t.Fatalf("workers=%d: block %d fingerprint differs", w+1, b)
			}
		}
		if statses[w] != statses[0] {
			t.Fatalf("workers=%d: stats %+v != %+v", w+1, statses[w], statses[0])
		}
	}
}

func TestDeltaTableErrors(t *testing.T) {
	g := randomDeltaGame(rand.New(rand.NewSource(1)), 3, 2)
	dt, err := NewDeltaTable(3, setGame(g.plain()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dt.Apply(1, nil, 1); !errors.Is(err, ErrNilGame) {
		t.Errorf("nil SetFunc: got %v, want ErrNilGame", err)
	}
	if _, err := dt.Apply(1, nil, 2); !errors.Is(err, ErrNilGame) {
		t.Errorf("nil factory: got %v, want ErrNilGame", err)
	}
	for _, workers := range []int{1, 2} {
		if _, err := dt.Apply(1, func() (func(int), func(int), func() float64) {
			return nil, nil, nil
		}, workers); !errors.Is(err, ErrNilGame) {
			t.Errorf("nil triple (workers=%d): got %v, want ErrNilGame", workers, err)
		}
	}
	if _, err := dt.Apply(1<<3, setGame(g.plain()), 1); !errors.Is(err, ErrChangedPlayers) {
		t.Errorf("out-of-range mask: got %v, want ErrChangedPlayers", err)
	}
	if _, err := dt.Apply(1<<40, g.factory(), 1); !errors.Is(err, ErrChangedPlayers) {
		t.Errorf("far out-of-range mask: got %v, want ErrChangedPlayers", err)
	}
	if _, err := NewDeltaTable(0, setGame(g.plain()), 1); !errors.Is(err, ErrNoPlayers) {
		t.Errorf("n=0: got %v, want ErrNoPlayers", err)
	}
	if _, err := NewDeltaTable(MaxExactPlayers+1, setGame(g.plain()), 1); !errors.Is(err, ErrTooManyExactPlayers) {
		t.Errorf("n too large: got %v, want ErrTooManyExactPlayers", err)
	}
	if _, err := NewDeltaTable(3, nil, 1); !errors.Is(err, ErrNilGame) {
		t.Errorf("nil factory at build: got %v, want ErrNilGame", err)
	}

	// A panicking game inside a parallel delta apply must surface as a
	// *WorkerPanicError, like every other parallel entry point.
	if _, err := dt.Apply(1, setGame(func(uint64) float64 { panic("boom") }), 2); !errors.Is(err, ErrWorkerPanic) {
		t.Errorf("panicking game: got %v, want ErrWorkerPanic", err)
	}

	// changed == 0 is a no-op that skips everything.
	before := append([]float64(nil), dt.Table()...)
	stats, err := dt.Apply(0, setGame(g.plain()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksSkipped != dt.Blocks() || stats.BlocksRecomputed != 0 || stats.Coalitions != 0 {
		t.Errorf("no-op apply stats %+v", stats)
	}
	requireTableBits(t, "no-op apply", dt.Table(), before)
}

// TestPeakGameIntoMatchesPeakGame pins the allocation-free peak-game
// solver to the allocating one — including heavy ties, where the insertion
// sort and sort.Slice may order tied players differently but tied peaks
// contribute zero-height increments, so phi is bitwise-identical — and the
// large-n fallback path.
func TestPeakGameIntoMatchesPeakGame(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lengths := []int{1, 2, 7, 16, insertionSortMax, insertionSortMax + 1, 150}
	for _, n := range lengths {
		peaks := make([]float64, n)
		for i := range peaks {
			peaks[i] = float64(rng.Intn(4)) // heavy ties on purpose
		}
		want, err := PeakGame(peaks)
		if err != nil {
			t.Fatal(err)
		}
		phi := make([]float64, n)
		idx := make([]int, n)
		if err := PeakGameInto(peaks, phi, idx); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(phi[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: phi[%d] %v != %v", n, i, phi[i], want[i])
			}
		}
	}
	if err := PeakGameInto(nil, nil, nil); !errors.Is(err, ErrNoPlayers) {
		t.Error("empty peaks accepted")
	}
	if err := PeakGameInto([]float64{1, 2}, make([]float64, 2), make([]int, 1)); !errors.Is(err, ErrScratchSize) {
		t.Error("short idx scratch accepted")
	}
	if err := PeakGameInto([]float64{1, -2}, make([]float64, 2), make([]int, 2)); err == nil {
		t.Error("negative peak accepted")
	}
}

// Zero-alloc pins for the delta hot loops, mirroring internal/stream's
// AllocsPerRun pattern behind the race_on/race_off build tags.

func TestDeltaApplyDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the pin")
	}
	g := randomDeltaGame(rand.New(rand.NewSource(3)), 10, 4)
	dt, err := NewDeltaTable(10, g.factory(), 1)
	if err != nil {
		t.Fatal(err)
	}

	// The factory hands back one preallocated game, reset by the unwind
	// contract between subcubes, so steady-state applies touch no heap.
	add, remove, value := g.factory()()
	factory := func() (func(int), func(int), func() float64) { return add, remove, value }
	avg := testing.AllocsPerRun(100, func() {
		if _, err := dt.Apply(1<<3|1<<8, factory, 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Apply allocates %v times per run, want 0", avg)
	}
}

func TestExactScratchPathsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the pin")
	}
	peaks := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	pphi := make([]float64, len(peaks))
	idx := make([]int, len(peaks))
	avg := testing.AllocsPerRun(100, func() {
		if err := PeakGameInto(peaks, pphi, idx); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("PeakGameInto allocates %v times per run, want 0", avg)
	}
}
