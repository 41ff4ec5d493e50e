package shapley

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fairco2/internal/checkpoint"
)

// The execution layer. One blocked builder (BuildGameTable) fills every
// coalition table — serial, parallel, checkpointed, and the delta engine's
// initial build — and one player-partitioned reduction (ExactFromTable)
// turns a table into Shapley values; the sampling estimators are sharding +
// reduction wrappers around the serial cores in shapley.go and ordered.go.
//
// Determinism contract:
//
//   - BuildGameTable enumerates a fixed set of gray-code blocks with fresh
//     per-block state, so its table does not depend on the worker count or
//     on where a checkpointed build was interrupted. It equals the
//     per-mask reference BuildTable exactly whenever the game's arithmetic
//     is exact over add/remove (integer-valued demands, or a game that
//     evaluates each mask from scratch), and within FP rounding otherwise.
//   - ExactFromTable partitions PLAYERS (not coalitions) across workers, so
//     every phi[i] accumulates its terms in ascending mask order and the
//     result is bit-for-bit identical for any worker count; one worker is
//     the serial reduction.
//   - The sampling estimators (MonteCarloParallel, SampledOrderedParallel)
//     shard the sample budget across workers, each with an independent rng
//     seeded via WorkerSeeds. Their output is bit-for-bit reproducible for
//     a given (seed, worker count) but intentionally differs between
//     worker counts and from the serial single-stream estimators: all
//     variants are unbiased draws of the same estimator, not the same draw.

// resolveWorkers maps the public Parallelism convention to a concrete
// worker count: values below 1 mean "one worker per available CPU".
func resolveWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// runWorkers runs fn(w) for w in [0, workers) on that many goroutines and
// returns the summed per-worker busy time for the utilization metrics. A
// panicking fn — in practice, a panicking user-supplied characteristic or
// marginals function — is recovered inside its goroutine and converted to a
// *WorkerPanicError carrying the stack, so one bad game fails the solver
// call instead of crashing the whole process (the lowest-indexed panicking
// worker wins; the other workers still run to completion).
func runWorkers(workers int, fn func(w int)) (time.Duration, error) {
	call := func(w int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &WorkerPanicError{Worker: w, Value: r, Stack: debug.Stack()}
			}
		}()
		fn(w)
		return nil
	}
	if workers == 1 {
		start := time.Now()
		err := call(0)
		return time.Since(start), err
	}
	panics := make([]error, workers)
	var busy atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			panics[w] = call(w)
			busy.Add(int64(time.Since(start)))
		}(w)
	}
	wg.Wait()
	for _, err := range panics {
		if err != nil {
			return time.Duration(busy.Load()), err
		}
	}
	return time.Duration(busy.Load()), nil
}

// Game is an incremental characteristic function: each call returns fresh,
// independent state for the empty coalition, where add(i) joins player i,
// remove(i) drops it and value() is the current coalition's value. A
// caller whose value is expensive from scratch (the peak of a summed
// demand curve) pays only O(update) per coalition, and the builders take
// one fresh state per block or worker, so concurrent blocks never share
// it.
type Game func() (add, remove func(player int), value func() float64)

// tablePrefixBits fixes the number of gray-code blocks a coalition table is
// enumerated in: 2^6 = 64 blocks load-balance well past any realistic CPU
// count while keeping the per-block setup cost (O(n) adds and one fresh
// state) negligible against the 2^(n-6) coalitions inside. Block b covers
// the masks whose high bits equal b, so every builder, the checkpoint
// snapshots and the delta fingerprints share one decomposition.
const tablePrefixBits = 6

// tableBlocks returns the block decomposition of an n-player table: low
// free bits per block and the block count.
func tableBlocks(n int) (low, blocks int) {
	prefix := min(n, tablePrefixBits)
	return n - prefix, 1 << uint(prefix)
}

// BuildGameTable evaluates g over all 2^n coalitions into a dense table
// indexed by bitmask. The mask range is split into a fixed number of blocks
// by their high bits; each block is enumerated with fresh state from g —
// the block's fixed players added once, then the remaining players walked
// in gray-code order so every step toggles exactly one player. The block
// count does not depend on workers (<= 0 selects one per CPU, 1 is the
// serial build), so the table is identical for any worker count.
//
// ctx is checked between blocks. A zero ck builds in memory; an enabled ck
// flushes finished blocks to the checkpoint store every ck.Every blocks,
// and a restart recomputes only the missing ones. The snapshot records
// only the player count, not the game itself — resuming against a
// different game silently builds a mixed table, so callers must key the
// checkpoint directory to the game (the CLIs use one directory per run
// configuration).
func BuildGameTable(ctx context.Context, n int, g Game, workers int, ck checkpoint.Spec) ([]float64, error) {
	if err := checkExactN(n); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, ErrNilGame
	}
	low, blocks := tableBlocks(n)
	table := make([]float64, 1<<uint(n))
	workers = min(resolveWorkers(workers), blocks)
	if ck.Enabled() {
		return buildCheckpointed(ctx, n, g, workers, ck, table)
	}
	// A static split, not checkpoint.RunUnits: its per-block channel
	// handoff costs more than a small table's whole build.
	start := time.Now()
	errs := make([]error, workers)
	busy, panicErr := runWorkers(workers, func(w int) {
		blo, bhi := blockRange(blocks, workers, w)
		for b := blo; b < bhi && errs[w] == nil; b++ {
			if errs[w] = ctx.Err(); errs[w] == nil {
				errs[w] = enumerateBlock(low, b, g, table)
			}
		}
	})
	if panicErr != nil {
		return nil, panicErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	metricExactCoalitions.Add(float64(len(table)))
	observeParallel("build-table", workers, time.Since(start), busy)
	return table, nil
}

// enumerateBlock fills the coalition table for the masks whose high bits
// equal b: fresh state from g, the block's fixed players added once, then a
// gray-code walk over the low players — gray(j) and gray(j+1) differ in bit
// TrailingZeros(j+1), so each coalition after the first costs one add or
// remove plus one value().
func enumerateBlock(low, b int, g Game, table []float64) error {
	add, remove, value := g()
	if add == nil || remove == nil || value == nil {
		return ErrNilGame
	}
	high := uint64(b) << uint(low)
	for rest := high; rest != 0; rest &= rest - 1 {
		add(bits.TrailingZeros64(rest))
	}
	gray := uint64(0)
	table[high] = value()
	for j := uint64(1); j < 1<<uint(low); j++ {
		bit := uint(bits.TrailingZeros64(j))
		if gray&(1<<bit) == 0 {
			add(int(bit))
		} else {
			remove(int(bit))
		}
		gray ^= 1 << bit
		table[high|gray] = value()
	}
	return nil
}

// ExactFromTable computes exact Shapley values from a dense table of
// coalition values indexed by bitmask (len(table) must be 2^n):
//
//	phi_i = sum over S not containing i of
//	        |S|! (n-|S|-1)! / n!  *  (v(S u {i}) - v(S))
//
// The PLAYERS are partitioned across workers (<= 0 selects one per CPU):
// each worker scans the whole table in ascending mask order but accumulates
// only its players' marginals, so every phi[i] sums its terms in the same
// order for any worker count and the result is bit-for-bit identical.
func ExactFromTable(n int, table []float64, workers int) ([]float64, error) {
	if err := checkExactN(n); err != nil {
		return nil, err
	}
	if len(table) != 1<<uint(n) {
		return nil, fmt.Errorf("shapley: table has %d entries, want 2^%d: %w", len(table), n, ErrTableSize)
	}
	start := time.Now()
	workers = min(resolveWorkers(workers), n)
	// w[s] = s!(n-s-1)!/n! = 1 / (n * C(n-1, s)).
	w := make([]float64, n)
	for s := 0; s < n; s++ {
		w[s] = 1 / (float64(n) * binomial(n-1, s))
	}
	phi := make([]float64, n)
	full := uint64(1)<<uint(n) - 1
	busy, err := runWorkers(workers, func(wk int) {
		plo, phiHi := blockRange(n, workers, wk)
		// The worker's players as a bitmask, so the inner loop can skip
		// masks that already contain all of them.
		var mine uint64
		for p := plo; p < phiHi; p++ {
			mine |= 1 << uint(p)
		}
		for mask := uint64(0); mask <= full; mask++ {
			rest := ^mask & full & mine
			if rest == 0 {
				continue
			}
			vs := table[mask]
			weight := w[bits.OnesCount64(mask)]
			for rest != 0 {
				bit := rest & -rest
				i := bits.TrailingZeros64(bit)
				phi[i] += weight * (table[mask|bit] - vs)
				rest ^= bit
			}
		}
	})
	if err != nil {
		return nil, err
	}
	observeParallel("exact-from-table", workers, time.Since(start), busy)
	return phi, nil
}

// MonteCarloParallel estimates Shapley values like MonteCarlo with the
// permutation budget sharded across workers (<= 0 selects one worker per
// CPU; the count is clamped to samples). Worker w runs the serial estimator
// over its share with an independent rng seeded by WorkerSeeds(seed,
// workers)[w], and the shares are averaged with their sample weights in
// worker order — so the result is bit-for-bit reproducible for a given
// (seed, workers) pair. v must be safe for concurrent use.
func MonteCarloParallel(n int, v SetFunc, samples int, seed int64, workers int) ([]float64, error) {
	if err := checkSampling(n, samples); err != nil {
		return nil, err
	}
	if v == nil {
		return nil, ErrNilGame
	}
	return sampledParallel("monte-carlo", n, samples, seed, workers,
		func(share int, rng *rand.Rand) ([]float64, error) {
			return MonteCarlo(n, v, share, rng)
		})
}

// SampledOrderedParallel is the parallel form of SampledOrdered. Because
// ordered-game marginals functions usually close over mutable scratch state
// (incremental demand curves), the caller supplies a factory: newMarginals
// must return a fresh, independent OrderedMarginals per call. Same
// determinism contract as MonteCarloParallel.
func SampledOrderedParallel(n int, newMarginals func() OrderedMarginals, samples int, seed int64, workers int) ([]float64, error) {
	if n < 1 {
		return nil, ErrNoPlayers
	}
	if samples < 1 {
		return nil, ErrTooFewSamples
	}
	if newMarginals == nil {
		return nil, ErrNilMarginals
	}
	return sampledParallel("sampled-ordered", n, samples, seed, workers,
		func(share int, rng *rand.Rand) ([]float64, error) {
			m := newMarginals()
			if m == nil {
				return nil, ErrNilMarginals
			}
			return SampledOrdered(n, m, share, rng)
		})
}

// sampledParallel shards a sample budget across workers, runs the serial
// estimator per shard, and reduces the per-worker averages with their
// sample weights in worker order. Arguments are pre-validated by the
// exported wrappers.
func sampledParallel(mode string, n, samples int, seed int64, workers int, run func(share int, rng *rand.Rand) ([]float64, error)) ([]float64, error) {
	start := time.Now()
	workers = min(resolveWorkers(workers), samples)
	shares := shareSamples(samples, workers)
	seeds := WorkerSeeds(seed, workers)
	ests := make([][]float64, workers)
	errs := make([]error, workers)
	busy, panicErr := runWorkers(workers, func(w int) {
		ests[w], errs[w] = run(shares[w], rand.New(rand.NewSource(seeds[w])))
	})
	if panicErr != nil {
		return nil, panicErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	phi := make([]float64, n)
	for w, est := range ests {
		weight := float64(shares[w]) / float64(samples)
		for i, v := range est {
			phi[i] += v * weight
		}
	}
	observeParallel(mode, workers, time.Since(start), busy)
	return phi, nil
}

// shareSamples splits `samples` into `workers` near-equal shares, giving
// the remainder to the lowest-indexed workers. workers must be in
// [1, samples], so every share is positive.
func shareSamples(samples, workers int) []int {
	shares := make([]int, workers)
	base, rem := samples/workers, samples%workers
	for w := range shares {
		shares[w] = base
		if w < rem {
			shares[w]++
		}
	}
	return shares
}

// blockRange returns the half-open slice of `total` items owned by worker
// w of `workers`, contiguous and near-equal.
func blockRange(total, workers, w int) (lo, hi int) {
	return total * w / workers, total * (w + 1) / workers
}
