package shapley

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/debug"

	"fairco2/internal/checkpoint"
)

// Checkpointed exact enumeration. A 24-player table is 2^24 coalition
// evaluations — hours of work for an expensive incremental game — enumerated
// in BuildGameTable's fixed gray-code blocks. Each block covers a contiguous
// mask range [b<<low, (b+1)<<low), so a snapshot is simply the set of
// finished blocks plus their table slices, flushed periodically. Because
// the block decomposition is independent of worker count and each block
// starts from fresh state, a resumed build produces a table
// bitwise-identical to an uninterrupted one.

// tableSweep is the live progress of a checkpointed table build. Snapshots
// use a compact binary payload (the table is 8 bytes per coalition; JSON
// would triple that): a little-endian header {n, blocks}, a done bitmap,
// then the table values of each done block in ascending block order.
type tableSweep struct {
	n, low int
	done   []bool
	table  []float64
}

// Snapshot implements checkpoint.Resumable.
func (t *tableSweep) Snapshot() ([]byte, error) {
	blockLen := 1 << uint(t.low)
	doneBlocks := 0
	for _, d := range t.done {
		if d {
			doneBlocks++
		}
	}
	bitmap := (len(t.done) + 7) / 8
	buf := make([]byte, 8+bitmap+doneBlocks*blockLen*8)
	binary.LittleEndian.PutUint32(buf, uint32(t.n))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(t.done)))
	off := 8 + bitmap
	for b, d := range t.done {
		if !d {
			continue
		}
		buf[8+b/8] |= 1 << uint(b%8)
		for _, v := range t.table[b*blockLen : (b+1)*blockLen] {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf, nil
}

// Restore implements checkpoint.Resumable.
func (t *tableSweep) Restore(payload []byte) error {
	if len(payload) < 8 {
		return fmt.Errorf("%w: table state shorter than its header", checkpoint.ErrCorruptCheckpoint)
	}
	if n := int(binary.LittleEndian.Uint32(payload)); n != t.n {
		return fmt.Errorf("%w: snapshot is a %d-player table, this build has %d players",
			checkpoint.ErrStateMismatch, n, t.n)
	}
	if blocks := int(binary.LittleEndian.Uint32(payload[4:])); blocks != len(t.done) {
		return fmt.Errorf("%w: snapshot has %d blocks, this build %d", checkpoint.ErrCorruptCheckpoint, blocks, len(t.done))
	}
	blockLen := 1 << uint(t.low)
	bitmap := (len(t.done) + 7) / 8
	off := 8 + bitmap
	if len(payload) < off {
		return fmt.Errorf("%w: truncated table bitmap", checkpoint.ErrCorruptCheckpoint)
	}
	for b := range t.done {
		if payload[8+b/8]&(1<<uint(b%8)) == 0 {
			continue
		}
		if len(payload) < off+blockLen*8 {
			return fmt.Errorf("%w: truncated table block %d", checkpoint.ErrCorruptCheckpoint, b)
		}
		for i := 0; i < blockLen; i++ {
			t.table[b*blockLen+i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
		t.done[b] = true
	}
	if off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes in table state", checkpoint.ErrCorruptCheckpoint, len(payload)-off)
	}
	return nil
}

// buildCheckpointed is BuildGameTable's path for an enabled spec: the
// blocks run through checkpoint.RunUnits, which stops dispatching on
// cancellation and snapshots every ck.Every finished blocks, and a
// restored snapshot's blocks are skipped. Arguments are pre-validated.
func buildCheckpointed(ctx context.Context, n int, g Game, workers int, ck checkpoint.Spec, table []float64) ([]float64, error) {
	low, blocks := tableBlocks(n)
	sweep := &tableSweep{n: n, low: low, done: make([]bool, blocks), table: table}
	store, err := checkpoint.Open(ck.Dir, "shapley-table")
	if err != nil {
		return nil, err
	}
	if _, err := store.RestoreLatest(sweep); err != nil {
		return nil, err
	}
	enumerated := 0
	err = checkpoint.RunUnits(ctx, checkpoint.RunConfig{
		Units:   blocks,
		Workers: workers,
		Every:   ck.Every,
		Skip:    func(b int) bool { return sweep.done[b] },
		Run: func(b int) (err error) {
			// Same panic isolation as runWorkers: a panicking game fails
			// the build with a typed error (after the final snapshot of
			// every intact block) instead of crashing the process.
			defer func() {
				if r := recover(); r != nil {
					err = &WorkerPanicError{Worker: b, Value: r, Stack: debug.Stack()}
				}
			}()
			return enumerateBlock(low, b, g, sweep.table)
		},
		Complete: func(b int) {
			sweep.done[b] = true
			enumerated++
			store.TouchAge()
		},
		Save:    func() error { return store.SaveResumable(sweep) },
		HoldDir: ck.Dir,
	})
	metricExactCoalitions.Add(float64(enumerated * (1 << uint(low))))
	if err != nil {
		return nil, err
	}
	return sweep.table, nil
}
