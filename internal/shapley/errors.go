package shapley

import (
	"errors"
	"fmt"
)

// Sentinel errors for the argument-validation failures every estimator in
// this package shares. They exist so callers can branch on the failure class
// with errors.Is instead of matching message text — the Monte Carlo
// harnesses retry with adjusted budgets on ErrTooFewSamples, for example —
// and so the parallel engine can guarantee it fails the same way the serial
// core does. Errors carrying instance detail (player counts, table sizes)
// wrap the sentinel via fmt.Errorf("...: %w", ...).
var (
	// ErrNoPlayers reports a game with n < 1 players.
	ErrNoPlayers = errors.New("shapley: need at least one player")
	// ErrTooManyPlayers reports a bitmask game with more than 63 players
	// (coalition masks are uint64 with one sign bit reserved by the rngs).
	ErrTooManyPlayers = errors.New("shapley: bitmask games support at most 63 players")
	// ErrTooManyExactPlayers reports an exact-enumeration request above
	// MaxExactPlayers.
	ErrTooManyExactPlayers = errors.New("shapley: too many players for exact enumeration")
	// ErrTooManyOrderedPlayers reports an exact ordered-game request above
	// MaxExactOrderedPlayers.
	ErrTooManyOrderedPlayers = errors.New("shapley: too many players for exact ordered enumeration")
	// ErrTooFewSamples reports a sampling request with samples < 1.
	ErrTooFewSamples = errors.New("shapley: need at least one sample")
	// ErrOddAntitheticSamples reports an antithetic sampling request whose
	// budget is not a positive even number (each pair costs two samples).
	ErrOddAntitheticSamples = errors.New("shapley: antithetic sampling needs a positive even sample count")
	// ErrNilRNG reports a sampling request without a random source.
	ErrNilRNG = errors.New("shapley: nil rng")
	// ErrNilGame reports a nil characteristic function.
	ErrNilGame = errors.New("shapley: nil characteristic function")
	// ErrNilMarginals reports a nil ordered-game marginals function.
	ErrNilMarginals = errors.New("shapley: nil marginals function")
	// ErrTableSize reports a coalition table whose length is not 2^n.
	ErrTableSize = errors.New("shapley: coalition table length is not 2^n")
	// ErrScratchSize reports a caller-provided scratch buffer (phi, sort
	// indices) whose length does not match the player count.
	ErrScratchSize = errors.New("shapley: scratch buffer length mismatch")
	// ErrChangedPlayers reports a delta-apply changed-player mask with bits
	// outside the table's n players.
	ErrChangedPlayers = errors.New("shapley: changed-player mask outside the game")
	// ErrWorkerPanic reports that a characteristic function (or marginals
	// function) panicked inside a parallel worker. The parallel entry
	// points recover the panic and return a *WorkerPanicError wrapping
	// this sentinel instead of crashing the process, so a long sweep can
	// checkpoint and surface the failure. Match with errors.Is; recover
	// the panic value and stack with errors.As on *WorkerPanicError.
	ErrWorkerPanic = errors.New("shapley: worker panicked")
)

// WorkerPanicError carries the recovered panic of a parallel worker: which
// worker, the panic value, and the goroutine stack captured at recovery.
// It wraps ErrWorkerPanic.
type WorkerPanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

// Error implements error.
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("shapley: worker %d panicked: %v\n%s", e.Worker, e.Value, e.Stack)
}

// Unwrap lets errors.Is(err, ErrWorkerPanic) match.
func (e *WorkerPanicError) Unwrap() error { return ErrWorkerPanic }

// checkSampling validates the shared sampling arguments of the bitmask-game
// Monte Carlo estimators.
func checkSampling(n, samples int) error {
	if n < 1 {
		return ErrNoPlayers
	}
	if n > 63 {
		return ErrTooManyPlayers
	}
	if samples < 1 {
		return ErrTooFewSamples
	}
	return nil
}
