//go:build !linux

package main

import "time"

// sleeper falls back to the Go timer where timerfd is unavailable;
// arrivals then follow that timer's resolution.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

// until blocks until t.
func (*sleeper) until(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (*sleeper) close() {}
