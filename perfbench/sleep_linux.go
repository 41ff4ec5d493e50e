package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper wakes the dispatcher at each op's due time through a timerfd
// read. The Go timer wakes an idle program only on millisecond ticks,
// which would make every sub-millisecond arrival late; a timerfd fires on
// a precise kernel timer and its readiness wakes the parked goroutine
// through the network poller, without holding a P while it waits.
type sleeper struct {
	fd  uintptr // the raw descriptor: File.Fd would switch it to blocking
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

type itimerspec struct {
	interval, value syscall.Timespec
}

// until blocks until t.
func (s *sleeper) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }
