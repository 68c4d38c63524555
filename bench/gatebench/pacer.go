package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer is the open-loop generator's clock: a timerfd read through the
// runtime's network poller. A runtime timer shorter than a millisecond fires
// about a millisecond late on Linux (an idle scheduler waits in epoll_wait,
// whose timeout is in whole milliseconds), which would make every paced
// message up to 1 ms late; and a nanosleep system call would pin one of the
// two processors to a sleeping thread. A timerfd is an event to epoll, so
// the sleeper gives up its processor and is woken by the kernel's
// high-resolution timer within its ~50 µs slack.
type pacer struct {
	f  *os.File
	fd uintptr
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor handed to NewFile is registered with the
	// poller; Fd() is never called on it, which would undo that.
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks the calling goroutine, not its thread, for d.
func (p *pacer) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	// struct itimerspec { it_interval, it_value }: one shot after d.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		time.Sleep(d)
	}
}

func (p *pacer) close() { _ = p.f.Close() }
