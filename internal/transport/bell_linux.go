//go:build linux

package transport

import (
	"syscall"
	"time"
	"unsafe"
)

// Futex operations on the doorbell. Neither carries FUTEX_PRIVATE_FLAG: the
// word lives in a mapping two processes share, so the kernel must key the
// wait queue on the page, not on this process's address space.
const (
	futexWait = 0 // FUTEX_WAIT
	futexWake = 1 // FUTEX_WAKE
)

// bellWait blocks while *w reads 1, for at most d. EAGAIN (the word moved
// before the kernel looked), EINTR and ETIMEDOUT all mean the same to the
// caller — look at the rings again — so the result is not inspected. The
// goroutine's thread stays in the syscall; the runtime hands its P on.
func bellWait(w *uint32, d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(w)), futexWait, 1,
		uintptr(unsafe.Pointer(&ts)), 0, 0)
}

// bellWake wakes the consumer sleeping on w, if it is. The word is aligned
// and mapped, so the call cannot fail in a way the pusher could act on.
func bellWake(w *uint32) {
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(w)), futexWake, 1, 0, 0, 0)
}

// nap is a raw nanosleep: the thread sleeps in the kernel, and the
// runtime hands its P on as it does for the futex wait. An interrupted
// nap just ends early, so the result is not inspected.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Syscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
}
