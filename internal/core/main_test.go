package core

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a test leaves a goroutine of this package
// running: a checkpointer, a commit goroutine or anything else a session
// starts must be gone once the tests that started it have returned.
func TestMain(m *testing.M) {
	code := m.Run()
	if left := leftGoroutines(time.Second); left != "" {
		fmt.Fprintf(os.Stderr, "goroutines of internal/core left running after the tests:\n\n%s\n", left)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// leftGoroutines polls for up to wait until no goroutine other than the
// caller has an internal/core frame (or was created by one), and returns
// the stacks of those still left.
func leftGoroutines(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<16)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		// The first stack is the caller's own.
		var left []string
		for _, g := range strings.Split(string(buf), "\n\n")[1:] {
			if strings.Contains(g, "repro/internal/core.") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return strings.Join(left, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
