package faultinject

// Crash-point injection (this file): deterministic process-death scheduling
// for chaos-testing the checkpoint journal. A CrashSpec names one of the
// tracefile crash points ("save.wrote-temp", "journal.wrote-gen", ...) and
// which hit of it should kill the process; Hook turns the spec into a
// tracefile.SetCrashHook callback that counts hits, optionally tears the
// file it is handed (simulating a write that died mid-sector instead of a
// clean kill), and exits with CrashExitCode. Recovery code is then pointed
// at whatever the dead process left behind.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// CrashExitCode is the exit status of a process killed by an injected
// crash; distinctive on purpose so a harness can tell an injected death
// from a real one.
const CrashExitCode = 86

// CrashSpec schedules one injected process death.
type CrashSpec struct {
	// Point is the tracefile crash point name (tracefile.CrashSave*,
	// tracefile.CrashJournal*).
	Point string
	// Nth is which hit of Point dies, 1-based.
	Nth int
	// Tear, when set, truncates and corrupts the file the crash point
	// reports before dying — a torn write rather than a clean kill.
	Tear bool
}

// ParseCrashSpec parses "point@n" or "point@n+tear", e.g.
// "save.wrote-temp@2" or "journal.wrote-gen@1+tear".
func ParseCrashSpec(s string) (CrashSpec, error) {
	var spec CrashSpec
	point, rest, ok := strings.Cut(s, "@")
	if !ok || point == "" {
		return spec, fmt.Errorf("faultinject: crash spec %q: want point@n[+tear]", s)
	}
	nth, tear := rest, false
	if cut, found := strings.CutSuffix(rest, "+tear"); found {
		nth, tear = cut, true
	}
	n, err := strconv.Atoi(nth)
	if err != nil || n < 1 {
		return spec, fmt.Errorf("faultinject: crash spec %q: bad hit count %q", s, nth)
	}
	return CrashSpec{Point: point, Nth: n, Tear: tear}, nil
}

// String renders the spec in ParseCrashSpec syntax.
func (c CrashSpec) String() string {
	s := fmt.Sprintf("%s@%d", c.Point, c.Nth)
	if c.Tear {
		s += "+tear"
	}
	return s
}

// Hook returns a callback for tracefile.SetCrashHook implementing the spec:
// on the Nth hit of Point the process dies with CrashExitCode, after
// tearing the reported file when the spec says so. Other points and other
// hits pass through untouched. The hook is safe for concurrent hits.
func (c CrashSpec) Hook() func(point, path string) {
	var hits atomic.Int64
	return func(point, path string) {
		if point != c.Point {
			return
		}
		if hits.Add(1) != int64(c.Nth) {
			return
		}
		if c.Tear {
			// pythia:allow error-hygiene — best-effort: a crash injector must
			// die even if tearing fails, and one statement from os.Exit it has
			// nowhere to report. A failed tear degrades "torn write" to "clean
			// kill", which the chaos assertions catch as a wrong skip count.
			_ = TearFile(path, int64(c.Nth))
		}
		os.Exit(CrashExitCode)
	}
}

// TearFile simulates a write torn by power loss: the file is truncated to a
// seed-chosen length and, if anything remains, its final byte is flipped.
func TearFile(path string, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	torn := TruncateBytes(data, seed)
	if len(torn) > 0 {
		rng := rand.New(rand.NewSource(seed))
		torn[len(torn)-1] ^= byte(1 + rng.Intn(255))
	}
	return os.WriteFile(path, torn, 0o666)
}
