package vet

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadDiskFixture loads one of the on-disk fixture mini-modules under
// testdata/fixtures (each is its own module, so repo-module analysis never
// sees them), runs the given analyzers and returns the formatted findings.
func loadDiskFixture(t *testing.T, name string, analyzers ...*Analyzer) []string {
	t.Helper()
	mod, err := LoadModule(filepath.Join("testdata", "fixtures", name))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags, _ := RunAnalyzers(mod, analyzers)
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		out = append(out, d.Format(mod.Root))
	}
	return out
}

// expectAllInBadFile asserts the corrected twin (good.go) stayed silent.
func expectAllInBadFile(t *testing.T, got []string) {
	t.Helper()
	for _, g := range got {
		if !strings.HasPrefix(g, "bad.go:") {
			t.Errorf("finding outside bad.go (the corrected twin must stay silent): %s", g)
		}
	}
}

// TestUntrustedSizeFixture seeds the PR 5 MaxPredictions incident class:
// wire-decoded counts sizing allocations unchecked. The last two findings
// are the PR 10 cluster frames in miniature — a shard-map daemon count and
// a model-transfer payload size off a peer's frame — and the three after
// them the frame-table serving path: a decoded message arriving as a
// handler parameter, one filled in through a pointer, and a client-offered
// ring geometry handed to the mapper.
func TestUntrustedSizeFixture(t *testing.T) {
	got := loadDiskFixture(t, "untrustedsize", UntrustedSize)
	expectAllInBadFile(t, got)
	expectFindings(t, got, []string{
		"[untrusted-size] size n from untrusted source binary.Uint32 reaches make",
		"[untrusted-size] size n from untrusted source binary.Uint16 reaches io.ReadFull",
		"[untrusted-size] size rings from untrusted source binary.Uint32 reaches make",
		"[untrusted-size] size slots from untrusted source binary.Uint64 reaches make",
		"[untrusted-size] size n from untrusted source binary.Uint16 reaches make",
		"[untrusted-size] size size from untrusted source binary.Uint32 reaches make",
		"[untrusted-size] size m.Count from untrusted source wire message parameter m reaches make",
		"[untrusted-size] size q.Count from untrusted source wire message q reaches make",
		"[untrusted-size] size g from untrusted source wire message parameter m reaches transport.MapRings",
	})
}

// TestAtomicMixFixture seeds the accept/drain (atomic writer, plain
// reader) and Submit/Health (locked writer, unlocked access) race classes.
func TestAtomicMixFixture(t *testing.T) {
	got := loadDiskFixture(t, "atomicmix", AtomicMix)
	expectAllInBadFile(t, got)
	expectFindings(t, got, []string{
		"[atomic-mix] field Gate.draining is accessed via sync/atomic at bad.go:20 but by a plain load here",
		"[atomic-mix] field Buffer.pending is written under fixture.Buffer.mu at bad.go:35 but read here without it",
		"[atomic-mix] field Buffer.pending is written under fixture.Buffer.mu at bad.go:35 but written here without it",
	})
}

// TestGoroutineLifecycleFixture seeds the leaked-goroutine class (spawned
// loops nothing joins, signals, or annotates), the PR 9 quit-signalled-
// but-unjoined class (stoppable loops whose exit nothing can wait for),
// and the PR 8 unjittered-retry class (unbounded fixed-cadence sleep loops
// with no quit check). good.go holds the accepted twins — joined
// goroutines (including quit-signalled ones joined through a done field
// channel a separate Drain method receives from), bounded retries,
// computed backoff, select-stoppable ticks — the analyzer must stay silent
// on.
func TestGoroutineLifecycleFixture(t *testing.T) {
	got := loadDiskFixture(t, "goroutine", GoroutineLifecycle)
	expectAllInBadFile(t, got)
	expectFindings(t, got, []string{
		"[goroutine-lifecycle] goroutine is not tied to a WaitGroup",
		"[goroutine-lifecycle] goroutine is not tied to a WaitGroup",
		"[goroutine-lifecycle] goroutine is quit-signalled but never joined",
		"[goroutine-lifecycle] goroutine is quit-signalled but never joined",
		"[goroutine-lifecycle] unbounded retry loop sleeps a constant interval with no quit/ctx check",
		"[goroutine-lifecycle] unbounded retry loop sleeps a constant interval with no quit/ctx check",
	})
}

// TestLockOrderFixture seeds an AB/BA inversion where one direction is
// hidden behind a helper, so only call-graph folding can see the cycle.
func TestLockOrderFixture(t *testing.T) {
	got := loadDiskFixture(t, "lockorder", LockOrder)
	expectAllInBadFile(t, got)
	expectFindings(t, got, []string{
		"[lock-order] lock-order inversion: fixture.Index.mu acquired while holding fixture.Ledger.mu (via call to reindex)",
		"[lock-order] lock-order inversion: fixture.Ledger.mu acquired while holding fixture.Index.mu",
	})
}

// TestAllowFixture pins the one way to accept a finding. good.go holds a
// leading and a trailing pythia:allow, each accepting exactly one finding;
// bad.go holds the misuses RunAnalyzers reports as [allow] findings — an
// allow that accepts nothing, one naming an unknown analyzer, one with no
// reason — plus a trailing allow that must not reach the line below it.
func TestAllowFixture(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "fixtures", "allow"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags, allowed := RunAnalyzers(mod, []*Analyzer{ErrorHygiene})
	got := make([]string, 0, len(diags))
	for _, d := range diags {
		got = append(got, d.Format(mod.Root))
	}
	expectAllInBadFile(t, got)
	expectFindings(t, got, []string{
		"bad.go:9: [allow] pythia:allow error-hygiene accepts no finding on line 10",
		`bad.go:17: [allow] pythia:allow names unknown analyzer "error-hygeine"`,
		"bad.go:18: [error-hygiene] error value fail() assigned to _",
		"bad.go:23: [allow] pythia:allow error-hygiene gives no reason",
		"bad.go:23: [error-hygiene] error value fail() assigned to _",
		"bad.go:30: [error-hygiene] error value fail() assigned to _",
	})
	if allowed != 3 {
		t.Errorf("allowed = %d, want 3 (good.go's two and TrailingOnly's first line)", allowed)
	}

	// An analyzer that did not run leaves its allows unjudged: neither the
	// unused nor the reasonless one is reported, but an unknown name still is.
	diags, allowed = RunAnalyzers(mod, []*Analyzer{PanicPolicy})
	got = got[:0]
	for _, d := range diags {
		got = append(got, d.Format(mod.Root))
	}
	expectFindings(t, got, []string{`bad.go:17: [allow] pythia:allow names unknown analyzer "error-hygeine"`})
	if allowed != 0 {
		t.Errorf("allowed = %d with error-hygiene not run, want 0", allowed)
	}
}
