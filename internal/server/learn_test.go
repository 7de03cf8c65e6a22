package server

// Serving-side model lifecycle tests: the ModelInfo/Promote/Rollback wire
// ops against a learning daemon, a promotion racing a reconnect's
// park/resume cycle, and the frozen-equivalence guarantee — a learning
// tenant that never promotes answers bit-identically to a frozen local
// oracle even across connection cuts.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/wire"
	"repro/pythia"
	"repro/pythia/client"
)

// learnConfig is a server Config with online learning tuned for tests:
// tiny epochs, but scored promotion effectively disabled (the margin can
// never be met) so only forced operations change generations.
func learnConfig(dir string) Config {
	return Config{
		TraceDir: dir,
		Learn: &pythia.LearnPolicy{
			EpochEvents:      64,
			PromoteEpochs:    2,
			PromoteMarginPct: 101,
		},
	}
}

// driftStream returns the tenant's pattern reversed — a workload the
// recorded model mispredicts but a shadow model learns.
func driftStream(names []string, total int) []string {
	rev := make([]string, len(names))
	for i, n := range names {
		rev[len(names)-1-i] = n
	}
	return repeatNames(rev, total)
}

func TestModelLifecycleOverWire(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 96)
	_, addr := startServer(t, learnConfig(dir))

	c, err := client.Dial(addr, client.Config{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ro, err := c.Oracle("bt")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rth := ro.Thread(0)

	mi, err := ro.ModelInfo()
	if err != nil {
		t.Fatalf("ModelInfo: %v", err)
	}
	if !mi.Enabled || mi.State != "learning" || mi.ServingGeneration != 1 {
		t.Fatalf("fresh learning tenant: %+v", mi)
	}
	// No shadow snapshot yet: a forced promotion must be refused without
	// poisoning the connection.
	if _, err := ro.Promote(); err == nil {
		t.Fatal("Promote succeeded with no shadow candidate")
	} else {
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeLifecycle {
			t.Fatalf("Promote refusal = %v, want CodeLifecycle", err)
		}
	}

	for _, name := range driftStream(names, 512) {
		rth.Submit(ro.Intern(name))
	}
	rth.Flush()
	gen, err := ro.Promote()
	if err != nil {
		t.Fatalf("Promote after drift: %v", err)
	}
	if gen != 2 {
		t.Fatalf("promoted generation %d, want 2", gen)
	}
	mi, err = ro.ModelInfo()
	if err != nil {
		t.Fatalf("ModelInfo after promotion: %v", err)
	}
	if mi.State != "watching" || mi.ServingGeneration != 2 || mi.Promotions != 1 || len(mi.Retained) != 2 {
		t.Fatalf("post-promotion lifecycle: %+v", mi)
	}

	gen, err = ro.Rollback()
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if gen != 3 {
		t.Fatalf("rollback generation %d, want 3 (numbers never go back)", gen)
	}
	mi, err = ro.ModelInfo()
	if err != nil {
		t.Fatalf("ModelInfo after rollback: %v", err)
	}
	if mi.State != "learning" || mi.ServingGeneration != 3 || mi.Rollbacks != 1 {
		t.Fatalf("post-rollback lifecycle: %+v", mi)
	}
	// Nothing left to roll back to; the refusal is non-fatal.
	if _, err := ro.Rollback(); err == nil {
		t.Fatal("second Rollback succeeded with no previous generation")
	}
	if h := ro.Health(); h.Rollbacks != 1 || h.State != pythia.Degraded {
		t.Fatalf("rollback not latched in remote health: %+v", h)
	}
}

// TestLearnPromotionStaysInMemory pins where a learning daemon's promotions
// live: tenantOf clears LearnPolicy.Dir, so a promoted generation belongs to
// its connection's oracle and never reaches the trace directory. The
// tenant's file, the directory listing and the offer a cluster sweep ships
// to peers (loadOffer) all read as before the promotion.
func TestLearnPromotionStaysInMemory(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 96)
	srv, addr := startServer(t, learnConfig(dir))
	path := filepath.Join(dir, "bt.pythia")
	fileBefore, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	listBefore := dirNames(t, dir)
	offerBefore := srv.loadOffer("bt", "self")
	if len(offerBefore.Payload) == 0 {
		t.Fatal("loadOffer shipped no payload for the tenant's trace")
	}

	c, err := client.Dial(addr, client.Config{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ro, err := c.Oracle("bt")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rth := ro.Thread(0)
	for _, name := range driftStream(names, 512) {
		rth.Submit(ro.Intern(name))
	}
	rth.Flush()
	if gen, err := ro.Promote(); err != nil || gen != 2 {
		t.Fatalf("Promote after drift = %d, %v; want generation 2", gen, err)
	}

	fileAfter, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileAfter, fileBefore) {
		t.Errorf("promotion rewrote %s (%d -> %d bytes)", path, len(fileBefore), len(fileAfter))
	}
	if got := dirNames(t, dir); !slices.Equal(got, listBefore) {
		t.Errorf("trace dir after promotion = %v, want %v", got, listBefore)
	}
	offerAfter := srv.loadOffer("bt", "self")
	if offerAfter.Generation != offerBefore.Generation || !bytes.Equal(offerAfter.Payload, offerBefore.Payload) {
		t.Errorf("sweep offer after promotion: generation %d (%d bytes), want %d (%d bytes)",
			offerAfter.Generation, len(offerAfter.Payload), offerBefore.Generation, len(offerBefore.Payload))
	}
}

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestLifecycleRefusedWithoutLearning(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "bt", 96)
	_, addr := startServer(t, Config{TraceDir: dir})

	c, err := client.Dial(addr, client.Config{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ro, err := c.Oracle("bt")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	mi, err := ro.ModelInfo()
	if err != nil {
		t.Fatalf("ModelInfo: %v", err)
	}
	if mi.Enabled || mi.State != "frozen" {
		t.Fatalf("frozen tenant lifecycle: %+v", mi)
	}
	var re *client.RemoteError
	if _, err := ro.Promote(); !errors.As(err, &re) || re.Code != wire.CodeLifecycle {
		t.Fatalf("Promote on frozen tenant = %v, want CodeLifecycle", err)
	}
	// The refusal is non-fatal: the session keeps answering.
	if h := ro.Health(); h.State != pythia.Healthy {
		t.Fatalf("health after refusal: %+v", h)
	}
}

// TestReconnectAcrossPromotion promotes the shadow model while a client is
// mid-stream and then cuts the connection: the park/resume cycle must adopt
// the session with its promoted oracle intact (generation and counters
// survive), replay with zero duplicates and drops, and the post-promotion
// model must predict the drifted stream.
func TestReconnectAcrossPromotion(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 96)
	_, addr := startServer(t, learnConfig(dir))
	proxy, err := chaosnet.New(addr, chaosnet.Config{})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer proxy.Close()

	c, err := client.Dial(proxy.Addr(), client.Config{
		ReconnectMinDelay: 2 * time.Millisecond,
		RequestTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ro, err := c.Oracle("bt")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rth := ro.Thread(0)
	rth.StartAtBeginning()

	stream := driftStream(names, 1024)
	for i, name := range stream {
		rth.Submit(ro.Intern(name))
		switch i {
		case 400:
			rth.Flush()
			if gen, perr := ro.Promote(); perr != nil || gen != 2 {
				t.Fatalf("mid-stream Promote = %d, %v", gen, perr)
			}
		case 480:
			// Cut while the watch window is open: park/resume must carry the
			// promoted oracle, not rebuild a fresh generation-1 tenant.
			prev := c.Stats().Reconnects
			proxy.CutAll()
			waitReconnect(t, c, rth, prev)
		}
	}
	rth.Flush()

	mi, err := ro.ModelInfo()
	if err != nil {
		t.Fatalf("ModelInfo after reconnect: %v", err)
	}
	if mi.ServingGeneration != 2 || mi.Promotions != 1 {
		t.Fatalf("promotion did not survive the reconnect: %+v", mi)
	}
	st := c.Stats()
	if st.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", st.Reconnects)
	}
	if st.DroppedEvents != 0 {
		t.Fatalf("dropped %d events across the promotion reconnect, want 0", st.DroppedEvents)
	}
	// The promoted model has seen the drifted pattern; near-horizon
	// predictions on it must flow (the frozen model would mispredict, but
	// the session must at least answer from the promoted grammar).
	if _, ok := rth.PredictAt(1); !ok {
		t.Fatal("no prediction from the promoted model")
	}
}

// TestRemoteBitIdenticalLearningQuiescent pins the frozen-equivalence
// guarantee: with learning enabled but promotion unreachable, a remote
// tenant answers bit-identically to a frozen local oracle — across a
// connection cut — because the serving model is only ever swapped by a
// promotion, never by learning itself.
func TestRemoteBitIdenticalLearningQuiescent(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 96)
	_, addr := startServer(t, learnConfig(dir))
	ref, err := pythia.LoadTraceSet(filepath.Join(dir, "bt.pythia"))
	if err != nil {
		t.Fatalf("loading trace: %v", err)
	}
	proxy, err := chaosnet.New(addr, chaosnet.Config{})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer proxy.Close()

	localOracle, err := pythia.NewPredictOracle(ref, pythia.Config{})
	if err != nil {
		t.Fatalf("local oracle: %v", err)
	}
	local := localThread{localOracle.Thread(0)}

	c, err := client.Dial(proxy.Addr(), client.Config{
		ReconnectMinDelay: 2 * time.Millisecond,
		RequestTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ro, err := c.Oracle("bt")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rth := ro.Thread(0)
	local.StartAtBeginning()
	rth.StartAtBeginning()

	for i, name := range repeatNames(names, 320) {
		local.Submit(localOracle.Intern(name))
		rth.Submit(ro.Intern(name))
		if i == 97 {
			prev := c.Stats().Reconnects
			proxy.CutAll()
			waitReconnect(t, c, rth, prev)
		}
		if i%37 == 0 {
			comparePoint(t, "learning-quiescent", local, rth, 16)
		}
	}
	rth.Flush()
	comparePoint(t, "learning-quiescent final", local, rth, 32)
	mi, err := ro.ModelInfo()
	if err != nil {
		t.Fatalf("ModelInfo: %v", err)
	}
	if mi.Promotions != 0 || mi.ServingGeneration != 1 {
		t.Fatalf("quiescent tenant promoted: %+v", mi)
	}
	if st := c.Stats(); st.DroppedEvents != 0 {
		t.Fatalf("dropped %d events, want 0", st.DroppedEvents)
	}
}
