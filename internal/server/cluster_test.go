package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/tracefile"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pythia"
	"repro/pythia/client"
)

// startFleet starts one daemon per trace dir and joins them into a fleet
// at the given epoch. The returned addresses are in dir order and double
// as the daemons' fleet identities.
func startFleet(t *testing.T, dirs []string, epoch uint64, replicas int) ([]*Server, []string) {
	t.Helper()
	srvs := make([]*Server, len(dirs))
	addrs := make([]string, len(dirs))
	for i, dir := range dirs {
		srvs[i], addrs[i] = startServer(t, Config{TraceDir: dir})
	}
	for i, s := range srvs {
		s.ConfigureCluster(addrs[i], addrs, epoch, replicas)
	}
	return srvs, addrs
}

// tenantOwnedBy returns a tenant name owned by daemons[idx] under m,
// records a synthetic trace for it in dir, and returns its event names.
func tenantOwnedBy(t *testing.T, m cluster.Map, idx int, dir string) (string, []string) {
	t.Helper()
	for i := 0; i < 1024; i++ {
		name := fmt.Sprintf("tenant-%03d", i)
		if m.Owner(name) == m.Daemons[idx] {
			return name, synthTrace(t, dir, name, 64)
		}
	}
	t.Fatal("no tenant hashed onto the requested daemon in 1024 tries")
	return "", nil
}

// waitForFile polls until path exists (replication sweeps run async).
func waitForFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never appeared", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShardMapServedAndGossiped(t *testing.T) {
	srv, addr := startServer(t, Config{TraceDir: t.TempDir()})
	srv.ConfigureCluster(addr, []string{addr, "127.0.0.1:1"}, 3, 1)

	c := dialRaw(t, addr)
	var sm wire.ShardMap
	c.ask(wire.TShardMap, &wire.Uint64{V: 0}, &sm)
	if sm.Epoch != 3 || sm.Replicas != 1 || len(sm.Daemons) != 2 {
		t.Fatalf("shard map = %+v, want epoch 3, 1 replica, 2 daemons", sm)
	}

	// A request carrying a higher epoch is gossip: the daemon adopts it
	// (max-wins) and the response reflects the adoption.
	if c.ask(wire.TShardMap, &wire.Uint64{V: 9}, &sm); sm.Epoch != 9 {
		t.Fatalf("epoch not adopted from gossip: %+v", sm)
	}
	// A lower epoch is ignored.
	if c.ask(wire.TShardMap, &wire.Uint64{V: 4}, &sm); sm.Epoch != 9 {
		t.Fatalf("lower epoch regressed the map: %+v", sm)
	}
	if got := srv.ClusterMap().Epoch; got != 9 {
		t.Fatalf("server epoch = %d, want 9", got)
	}
}

func TestWrongShardRefusalIsNonFatal(t *testing.T) {
	dir := t.TempDir()
	_, addrs := startFleet(t, []string{dir, dir}, 1, 0)
	m := cluster.Map{Epoch: 1, Replicas: 0, Daemons: addrs}
	ownedByA, _ := tenantOwnedBy(t, m, 0, dir)
	ownedByB, _ := tenantOwnedBy(t, m, 1, dir)

	// Daemon B refuses A's tenant with the non-fatal wrong-shard code...
	c := dialRaw(t, addrs[1])
	c.send(wire.TOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{TID: -1, Tenant: ownedByA}))
	c.expectError(wire.CodeWrongShard)
	// ...and the same connection then serves a tenant B does own.
	c.openSession(ownedByB, -1, 0)
}

func TestModelOfferLastGenerationWins(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServer(t, Config{TraceDir: t.TempDir()})
	_ = srv

	names := synthTrace(t, dir, "seed", 64)
	_ = names
	ts, err := pythia.LoadTraceSet(filepath.Join(dir, "seed.pythia"))
	if err != nil {
		t.Fatal(err)
	}
	offer := func(gen uint64) *wire.ModelOffer {
		ts.Provenance = &pythia.Provenance{Generation: gen, Kind: pythia.ProvPromotion, Parent: gen - 1}
		var buf bytes.Buffer
		if err := tracefile.Write(&buf, ts); err != nil {
			t.Fatal(err)
		}
		return &wire.ModelOffer{Tenant: "mt", Generation: gen, Source: "10.0.0.7:9137", Payload: buf.Bytes()}
	}
	c := dialRaw(t, addr)
	sendOffer := func(gen uint64) (bool, uint64) {
		var verdict wire.ModelAccepted
		c.ask(wire.TOfferModel, offer(gen), &verdict)
		return verdict.Accepted, verdict.HaveGen
	}

	if ok, have := sendOffer(5); !ok || have != 5 {
		t.Fatalf("first offer: accepted=%v have=%d, want accepted gen 5", ok, have)
	}
	if ok, have := sendOffer(4); ok || have != 5 {
		t.Fatalf("stale offer: accepted=%v have=%d, want rejected, still gen 5", ok, have)
	}
	if ok, have := sendOffer(6); !ok || have != 6 {
		t.Fatalf("newer offer: accepted=%v have=%d, want accepted gen 6", ok, have)
	}

	got, err := pythia.LoadTraceSet(filepath.Join(srv.cfg.TraceDir, "mt.pythia"))
	if err != nil {
		t.Fatalf("committed model unreadable: %v", err)
	}
	p := got.Provenance
	if p == nil || p.Generation != 6 || p.ReplicatedFrom != "10.0.0.7:9137" {
		t.Fatalf("committed provenance %+v, want generation 6 replicated from 10.0.0.7:9137", p)
	}
	if p.Kind != pythia.ProvPromotion || p.Parent != 5 {
		t.Fatalf("lineage did not survive replication: %+v", p)
	}

	// FetchModel round-trips the committed generation back out.
	var om wire.ModelOffer
	c.ask(wire.TFetchModel, &wire.TenantRef{Tenant: "mt"}, &om)
	if om.Generation != 6 || om.Tenant != "mt" {
		t.Fatalf("fetched offer %+v, want generation 6 of mt", om)
	}
	if _, err := tracefile.Read(bytes.NewReader(om.Payload)); err != nil {
		t.Fatalf("fetched payload does not decode: %v", err)
	}
}

func TestEpochBumpMigratesTenantWithLineage(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	srvs, addrs := startFleet(t, []string{dirA, dirB}, 1, 0)

	// Find a tenant that daemon A owns at epoch 1 but daemon B owns at
	// epoch 2, so the gossiped bump forces a planned handoff A -> B.
	m1 := cluster.Map{Epoch: 1, Replicas: 0, Daemons: addrs}
	m2 := cluster.Map{Epoch: 2, Replicas: 0, Daemons: addrs}
	tenant := ""
	for i := 0; i < 4096 && tenant == ""; i++ {
		name := fmt.Sprintf("mig-%04d", i)
		if m1.Owner(name) == addrs[0] && m2.Owner(name) == addrs[1] {
			tenant = name
		}
	}
	if tenant == "" {
		t.Fatal("no tenant flips ownership A->B across the epoch bump")
	}
	synthTrace(t, dirA, tenant, 64)
	// Stamp lineage so the migration has something to preserve.
	path := filepath.Join(dirA, tenant+".pythia")
	ts, err := pythia.LoadTraceSet(path)
	if err != nil {
		t.Fatal(err)
	}
	ts.Provenance = &pythia.Provenance{Generation: 7, Kind: pythia.ProvPromotion, Parent: 6, UnixNanos: 99}
	if err := pythia.SaveTraceSet(path, ts); err != nil {
		t.Fatal(err)
	}

	// Gossip the bump to A; adoption triggers its migration sweep.
	c := dialRaw(t, addrs[0])
	c.ask(wire.TShardMap, &wire.Uint64{V: 2}, &wire.ShardMap{})

	migrated := filepath.Join(dirB, tenant+".pythia")
	waitForFile(t, migrated)
	got, err := pythia.LoadTraceSet(migrated)
	if err != nil {
		t.Fatal(err)
	}
	p := got.Provenance
	if p == nil || p.Generation != 7 || p.Kind != pythia.ProvPromotion || p.Parent != 6 || p.UnixNanos != 99 {
		t.Fatalf("lineage did not survive migration: %+v", p)
	}
	if p.ReplicatedFrom != addrs[0] {
		t.Fatalf("ReplicatedFrom = %q, want source daemon %s", p.ReplicatedFrom, addrs[0])
	}
	// B (owner under epoch 2, having heard nothing yet) serves the tenant
	// once its own epoch catches up via A's sweep-time gossip or a direct
	// probe; force it here and assert the session opens.
	srvs[1].ConfigureCluster(addrs[1], addrs, 2, 0)
	cb := dialRaw(t, addrs[1])
	cb.openSession(tenant, -1, 0)
}

func TestSweepKeepsWarmReplica(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()

	// Record before clustering so the startup sweep sees the file; with
	// one replica on a two-daemon fleet, every tenant lives on both sides
	// whichever one owns it.
	synthTrace(t, dirA, "warm", 64)
	_, addrs := startFleet(t, []string{dirA, dirB}, 1, 1)
	waitForFile(t, filepath.Join(dirB, "warm.pythia"))
	got, err := pythia.LoadTraceSet(filepath.Join(dirB, "warm.pythia"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Provenance == nil || got.Provenance.ReplicatedFrom != addrs[0] {
		t.Fatalf("replica provenance %+v, want ReplicatedFrom %s", got.Provenance, addrs[0])
	}
}

func TestFleetReroutesAfterWrongShard(t *testing.T) {
	dir := t.TempDir()
	srvs, addrs := startFleet(t, []string{dir, dir}, 1, 0)
	m1 := cluster.Map{Epoch: 1, Replicas: 0, Daemons: addrs}
	m2 := cluster.Map{Epoch: 2, Replicas: 0, Daemons: addrs}
	tenant := ""
	for i := 0; i < 4096 && tenant == ""; i++ {
		name := fmt.Sprintf("flip-%04d", i)
		if m1.Owner(name) != m2.Owner(name) {
			tenant = name
		}
	}
	if tenant == "" {
		t.Fatal("no tenant flips ownership across the epoch bump")
	}
	synthTrace(t, dir, tenant, 64)

	f, err := client.DialFleet(addrs[0]+","+addrs[1], client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("fleet close: %v", err)
		}
	}()
	if got := f.Map().Epoch; got != 1 {
		t.Fatalf("bootstrap epoch = %d, want 1", got)
	}
	o, err := f.Oracle(tenant)
	if err != nil {
		t.Fatalf("routing at epoch 1: %v", err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	// The fleet's cached map goes stale: both daemons move to epoch 2 and
	// the tenant's ownership flips. The next open must hit CodeWrongShard,
	// refresh, and land on the new owner.
	for i, s := range srvs {
		s.ConfigureCluster(addrs[i], addrs, 2, 0)
	}
	o, err = f.Oracle(tenant)
	if err != nil {
		t.Fatalf("rerouting after epoch bump: %v", err)
	}
	defer func() {
		if err := o.Close(); err != nil {
			t.Errorf("oracle close: %v", err)
		}
	}()
	if got := f.Map().Epoch; got != 2 {
		t.Fatalf("fleet epoch after reroute = %d, want 2", got)
	}
	if got, want := f.Owner(tenant), m2.Owner(tenant); got != want {
		t.Fatalf("fleet owner = %s, want %s", got, want)
	}
}

func TestShardMapRefreshUnderConcurrentSubmit(t *testing.T) {
	dir := t.TempDir()
	_, addrs := startFleet(t, []string{dir, dir}, 1, 0)
	names := synthTrace(t, dir, "busy", 64)

	f, err := client.DialFleet(addrs[0]+","+addrs[1], client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("fleet close: %v", err)
		}
	}()
	o, err := f.Oracle("busy")
	if err != nil {
		t.Fatal(err)
	}
	th := o.Thread(0)
	th.StartAtBeginning()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			th.Submit(o.Intern(names[i%len(names)]))
			if i%64 == 0 {
				th.PredictAt(4)
			}
		}
		th.Flush()
	}()
	for i := 0; i < 50; i++ {
		if err := f.Refresh(); err != nil {
			t.Errorf("refresh %d: %v", i, err)
			break
		}
		_ = f.Owner("busy")
	}
	wg.Wait()
	if _, ok := th.PredictAt(1); !ok {
		t.Fatal("no prediction after concurrent refresh storm")
	}
}

func TestTenantBudgetGatesRequests(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "hot", 64)
	synthTrace(t, dir, "cold", 64)
	_, addr := startServer(t, Config{
		TraceDir:           dir,
		TenantEventsPerSec: 50,
		TenantBurst:        10,
	})

	c := dialRaw(t, addr)
	hot := c.openSession("hot", 0, 0)
	// Overdraft the budget: submits are one-way and never refused, they
	// just drive the balance negative.
	ids := make([]int32, 512)
	c.send(wire.TSubmitBatch, wire.AppendSubmitBatch(nil, hot, ids))

	// The next gated request for the hot tenant is refused with a
	// retry-after hint...
	c.send(wire.TPredictAt, wire.AppendPredictAt(nil, hot, 4))
	var re wire.RemoteError
	c.recvMsg(wire.TError, &re)
	if re.Code != wire.CodeRetryLater || re.RetryAfterMs == 0 {
		t.Fatalf("got code %s retryMs %d, want retry-later with a hint", re.Code, re.RetryAfterMs)
	}
	// ...and so is a fan-out attempt (new session on the same tenant)...
	c.send(wire.TOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{TID: 1, Tenant: "hot"}))
	c.expectError(wire.CodeRetryLater)
	// ...while submits still ack (connection alive, events never refused)
	// and an innocent tenant on the same connection is untouched.
	c.send(wire.TSubmitBatch, wire.AppendSubmitBatch(nil, hot, []int32{0}))
	cold := c.openSession("cold", 0, 0)
	c.send(wire.TPredictAt, wire.AppendPredictAt(nil, cold, 4))
	if typ, _ := c.recv(); typ != wire.TPrediction {
		t.Fatalf("cold tenant got %s, want Prediction", typ)
	}
}

// TestTenantBudgetChargesEveryTier holds the tenant event budget to every
// way events enter a session. 512 on-trace events overdraft a 50 events/s,
// 10-event budget whether they arrive in a SubmitBatch over tcp or unix or
// through a shared-memory ring, so the next PredictAt is refused with
// CodeRetryLater and a retry-after hint. A resume Replay that overlaps
// what the server already applied is charged for the events it applies
// and not for the ones it skips.
func TestTenantBudgetChargesEveryTier(t *testing.T) {
	dir := t.TempDir()
	tiers := []string{"tcp", "unix", "shm"}
	var names []string
	for _, tier := range tiers {
		names = synthTrace(t, dir, tier, 128) // one tenant, one budget per tier
	}
	_, tcpAddr, unixAddr := startServerTransports(t, Config{TraceDir: dir, TenantEventsPerSec: 50, TenantBurst: 10})

	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			addr := tcpAddr
			if tier != "tcp" {
				addr = unixAddr
			}
			c := dialRaw(t, addr)
			reg := regFor(t, c, tier)
			ids := make([]int32, 512)
			for i := range ids {
				ids[i] = int32(reg[names[i%len(names)]])
			}
			sid := c.openSession(tier, 0, wire.FlagStartAtBeginning)
			if tier == "shm" {
				ring := shmRing0(t, c, sid)
				for _, id := range ids {
					if !ring.TryPush(id) {
						t.Fatal("ring full")
					}
				}
			} else {
				c.send(wire.TSubmitBatch, wire.AppendSubmitBatch(nil, sid, ids))
			}
			c.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1))
			var re wire.RemoteError
			c.recvMsg(wire.TError, &re)
			if re.Code != wire.CodeRetryLater || re.RetryAfterMs == 0 {
				t.Fatalf("PredictAt after 512 events: %+v, want CodeRetryLater with a retry-after hint", re)
			}
		})
	}

	t.Run("replay", func(t *testing.T) {
		// One token a second: the budget moves only by what the leg spends.
		dir := t.TempDir()
		synthTrace(t, dir, "bt", 8)
		_, addr := startServer(t, Config{TraceDir: dir, TenantEventsPerSec: 1, TenantBurst: 10})
		c1, tok := dialRawResume(t, addr)
		reg := regFor(t, c1, "bt")        // 10 → 9
		sid := c1.openSession("bt", 0, 0) // 9 → 8
		a, b, cc, d := int32(reg["phase:a"]), int32(reg["phase:b"]), int32(reg["phase:c"]), int32(reg["phase:d"])
		c1.send(wire.TSubmitBatch, wire.AppendSubmitBatch(nil, sid, []int32{a, b, cc, d, a})) // 8 → 3
		c1.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1))                           // 3 → 2
		if typ, _ := c1.recv(); typ != wire.TPrediction {
			t.Fatalf("sync predict: got %s", typ)
		}
		if err := c1.NC.Close(); err != nil {
			t.Fatalf("killing c1: %v", err)
		}

		c2, _ := dialRawResume(t, addr)
		resumeWithRetry(t, c2, tok)
		// Sequences 3–5 are already applied, 6 is new: one token, 2 → 1.
		var done wire.SessionApplied
		c2.ask(wire.TReplay, &wire.Replay{Session: sid, Base: 3, IDs: []int32{cc, d, a, b}}, &done)
		if done.Applied != 6 {
			t.Fatalf("Replayed applied = %d, want 6", done.Applied)
		}
		c2.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1)) // 1 → 0
		if typ, _ := c2.recv(); typ != wire.TPrediction {
			t.Fatalf("PredictAt after an overlapping replay: got %s, want Prediction (the skipped events were charged)", typ)
		}
		// Eight new events: the budget goes into overdraft.
		c2.ask(wire.TReplay, &wire.Replay{Session: sid, Base: 7, IDs: []int32{cc, d, a, b, cc, d, a, b}}, &done)
		if done.Applied != 14 {
			t.Fatalf("Replayed applied = %d, want 14", done.Applied)
		}
		c2.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1))
		var re wire.RemoteError
		c2.recvMsg(wire.TError, &re)
		if re.Code != wire.CodeRetryLater || re.RetryAfterMs == 0 {
			t.Fatalf("PredictAt after a replay of 8 new events: %+v, want CodeRetryLater with a retry-after hint", re)
		}
	})
}

// shmRing0 maps a one-ring segment onto the raw connection and binds the
// session to its ring, returning the client end of the ring.
func shmRing0(t *testing.T, c *rawConn, sid uint32) *transport.Ring {
	t.Helper()
	rings, _ := rawShm(t, c, 1024, sid)
	return &rings[0]
}
