package server

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/pythia"
	"repro/pythia/client"
)

// TestRestartFrames pins what a thread restart costs on each tier:
// StartAtBeginning on an open thread is one OpenSession round trip (the
// daemon's last-open-wins reopen retires the old session, so there is no
// CloseSession), and on shm the thread's next Submit binds a ring again.
func TestRestartFrames(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 8)
	sockDir, err := os.MkdirTemp("", "pythia-uds")
	if err != nil {
		t.Fatalf("socket dir: %v", err)
	}
	defer os.RemoveAll(sockDir)
	unixAddr := "unix://" + filepath.Join(sockDir, "d.sock")

	for _, tc := range []struct {
		tier string
		addr string
		shm  bool
		// next is what the first Submit + PredictAt after the restart send.
		next []wire.Type
	}{
		{"tcp", "127.0.0.1:0", false, []wire.Type{wire.TSubmitBatch, wire.TPredictAt}},
		{"unix", unixAddr, false, []wire.Type{wire.TSubmitBatch, wire.TPredictAt}},
		{"shm", unixAddr, true, []wire.Type{wire.TShmBind, wire.TPredictAt}},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			_, log := serveLogged(t, dir, tc.addr)
			addr := tc.addr
			if tc.tier == "tcp" {
				addr = log.Addr().String()
			}
			c, err := client.Dial(addr, client.Config{SharedMem: tc.shm, RequestTimeout: 2 * time.Second})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			if got := c.Transport(); got != tc.tier {
				t.Fatalf("transport %q, want %s", got, tc.tier)
			}
			o, err := c.Oracle("bt")
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			th := o.Thread(0)
			th.Submit(o.Intern(names[0]))
			if _, ok := th.PredictAt(1); !ok {
				t.Fatal("no prediction before the restart")
			}
			before := len(log.frames(t, 0))

			th.StartAtBeginning()
			got := log.frames(t, 0)[before:]
			if want := []wire.Type{wire.TOpenSession}; !slices.Equal(got, want) {
				t.Fatalf("StartAtBeginning sent %v, want %v", got, want)
			}
			th.Submit(o.Intern(names[0]))
			if _, ok := th.PredictAt(1); !ok {
				t.Fatalf("no prediction after the restart (%s)", o.Health().Cause)
			}
			got = log.frames(t, 0)[before+1:]
			if !slices.Equal(got, tc.next) {
				t.Fatalf("after the restart the thread sent %v, want %v", got, tc.next)
			}
		})
	}
}

// TestRestartRetiresBeforeRefusal pins the ordering a one-round-trip
// restart relies on: the daemon retires a thread's old session before it
// runs any admission check on the reopen. At exactly MaxSessions the
// restart therefore succeeds — the old session's place pays for the new
// one — and a refused restart (the daemon draining, the tenant moved to
// another shard) still ends with the old session gone: the session count
// drops, its ring binds to another session without a fatal "ring already
// bound", and the thread reports the refusal through Health.
func TestRestartRetiresBeforeRefusal(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "synth", 64)

	// setup opens the tenant over shm with thread 0 ring-bound and thread 1
	// open but not bound.
	setup := func(t *testing.T, cfg Config) (*Server, *client.Client, *client.Oracle, *client.Thread, *client.Thread) {
		t.Helper()
		cfg.TraceDir = dir
		srv, _, unixAddr := startServerTransports(t, cfg)
		c, err := client.Dial(unixAddr, client.Config{SharedMem: true, RequestTimeout: 2 * time.Second})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() {
			if err := c.Close(); err != nil {
				t.Errorf("closing client: %v", err)
			}
		})
		if got := c.Transport(); got != "shm" {
			t.Fatalf("transport %q, want shm", got)
		}
		o, err := c.Oracle("synth")
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		th0, th1 := o.Thread(0), o.Thread(1)
		th0.Submit(o.Intern(names[0])) // binds ring 0
		if _, ok := th0.PredictAt(1); !ok {
			t.Fatal("thread 0: no prediction")
		}
		th1.PredictAt(1) // opens thread 1's session, no ring
		if got := srv.Sessions(); got != 3 {
			t.Fatalf("%d sessions open, want 3 (meta and two threads)", got)
		}
		return srv, c, o, th0, th1
	}
	// rebind puts thread 1 (which the trace has no reference for, so it
	// never predicts) on the ring thread 0 gave up and checks the
	// connection survived it.
	rebind := func(t *testing.T, c *client.Client, o *client.Oracle, th *client.Thread) {
		t.Helper()
		th.Submit(o.Intern(names[0]))
		if err := th.Subscribe(4, 1); err != nil {
			t.Fatalf("thread 1 did not get a ring: %v", err)
		}
		th.PredictAt(1) // a round trip behind the ring drain
		if err := c.Err(); err != nil || c.Stats().Reconnects != 0 {
			t.Fatalf("connection broke binding the freed ring: err %v, %d reconnects", err, c.Stats().Reconnects)
		}
	}

	t.Run("at MaxSessions", func(t *testing.T) {
		srv, c, o, th0, th1 := setup(t, Config{MaxSessions: 3})
		th0.StartAtBeginning()
		if got := srv.Sessions(); got != 3 {
			t.Fatalf("%d sessions after the restart, want 3", got)
		}
		th0.Submit(o.Intern(names[0]))
		if pr, ok := th0.PredictAt(1); !ok || pr.EventID != int32(o.Lookup(names[1])) {
			t.Fatalf("restarted thread 0 predicts %+v/%v, want %s next", pr, ok, names[1])
		}
		if h := o.Health(); h.State != pythia.Healthy {
			t.Fatalf("health after a restart at the limit: %s %q", h.State, h.Cause)
		}
		th1.PredictAt(1)
		if err := c.Err(); err != nil {
			t.Fatalf("connection: %v", err)
		}
	})

	for _, tc := range []struct {
		name string
		// refuse makes the daemon refuse new sessions; done, called once the
		// client has closed, waits for whatever refuse started.
		refuse func(t *testing.T, srv *Server) (done func())
		cause  string
	}{
		{"draining", func(t *testing.T, srv *Server) func() {
			shut := make(chan error, 1)
			go func() { shut <- srv.Shutdown() }()
			for !srv.draining.Load() {
				time.Sleep(time.Millisecond)
			}
			return func() {
				if err := <-shut; err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}
		}, "draining"},
		{"foreign shard", func(t *testing.T, srv *Server) func() {
			srv.ConfigureCluster("127.0.0.1:2", []string{"127.0.0.1:1"}, 1, 0)
			return func() {}
		}, "owned by"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, c, o, th0, th1 := setup(t, Config{DrainTimeout: 10 * time.Second})
			done := tc.refuse(t, srv)
			defer done()
			defer c.Close()
			th0.StartAtBeginning()
			if got := srv.Sessions(); got != 2 {
				t.Fatalf("%d sessions after the refused restart, want 2 (the old one retired)", got)
			}
			if _, ok := th0.PredictAt(1); ok {
				t.Fatal("thread 0 answered after its restart was refused")
			}
			if h := o.Health(); h.State != pythia.Degraded || !strings.Contains(h.Cause, tc.cause) {
				t.Fatalf("health = %s %q, want degraded by the refusal (%q)", h.State, h.Cause, tc.cause)
			}
			rebind(t, c, o, th1)
		})
	}
}
