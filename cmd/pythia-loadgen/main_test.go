package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/pythia"
)

func epApp(t *testing.T) apps.App {
	t.Helper()
	app, err := apps.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// startDaemon records EP.small into a fresh trace directory and serves it
// in process on a tcp and a unix listener, like pythiad -listen twice.
func startDaemon(t *testing.T, learn *pythia.LearnPolicy) (tcpAddr, unixAddr string) {
	t.Helper()
	dir := t.TempDir()
	oracle := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	harness.RunMPIAppWithOracle(oracle, epApp(t), apps.Small, 42)
	ts, err := oracle.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if err := pythia.SaveTraceSet(filepath.Join(dir, "EP.pythia"), ts); err != nil {
		t.Fatalf("save: %v", err)
	}
	// A short private dir keeps the socket path inside the sun_path limit.
	sockDir, err := os.MkdirTemp("", "loadgen")
	if err != nil {
		t.Fatal(err)
	}
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	unixAddr = "unix://" + filepath.Join(sockDir, "d.sock")
	uln, err := transport.Listen(unixAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{TraceDir: dir, Learn: learn})
	serveErr := make(chan error, 2)
	go func() { serveErr <- srv.Serve(tln) }()
	go func() { serveErr <- srv.Serve(uln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		for i := 0; i < 2; i++ {
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
		}
		if err := os.RemoveAll(sockDir); err != nil {
			t.Error(err)
		}
	})
	return tln.Addr().String(), unixAddr
}

// count reads the integer in front of label on stdout ("8 clients").
func count(t *testing.T, out, label string) int {
	t.Helper()
	m := regexp.MustCompile(`(\d+) ` + label).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("stdout lacks %q:\n%s", label, out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"bad transport", []string{"-transport", "udp"}, "-transport must be tcp, unix, or shm"},
		{"rollback without promote", []string{"-drift", "-force-rollback", "10"}, "-force-rollback requires -force-promote"},
		{"drift on shm", []string{"-drift", "-transport", "shm"}, "-drift requires a socket transport"},
		{"daemons with chaos", []string{"-daemons", "a:1,b:2", "-chaos"}, "-daemons excludes -chaos and -drift"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tt.args, err, tt.want)
			}
		})
	}
}

// TestDrivesEveryTier replays EP.small over each transport tier of an
// in-process daemon: the run succeeds and every event reaches the daemon.
func TestDrivesEveryTier(t *testing.T) {
	tcpAddr, unixAddr := startDaemon(t, nil)
	events := 0
	for _, stream := range harness.CaptureStreams(epApp(t), apps.Small, 42) {
		events += len(stream)
	}
	for _, tier := range []struct{ transport, addr string }{
		{"tcp", tcpAddr}, {"unix", unixAddr}, {"shm", unixAddr},
	} {
		t.Run(tier.transport, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-addr", tier.addr, "-transport", tier.transport,
				"-clients", "2", "-predict-every", "4", "-distance", "4"}, &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if got := count(t, out.String(), "events"); got != 2*events {
				t.Errorf("submitted %d events, want %d:\n%s", got, 2*events, out.String())
			}
			if count(t, out.String(), "reconnects") != 0 || strings.Contains(out.String(), "oracle health") {
				t.Errorf("clean run reports trouble:\n%s", out.String())
			}
		})
	}
}

// TestDriftForcesLifecycle is the learn leg: a drifted replay against a
// learning daemon with a forced promotion and a forced rollback, both of
// which must show in the printed lifecycle counters.
func TestDriftForcesLifecycle(t *testing.T) {
	tcpAddr, _ := startDaemon(t, &pythia.LearnPolicy{EpochEvents: 64})
	var out bytes.Buffer
	err := run([]string{"-addr", tcpAddr, "-clients", "1", "-predict-every", "4",
		"-repeat", "40", "-drift", "-force-promote", "300", "-force-rollback", "300"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, label := range []string{"promotions", "rollbacks"} {
		if n := count(t, out.String(), label); n < 1 {
			t.Errorf("%s = %d, want >= 1:\n%s", label, n, out.String())
		}
	}
}
