package core

// Crash-safe recording (this file): a record-mode session can journal
// incremental checkpoints of its in-progress trace so that a process death
// (OOM kill, walltime limit, node failure) loses at most one checkpoint
// interval instead of the whole reference execution.
//
// The hot path stays hot: each recording thread takes a cheap consistent
// snapshot of its own state every EveryEvents events (a grammar Freeze on
// the only goroutine allowed to touch the live grammar — no locks, no
// stop-the-world) and hands it to the session checkpointer, which does all
// expensive work (timing-model replay, encoding, fsync'd writes, rotation)
// on one background goroutine. Write failures are retried with backoff and
// then surfaced as Degraded health — recording itself continues unharmed;
// the checkpointer never panics the host and never stalls a Submit.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/recorder"
	"repro/internal/tracefile"
)

// CheckpointPolicy configures crash-safe journaled checkpoints of a
// recording session. The zero Dir disables checkpointing.
type CheckpointPolicy struct {
	// Dir is the journal directory (created if missing). Checkpoint
	// generations are written as Dir/trace.ckpt.<N>; recover them with
	// tracefile.Recover after a crash.
	Dir string
	// EveryEvents is the per-thread snapshot cadence in events, and —
	// when set — the write trigger: a new generation is written as soon
	// as any thread delivers a fresh snapshot. Zero selects the default
	// cadence (DefaultCheckpointEvents) with writes driven by Interval
	// alone.
	EveryEvents int64
	// Interval, when non-zero, writes a generation at this wall-clock
	// period (provided anything changed since the previous one).
	Interval time.Duration
	// Keep is the number of generations retained (tracefile.DefaultKeep
	// when zero or negative).
	Keep int
}

// DefaultCheckpointEvents is the per-thread snapshot cadence used when a
// policy enables checkpointing without choosing EveryEvents: frequent
// enough that an Interval-driven write always finds fresh state, rare
// enough that the Freeze cost disappears in the noise.
const DefaultCheckpointEvents = 4096

// enabled reports whether the policy asks for checkpointing at all.
func (p CheckpointPolicy) enabled() bool { return p.Dir != "" }

// snapEvery returns the per-thread snapshot cadence to install.
func (p CheckpointPolicy) snapEvery() int64 {
	if p.EveryEvents > 0 {
		return p.EveryEvents
	}
	return DefaultCheckpointEvents
}

// snapCollector gathers the latest snapshot each recording thread offers
// and turns them into a trace set on demand. Both background consumers of
// snapshots embed one: the checkpointer writes what it collects to the
// journal, the learner publishes it as the shadow candidate.
type snapCollector struct {
	reg *events.Registry

	// mu guards the offer side. Offers come from recording threads at their
	// snapshot cadence; seq counts them, so a snapshot's seq tells fresh
	// from stale and seq != taken means something changed since the last
	// collect.
	mu    sync.Mutex
	snaps map[int32]snapEntry
	seq   uint64
	taken uint64

	// mat caches each thread's materialized snapshot: collect re-runs the
	// timing replay only for threads that advanced. Collects are serialized
	// by the owner (checkpointer.flushMu, learner.opMu).
	mat map[int32]matEntry
}

type snapEntry struct {
	snap recorder.Checkpoint
	seq  uint64
}

type matEntry struct {
	seq uint64
	tt  *model.ThreadTrace
}

func newSnapCollector(reg *events.Registry) snapCollector {
	return snapCollector{reg: reg, snaps: make(map[int32]snapEntry), mat: make(map[int32]matEntry)}
}

// offer records the latest snapshot of one thread.
func (sc *snapCollector) offer(tid int32, snap recorder.Checkpoint) {
	sc.mu.Lock()
	sc.seq++
	sc.snaps[tid] = snapEntry{snap: snap, seq: sc.seq}
	sc.mu.Unlock()
}

// collect builds a trace set from the latest snapshot of every thread. It
// returns nil when no thread has offered one yet, or — unless force is set —
// when none has since the previous collect.
func (sc *snapCollector) collect(force bool) *model.TraceSet {
	sc.mu.Lock()
	if len(sc.snaps) == 0 || (!force && sc.seq == sc.taken) {
		sc.mu.Unlock()
		return nil
	}
	sc.taken = sc.seq
	snaps := make(map[int32]snapEntry, len(sc.snaps))
	for tid, e := range sc.snaps {
		snaps[tid] = e
	}
	sc.mu.Unlock()

	threads := make(map[int32]*model.ThreadTrace, len(snaps))
	for tid, e := range snaps {
		m, ok := sc.mat[tid]
		if !ok || m.seq != e.seq {
			m = matEntry{seq: e.seq, tt: e.snap.Materialize()}
			sc.mat[tid] = m
		}
		threads[tid] = m.tt
	}
	// The registry read happens after the snapshots were taken, so the
	// descriptor table is always a superset of the ids any grammar uses.
	return &model.TraceSet{Events: sc.reg.Names(), Threads: threads}
}

// checkpointer owns the journal and the background write loop of one
// recording session.
type checkpointer struct {
	snapCollector

	sess *Session
	pol  CheckpointPolicy
	j    *tracefile.Journal

	// flushMu serializes flushes (the background loop and CheckpointNow).
	flushMu sync.Mutex

	notify    chan struct{} // event-count write trigger (cap 1)
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// maxWriteAttempts and the backoff ladder bound how long one generation
// write may fight a failing filesystem before degrading.
const maxWriteAttempts = 3

var writeBackoff = [...]time.Duration{10 * time.Millisecond, 100 * time.Millisecond}

// maxWriteFailures is how many failed generations the loop tolerates
// before giving up on the journal for the rest of the session (a dead disk
// does not heal; hammering it would only burn cycles).
const maxWriteFailures = 2

// newCheckpointer opens the journal and starts the write loop. On journal
// open failure it returns nil after degrading the session health: the
// recording keeps working, it just is not crash-safe — exactly the
// fail-open contract.
func newCheckpointer(s *Session, pol CheckpointPolicy) *checkpointer {
	j, err := tracefile.OpenJournal(pol.Dir, pol.Keep)
	if err != nil {
		s.health.noteCheckpointFailure(err)
		return nil
	}
	c := &checkpointer{
		snapCollector: newSnapCollector(s.reg),
		sess:          s,
		pol:           pol,
		j:             j,
		notify:        make(chan struct{}, 1),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	go c.run()
	return c
}

// offer records the latest snapshot of one thread and, when the policy
// writes on event count, nudges the background loop. Called from recording
// threads at their snapshot cadence — off the per-event hot path.
func (c *checkpointer) offer(tid int32, snap recorder.Checkpoint) {
	c.snapCollector.offer(tid, snap)
	if c.pol.EveryEvents > 0 {
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
}

// run is the background write loop: it wakes on the event-count trigger
// and/or the wall-clock ticker, writes a generation when anything changed,
// and retires itself after persistent write failures or shutdown.
func (c *checkpointer) run() {
	defer close(c.done)
	var tick <-chan time.Time
	if c.pol.Interval > 0 {
		t := time.NewTicker(c.pol.Interval)
		defer t.Stop()
		tick = t.C
	}
	failures := 0
	for {
		select {
		case <-c.stop:
			// Final drain: a snapshot offered but not yet written is one
			// fsync away from durable — write it rather than drop it, so
			// the journal always covers the recording's tail at shutdown.
			if err := c.flush(); err != nil {
				c.sess.health.noteCheckpointFailure(err)
			}
			return
		case <-c.notify:
		case <-tick:
		}
		if err := c.flush(); err != nil {
			failures++
			c.sess.health.noteCheckpointFailure(err)
			if failures >= maxWriteFailures {
				return
			}
		}
	}
}

// flush writes one generation holding the latest snapshot of every thread,
// if anything changed since the previous generation.
func (c *checkpointer) flush() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()

	ts := c.collect(false)
	if ts == nil {
		return nil
	}

	var err error
	for attempt := 0; attempt < maxWriteAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-c.stop:
				return err
			case <-time.After(writeBackoff[attempt-1]):
			}
		}
		if _, err = c.j.WriteGeneration(ts); err == nil {
			return nil
		}
	}
	return fmt.Errorf("checkpoint write failed after %d attempts: %w", maxWriteAttempts, err)
}

// shutdownTimeout bounds how long FinishRecord waits for an in-flight
// checkpoint write — a hung filesystem must not stall the host runtime's
// shutdown path.
const shutdownTimeout = 5 * time.Second

// close stops the write loop and waits (bounded) for it to drain. Safe to
// call more than once (FinishRecord may be retried by a confused host).
func (c *checkpointer) close() {
	c.closeOnce.Do(func() { close(c.stop) })
	select {
	case <-c.done:
	case <-time.After(shutdownTimeout):
	}
}

// CheckpointNow synchronously writes a checkpoint generation from the
// latest per-thread snapshots, if any thread delivered one since the last
// generation. It exists for deterministic tests and for hosts that want a
// generation at a known boundary (e.g. the end of an application phase);
// steady-state checkpointing needs no manual calls. It is an error when
// checkpointing is not enabled on this session.
func (s *Session) CheckpointNow() error {
	if s.ckpt == nil {
		return fmt.Errorf("core: CheckpointNow on a session without checkpointing")
	}
	return s.ckpt.flush()
}

// CheckpointGeneration returns the generation number the next checkpoint
// write will use (diagnostics), or 0 when checkpointing is off.
func (s *Session) CheckpointGeneration() uint64 {
	if s.ckpt == nil {
		return 0
	}
	s.ckpt.flushMu.Lock()
	defer s.ckpt.flushMu.Unlock()
	return s.ckpt.j.NextGeneration()
}
