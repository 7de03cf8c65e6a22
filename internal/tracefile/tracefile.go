// Package tracefile implements Pythia's versioned binary trace file format.
// A trace file stores what PYTHIA-RECORD produces at the end of a reference
// execution (paper section II-A): the shared event descriptor table and,
// per recorded thread, the grammar and the optional timing model. Subsequent
// executions load the file and hand it to PYTHIA-PREDICT.
//
// Layout (all integers are unsigned varints unless noted; signed values use
// zig-zag varints):
//
//	magic   [8]byte  "PYTHIA1\n"
//	version uvarint  (Version)
//	payload          (sections below)
//	crc32   4 bytes  little-endian IEEE CRC of the payload
//
// Payload:
//
//	eventCount, then each descriptor as (len, bytes)
//	threadCount, then per thread:
//	  tid      (zig-zag)
//	  flags    uvarint (bit 0: truncated by a record budget);
//	           if truncated: dropped event count (uvarint)
//	  ruleCount, then per rule: runCount, then per run (sym zig-zag, count)
//	  timingFlag (0/1); if 1:
//	    suffixCount, per entry: (keyLen, keyBytes, stat)
//	    eventStatCount, per entry: (eventID zig-zag, stat)
//	  where stat = (count, sum zig-zag, min zig-zag, max zig-zag)
//	provenanceFlag (0/1); if 1:
//	  generation uvarint
//	  provFlags  uvarint (bit 0: salvaged by recovery; bit 1: lineage follows;
//	             bit 2: replicated-from follows)
//	  if lineage:
//	    kind      uvarint (checkpoint/promotion/rollback)
//	    parent    uvarint (generation this one descends from)
//	    unixNanos svarint (mint time, 0 when unrecorded)
//	  if replicated:
//	    replicatedFrom (len, bytes) — source daemon address
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/grammar"
	"repro/internal/model"
)

// Magic identifies Pythia trace files.
var Magic = [8]byte{'P', 'Y', 'T', 'H', 'I', 'A', '1', '\n'}

// Version is the format version Write emits and the only one Read accepts.
// Its optional provenance record carries the checkpoint generation and
// salvage mark, the generation lineage (kind, parent, mint time) written by
// the online-learning model lifecycle, and the replication origin (source
// daemon address) stamped on generations shipped between daemons.
const Version = 5

// threadFlagTruncated marks a thread trace frozen by a record budget.
const threadFlagTruncated = 1

// provFlagSalvaged marks a trace set reconstructed by Recover.
const provFlagSalvaged = 1

// provFlagLineage marks a provenance record carrying lineage fields.
const provFlagLineage = 2

// provFlagReplicated marks a provenance record carrying the address of the
// daemon the generation was replicated from.
const provFlagReplicated = 4

// maxReasonable bounds untrusted length fields while decoding.
const maxReasonable = 1 << 31

// Write serialises the trace set to w.
func Write(w io.Writer, ts *model.TraceSet) error {
	if err := ts.Validate(); err != nil {
		return fmt.Errorf("tracefile: refusing to write invalid trace set: %w", err)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.Write(Magic[:]); err != nil {
		return err
	}
	// The magic is not part of the checksummed payload; reset after it.
	if err := bw.Flush(); err != nil {
		return err
	}
	crc.Reset()

	e := &encoder{w: bw}
	e.uvarint(Version)
	e.uvarint(uint64(len(ts.Events)))
	for _, name := range ts.Events {
		e.bytes([]byte(name))
	}
	tids := ts.ThreadIDs()
	e.uvarint(uint64(len(tids)))
	for _, tid := range tids {
		th := ts.Threads[tid]
		e.svarint(int64(tid))
		var flags uint64
		if th.Truncated {
			flags |= threadFlagTruncated
		}
		e.uvarint(flags)
		if th.Truncated {
			e.uvarint(uint64(th.Dropped))
		}
		e.grammar(th.Grammar)
		e.timing(th.Timing)
	}
	if p := ts.Provenance; p == nil {
		e.uvarint(0)
	} else {
		e.uvarint(1)
		e.uvarint(p.Generation)
		var pf uint64
		if p.Salvaged {
			pf |= provFlagSalvaged
		}
		lineage := p.Kind != model.ProvCheckpoint || p.Parent != 0 || p.UnixNanos != 0
		if lineage {
			pf |= provFlagLineage
		}
		if p.ReplicatedFrom != "" {
			pf |= provFlagReplicated
		}
		e.uvarint(pf)
		if lineage {
			e.uvarint(uint64(p.Kind))
			e.uvarint(p.Parent)
			e.svarint(p.UnixNanos)
		}
		if p.ReplicatedFrom != "" {
			e.bytes([]byte(p.ReplicatedFrom))
		}
	}
	if e.err != nil {
		return e.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// Read deserialises a trace set from r, verifying magic, version and
// checksum, and rebuilding all derived grammar data.
func Read(r io.Reader) (*model.TraceSet, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("tracefile: bad magic %q", magic[:])
	}
	crc := crc32.NewIEEE()
	d := &decoder{r: br, crc: crc}

	version := d.uvarint()
	if d.err == nil && version != Version {
		return nil, fmt.Errorf("tracefile: unsupported version %d", version)
	}
	nEvents := d.uvarint()
	if nEvents > maxReasonable {
		return nil, fmt.Errorf("tracefile: absurd event count %d", nEvents)
	}
	events := make([]string, 0, nEvents)
	for i := uint64(0); i < nEvents && d.err == nil; i++ {
		events = append(events, string(d.bytes()))
	}
	ts := &model.TraceSet{Events: events, Threads: make(map[int32]*model.ThreadTrace)}
	nThreads := d.uvarint()
	if nThreads > maxReasonable {
		return nil, fmt.Errorf("tracefile: absurd thread count %d", nThreads)
	}
	for i := uint64(0); i < nThreads && d.err == nil; i++ {
		tid := int32(d.svarint())
		th := &model.ThreadTrace{}
		if d.uvarint()&threadFlagTruncated != 0 {
			th.Truncated = true
			dropped := d.uvarint()
			if dropped > maxReasonable {
				return nil, fmt.Errorf("tracefile: absurd dropped-event count %d", dropped)
			}
			th.Dropped = int64(dropped)
		}
		g, err := d.grammar()
		if err != nil {
			return nil, err
		}
		th.Grammar = g
		th.Timing = d.timing()
		ts.Threads[tid] = th
	}
	if d.uvarint() != 0 {
		p := &model.Provenance{Generation: d.uvarint()}
		pf := d.uvarint()
		p.Salvaged = pf&provFlagSalvaged != 0
		if pf&provFlagLineage != 0 {
			p.Kind = model.ProvKind(d.uvarint())
			p.Parent = d.uvarint()
			p.UnixNanos = d.svarint()
		}
		if pf&provFlagReplicated != 0 {
			p.ReplicatedFrom = string(d.bytes())
		}
		ts.Provenance = p
	}
	if d.err != nil {
		return nil, fmt.Errorf("tracefile: decode: %w", d.err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc.Sum32() {
		return nil, fmt.Errorf("tracefile: checksum mismatch (file %08x, computed %08x)", got, crc.Sum32())
	}
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("tracefile: decoded trace set invalid: %w", err)
	}
	return ts, nil
}

// crashHook, when set, is invoked at named points of the durable-write path
// (see the point constants below). It exists solely for fault injection: the
// chaos suite arms it with a hook that kills the process — optionally
// tearing the file it was handed first — to prove that recovery survives a
// crash at every point. Nil in production; an atomic pointer so test
// processes can arm it without racing the background checkpoint writer.
var crashHook atomic.Pointer[func(point, path string)]

// Crash points passed to the hook installed with SetCrashHook.
const (
	// CrashSaveCreatedTemp: the temp file exists but holds no payload yet.
	CrashSaveCreatedTemp = "save.created-temp"
	// CrashSaveWroteTemp: payload written and fsynced, rename not yet done.
	CrashSaveWroteTemp = "save.wrote-temp"
	// CrashSaveRenamed: the rename to the final name happened.
	CrashSaveRenamed = "save.renamed"
	// CrashJournalWroteGen: a checkpoint generation file is complete.
	CrashJournalWroteGen = "journal.wrote-gen"
	// CrashJournalRotated: old checkpoint generations were pruned.
	CrashJournalRotated = "journal.rotated"
)

// SetCrashHook installs (or, with nil, removes) the fault-injection hook.
// Test-only; see internal/faultinject.CrashSpec.
func SetCrashHook(h func(point, path string)) {
	if h == nil {
		crashHook.Store(nil)
		return
	}
	crashHook.Store(&h)
}

// hookAt fires the crash hook, if armed, at a named point.
func hookAt(point, path string) {
	if h := crashHook.Load(); h != nil {
		(*h)(point, path)
	}
}

// Save writes the trace set to path atomically and durably: the temp file
// is fsynced before the rename (rename alone is atomic but not
// crash-durable — after a power cut the new name could point at missing
// data), and the parent directory is fsynced best-effort after it so the
// rename itself survives a crash.
func Save(path string, ts *model.TraceSet) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	hookAt(CrashSaveCreatedTemp, tmp)
	err = Write(f, ts)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if rmErr := os.Remove(tmp); rmErr != nil {
			err = errors.Join(err, rmErr)
		}
		return err
	}
	hookAt(CrashSaveWroteTemp, tmp)
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	hookAt(CrashSaveRenamed, path)
	// Durability of the rename requires the directory entry to hit disk.
	// Best-effort: some platforms/filesystems reject fsync on directories.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// FileMeta is the durability-relevant metadata of a trace file, obtainable
// even when the payload does not decode (pythia-inspect reports it for
// damaged files).
type FileMeta struct {
	// Version is the format version claimed by the file header.
	Version uint64
	// PayloadBytes is the checksummed payload size (magic and CRC trailer
	// excluded).
	PayloadBytes int64
	// CRCStored is the checksum in the file trailer; CRCComputed is the
	// checksum of the payload as found on disk. CRCOK reports their match.
	CRCStored, CRCComputed uint32
	CRCOK                  bool
}

// InspectFile reads the durability metadata of a trace file without
// decoding the payload: magic, claimed format version, payload size, and
// whether the CRC trailer matches the payload bytes. It succeeds on files
// whose payload is corrupt (that is its point); it fails only when the file
// is too short to carry the fixed framing or the magic is wrong.
func InspectFile(path string) (FileMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FileMeta{}, err
	}
	return inspectRaw(data)
}

func inspectRaw(data []byte) (FileMeta, error) {
	var m FileMeta
	if len(data) < len(Magic)+1+4 {
		return m, fmt.Errorf("tracefile: file too short (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != Magic {
		return m, fmt.Errorf("tracefile: bad magic %q", data[:8])
	}
	payload := data[len(Magic) : len(data)-4]
	m.PayloadBytes = int64(len(payload))
	m.CRCStored = binary.LittleEndian.Uint32(data[len(data)-4:])
	m.CRCComputed = crc32.ChecksumIEEE(payload)
	m.CRCOK = m.CRCStored == m.CRCComputed
	version, n := binary.Uvarint(payload)
	if n <= 0 {
		return m, fmt.Errorf("tracefile: unreadable version field")
	}
	m.Version = version
	return m, nil
}

// Load reads a trace set from path.
func Load(path string) (*model.TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ts, err := Read(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		return nil, fmt.Errorf("tracefile: closing %s: %w", path, cerr)
	}
	return ts, err
}

// --- encoder ---------------------------------------------------------------

type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *encoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) svarint(v int64) {
	if e.err != nil {
		return
	}
	n := binary.PutVarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *encoder) grammar(f *grammar.Frozen) {
	e.uvarint(uint64(len(f.Rules)))
	for _, r := range f.Rules {
		e.uvarint(uint64(len(r.Body)))
		for _, run := range r.Body {
			e.svarint(int64(run.Sym))
			e.uvarint(uint64(run.Count))
		}
	}
}

func (e *encoder) stat(s model.Stat) {
	e.uvarint(uint64(s.Count))
	e.svarint(s.Sum)
	e.svarint(s.Min)
	e.svarint(s.Max)
}

func (e *encoder) timing(t *model.Timing) {
	if t == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(1)
	// Deterministic output: sort keys.
	keys := make([]string, 0, len(t.BySuffix))
	for k := range t.BySuffix {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.bytes([]byte(k))
		e.stat(t.BySuffix[k])
	}
	ids := make([]int32, 0, len(t.ByEvent))
	for id := range t.ByEvent {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.svarint(int64(id))
		e.stat(t.ByEvent[id])
	}
}

// --- decoder ---------------------------------------------------------------

type decoder struct {
	r   *bufio.Reader
	crc hash.Hash32 // running payload checksum; hash writes never fail
	err error
}

func (d *decoder) readByte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return 0
	}
	d.crc.Write([]byte{b})
	return b
}

func (d *decoder) uvarint() uint64 {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b := d.readByte()
		if d.err != nil {
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
	d.err = fmt.Errorf("varint too long")
	return 0
}

func (d *decoder) svarint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxReasonable {
		d.err = fmt.Errorf("absurd byte length %d", n)
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return nil
	}
	d.crc.Write(buf)
	return buf
}

func (d *decoder) grammar() (*grammar.Frozen, error) {
	nRules := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if nRules > maxReasonable {
		return nil, fmt.Errorf("tracefile: absurd rule count %d", nRules)
	}
	bodies := make([][]grammar.Run, nRules)
	for i := range bodies {
		nRuns := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if nRuns > maxReasonable {
			return nil, fmt.Errorf("tracefile: absurd run count %d", nRuns)
		}
		body := make([]grammar.Run, nRuns)
		for j := range body {
			body[j].Sym = grammar.Sym(d.svarint())
			body[j].Count = uint32(d.uvarint())
		}
		bodies[i] = body
	}
	if d.err != nil {
		return nil, d.err
	}
	return grammar.NewFrozen(bodies)
}

func (d *decoder) stat() model.Stat {
	var s model.Stat
	s.Count = int64(d.uvarint())
	s.Sum = d.svarint()
	s.Min = d.svarint()
	s.Max = d.svarint()
	return s
}

func (d *decoder) timing() *model.Timing {
	flag := d.uvarint()
	if d.err != nil || flag == 0 {
		return nil
	}
	t := model.NewTiming()
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := string(d.bytes())
		t.BySuffix[k] = d.stat()
	}
	m := d.uvarint()
	for i := uint64(0); i < m && d.err == nil; i++ {
		id := int32(d.svarint())
		t.ByEvent[id] = d.stat()
	}
	return t
}
