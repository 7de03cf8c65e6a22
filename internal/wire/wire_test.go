package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/predictor"
)

// frameBytes builds the on-wire encoding of one frame.
func frameBytes(t Type, payload []byte) []byte {
	out := make([]byte, 0, 5+len(payload))
	out = appendU32(out, uint32(len(payload)+1))
	out = append(out, byte(t))
	return append(out, payload...)
}

func readOne(t *testing.T, raw []byte) (Type, []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(raw))
	var buf []byte
	typ, payload, err := ReadFrame(br, &buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return typ, payload
}

// roundTrip encodes m as a frame-t payload and decodes it into a fresh
// message value from the frame table.
func roundTrip(t *testing.T, typ Type, m Message) Message {
	t.Helper()
	got := New(typ)
	if err := Decode(typ, Append(nil, m), got); err != nil {
		t.Fatalf("%s round trip: %v", typ, err)
	}
	return got
}

// wantRoundTrip asserts m survives a frame-t round trip unchanged.
func wantRoundTrip(t *testing.T, typ Type, m Message) {
	t.Helper()
	if got := roundTrip(t, typ, m); !reflect.DeepEqual(got, m) {
		t.Fatalf("%s round trip: got %+v want %+v", typ, got, m)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	payload := AppendOpenSession(nil, OpenSession{TID: 3, Flags: FlagStartAtBeginning, Tenant: "bt"})
	if err := WriteFrame(bw, TOpenSession, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	typ, got := readOne(t, out.Bytes())
	if typ != TOpenSession {
		t.Fatalf("type = %v, want OpenSession", typ)
	}
	var o OpenSession
	if err := Decode(typ, got, &o); err != nil {
		t.Fatalf("decoding OpenSession: %v", err)
	}
	if o.TID != 3 || o.Flags != FlagStartAtBeginning || o.Tenant != "bt" {
		t.Fatalf("round trip = %+v", o)
	}
}

func TestReadFrameErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty stream", nil, io.EOF},
		{"torn header", []byte{0, 0, 1}, io.ErrUnexpectedEOF},
		{"zero length", []byte{0, 0, 0, 0}, ErrEmptyFrame},
		{"oversized", []byte{0xff, 0xff, 0xff, 0xff}, ErrFrameTooLarge},
		{"torn body", frameBytes(TPredictAt, make([]byte, 8))[:7], io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReader(bytes.NewReader(tc.raw))
			var buf []byte
			_, _, err := ReadFrame(br, &buf)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var raw []byte
	raw = append(raw, frameBytes(TPredictAt, AppendPredictAt(nil, 1, 7))...)
	raw = append(raw, frameBytes(TPredictAt, AppendPredictAt(nil, 1, 9))...)
	br := bufio.NewReader(bytes.NewReader(raw))
	buf := make([]byte, 0, 64)
	for i := 0; i < 2; i++ {
		_, payload, err := ReadFrame(br, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if _, _, err := ParsePredictAt(payload); err != nil {
			t.Fatalf("frame %d parse: %v", i, err)
		}
	}
	if cap(buf) != 64 {
		t.Fatalf("buffer was reallocated: cap = %d", cap(buf))
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	if err := WriteFrame(bw, TSubmitBatch, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestHello(t *testing.T) {
	var h Hello
	if err := Decode(THello, AppendHello(nil, HelloFlagResume), &h); err != nil || h.Version != Version || h.Flags != HelloFlagResume {
		t.Fatalf("Hello = %+v, %v", h, err)
	}
	// The flags byte is optional on the wire: a version-1 six-byte Hello
	// decodes with zero flags.
	h = Hello{}
	if err := Decode(THello, AppendHello(nil, 0)[:6], &h); err != nil || h.Version != Version || h.Flags != 0 {
		t.Fatalf("legacy Hello = %+v, %v", h, err)
	}
	bad := AppendHello(nil, 0)
	bad[0] ^= 0xff
	if err := Decode(THello, bad, new(Hello)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic err = %v", err)
	}
	short := Append(nil, &HelloOK{Version: Version})
	if len(short) != 2 {
		t.Fatalf("HelloOK without a grant is %d bytes, want the 2-byte short form", len(short))
	}
	wantRoundTrip(t, THelloOK, &HelloOK{Version: Version})
	wantRoundTrip(t, THelloOK, &HelloOK{Version: Version, Token: 0xdeadbeefcafe, WindowMs: 15000})
}

func TestSessionOpenedRoundTrip(t *testing.T) {
	cases := []SessionOpened{
		{Session: 1, HasPredictor: true, State: StateHealthy, Events: []string{"a", "b:1", ""}},
		{Session: 2, HasPredictor: false, State: StateDegraded, Events: []string{}},
		{Session: 3, HasPredictor: true, State: StateQuarantined, Events: nil},
	}
	for i, want := range cases {
		got, err := ParseSessionOpened(Append(nil, &want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestSessionOpenedDishonestCount(t *testing.T) {
	// A count field claiming far more descriptors than the payload holds
	// must fail before allocating the claimed capacity.
	p := appendU32(nil, 9)
	p = append(p, 1, StateHealthy, 1)
	p = appendU32(p, 1<<30)
	if _, err := ParseSessionOpened(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestSubmitBatchRoundTrip(t *testing.T) {
	ids := []int32{5, -1, 0, 1 << 20}
	s, b, err := ParseSubmitBatch(AppendSubmitBatch(nil, 9, ids))
	if err != nil || s != 9 {
		t.Fatalf("ParseSubmitBatch = %d, %v", s, err)
	}
	if b.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(ids))
	}
	for i, want := range ids {
		if got := b.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
	// Count/body mismatch in either direction is malformed.
	p := AppendSubmitBatch(nil, 9, ids)
	if _, _, err := ParseSubmitBatch(p[:len(p)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("torn batch err = %v", err)
	}
	binary.BigEndian.PutUint32(p[4:], uint32(len(ids)+1))
	if _, _, err := ParseSubmitBatch(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overcount batch err = %v", err)
	}
}

func TestPredictRoundTrips(t *testing.T) {
	s, d, err := ParsePredictAt(AppendPredictAt(nil, 3, 17))
	if err != nil || s != 3 || d != 17 {
		t.Fatalf("ParsePredictAt = %d, %d, %v", s, d, err)
	}
	wantRoundTrip(t, TPredictSequence, &SessionArg{Session: 4, Arg: 8})

	// Bit-exactness of float fields, including non-round values.
	want := predictor.Prediction{EventID: 11, Probability: 1.0 / 3.0, Distance: 5, ExpectedNs: 1234.5678e3}
	got, ok, err := ParsePrediction(AppendPrediction(nil, want, true))
	if err != nil || !ok {
		t.Fatalf("ParsePrediction: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("prediction round trip: got %+v want %+v", got, want)
	}
	if math.Float64bits(got.Probability) != math.Float64bits(want.Probability) {
		t.Fatal("probability bits differ")
	}

	preds := []predictor.Prediction{want, {EventID: -1, Probability: 0.25, Distance: 1, ExpectedNs: 0}}
	var gotSeq Predictions
	if err := Decode(TPredictions, Append(nil, &Predictions{Preds: preds}), &gotSeq); err != nil {
		t.Fatalf("decoding Predictions: %v", err)
	}
	if !reflect.DeepEqual(gotSeq.Preds, preds) {
		t.Fatalf("predictions round trip: got %+v want %+v", gotSeq.Preds, preds)
	}
	var empty Predictions
	if err := Decode(TPredictions, Append(nil, &Predictions{}), &empty); err != nil || empty.Preds != nil {
		t.Fatalf("empty predictions = %v, %v", empty.Preds, err)
	}
}

func TestHealthRoundTrip(t *testing.T) {
	wantRoundTrip(t, THealth, &TenantRef{Tenant: "cg"})
	wantRoundTrip(t, THealthInfo, &HealthInfo{
		State: StateDegraded, Oracles: 3, PanicsContained: 2, BudgetBreaches: 1,
		QuarantinedThreads: 4, CheckpointFailures: 5, Promotions: 6, Rollbacks: 7,
		Cause: "watchdog: thread 2 diverged",
	})
}

func TestCloseAndErrorRoundTrip(t *testing.T) {
	wantRoundTrip(t, TCloseSession, &SessionRef{Session: 77})
	wantRoundTrip(t, TSessionClosed, &SessionRef{Session: 77})
	// An Error without a retry-after hint is the short form on the wire;
	// with one, the hint rides as a trailing field. Both decode.
	plain := &RemoteError{Code: CodeDraining, Msg: "server draining"}
	hinted := &RemoteError{Code: CodeRetryLater, Msg: "shed", RetryAfterMs: 250}
	if n, want := len(Append(nil, plain)), 2+2+len(plain.Msg); n != want {
		t.Fatalf("plain Error is %d bytes, want the %d-byte short form", n, want)
	}
	wantRoundTrip(t, TError, plain)
	wantRoundTrip(t, TError, hinted)
	if hinted.Error() != "pythiad: retry later: shed" {
		t.Fatalf("Error() = %q", hinted.Error())
	}
}

func TestResumeRoundTrips(t *testing.T) {
	wantRoundTrip(t, TResume, &Uint64{V: 0x1122334455667788})
	wantRoundTrip(t, TResumed, &Resumed{Sessions: []SessionApplied{{Session: 0, Applied: 12}, {Session: 3, Applied: 1 << 40}}})
	wantRoundTrip(t, TResumed, &Resumed{})
	// A dishonest count must fail before allocating the claimed capacity.
	dishonest := appendU32(nil, 1<<30)
	if err := Decode(TResumed, dishonest, new(Resumed)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("dishonest resumed err = %v", err)
	}

	replay := &Replay{Session: 5, Base: 101, IDs: []int32{7, -2, 9}}
	wantRoundTrip(t, TReplay, replay)
	rp := Append(nil, replay)
	binary.BigEndian.PutUint32(rp[12:], uint32(len(replay.IDs)+1))
	if err := Decode(TReplay, rp, new(Replay)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overcount replay err = %v", err)
	}
	wantRoundTrip(t, TReplayed, &SessionApplied{Session: 5, Applied: 104})

	if p := Append(nil, &Empty{}); len(p) != 0 {
		t.Fatalf("%s payload = %x, want empty", TDetach, p)
	}
	wantRoundTrip(t, TDetach, &Empty{})
}

func TestModelLifecycleRoundTrips(t *testing.T) {
	wantRoundTrip(t, TModelInfo, &TenantRef{Tenant: "cg"})
	wantRoundTrip(t, TModelInfoR, &ModelInfo{
		Enabled: true, State: ModelWatching, ServingGeneration: 7,
		Promotions: 3, Rollbacks: 1, ShadowEpochs: 42, Retained: []uint64{7, 5},
	})
	// No retained generations encodes and decodes cleanly too.
	wantRoundTrip(t, TModelInfoR, &ModelInfo{})
	wantRoundTrip(t, TPromote, &TenantRef{Tenant: "cg"})
	wantRoundTrip(t, TRollback, &TenantRef{Tenant: "cg"})
	wantRoundTrip(t, TPromoted, &Uint64{V: 9})
	wantRoundTrip(t, TRolledBack, &Uint64{V: 10})
}

func TestClusterRoundTrips(t *testing.T) {
	wantRoundTrip(t, TShardMap, &Uint64{V: 42})
	wantRoundTrip(t, TShardMapR, &ShardMap{Epoch: 9, Replicas: 1, Daemons: []string{"127.0.0.1:9137", "unix:///run/pythiad.sock"}})
	// A non-clustered daemon answers with an empty map.
	wantRoundTrip(t, TShardMapR, &ShardMap{})
	wantRoundTrip(t, TFetchModel, &TenantRef{Tenant: "cg"})
	wantRoundTrip(t, TOfferModel, &ModelOffer{Tenant: "cg", Generation: 12, Source: "127.0.0.1:9137", Payload: []byte{9, 8, 7, 6, 5}})
	wantRoundTrip(t, TModelAccepted, &ModelAccepted{Accepted: false, HaveGen: 13})
}

// TestClusterDishonestCounts pins the untrusted-size clamps of the cluster
// frames: a count or size field larger than the payload can back must come
// back malformed, never sized into an allocation or slice bound.
func TestClusterDishonestCounts(t *testing.T) {
	// ShardMapR claiming 60k daemons in a 12-byte payload.
	p := Append(nil, &ShardMap{Epoch: 1, Replicas: 0, Daemons: []string{"a"}})
	p[9], p[10] = 0xff, 0xff // daemon count field
	if err := Decode(TShardMapR, p, new(ShardMap)); err == nil {
		t.Fatal("ShardMapR accepted a dishonest daemon count")
	}
	// ShardMapR claiming more daemons than MaxDaemons, with a payload big
	// enough to pass the bytes-per-entry check.
	many := make([]string, MaxDaemons)
	for i := range many {
		many[i] = "a"
	}
	p = Append(nil, &ShardMap{Epoch: 1, Daemons: many})
	p[9] = byte((MaxDaemons + 1) >> 8)
	p[10] = byte((MaxDaemons + 1) & 0xff)
	if err := Decode(TShardMapR, p, new(ShardMap)); err == nil {
		t.Fatal("ShardMapR accepted a daemon count past MaxDaemons")
	}
	// OfferModel claiming a model far larger than the payload carries.
	p = Append(nil, &ModelOffer{Tenant: "x", Generation: 1, Source: "a", Payload: []byte{1, 2}})
	p[len(p)-6] = 0xff // high byte of the size field
	if err := Decode(TOfferModel, p, new(ModelOffer)); err == nil {
		t.Fatal("OfferModel accepted a dishonest model size")
	}
	// ModelInfoR claiming more retained generations than bytes remain.
	p = Append(nil, &ModelInfo{Retained: []uint64{1}})
	p[len(p)-10], p[len(p)-9] = 0xff, 0xff // retained count field
	if err := Decode(TModelInfoR, p, new(ModelInfo)); err == nil {
		t.Fatal("ModelInfoR accepted a dishonest retained count")
	}
}

func TestShmRoundTrips(t *testing.T) {
	wantRoundTrip(t, TShmSetup, &ShmSetup{Rings: 8, Slots: 4096, PredCap: 64, SegSize: 3 << 20, Path: "/dev/shm/pythia-shm-42"})
	wantRoundTrip(t, TShmSetupOK, &ShmSetupOK{Rings: 8})
	wantRoundTrip(t, TShmBind, &SessionArg{Session: 5, Arg: 2})
	wantRoundTrip(t, TShmBound, &SessionArg{Session: 5, Arg: 2})
	wantRoundTrip(t, TSubscribe, &Subscribe{Session: 5, Horizon: 16, Every: 32})
	wantRoundTrip(t, TSubscribed, &SessionRef{Session: 5})
}

// goldenFrame is one line of testdata/frames.golden.
type goldenFrame struct {
	typ     Type
	name    string // frame name, "/variant" appended for the extra forms
	payload []byte
}

// loadGolden reads testdata/frames.golden: payloads written by the
// hand-paired encoders this package had before the frame table, one
// populated instance of every frame type plus the short and empty forms.
func loadGolden(tb testing.TB) []goldenFrame {
	tb.Helper()
	raw, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		tb.Fatal(err)
	}
	var rows []goldenFrame
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			tb.Fatalf("frames.golden: bad line %q", line)
		}
		n, err := strconv.Atoi(f[0])
		if err != nil {
			tb.Fatalf("frames.golden: %q: %v", line, err)
		}
		var p []byte
		if f[2] != "-" {
			if p, err = hex.DecodeString(f[2]); err != nil {
				tb.Fatalf("frames.golden: %q: %v", line, err)
			}
		}
		rows = append(rows, goldenFrame{typ: Type(n), name: f[1], payload: p})
	}
	return rows
}

// recode decodes a frame-typ payload and encodes what it decoded: through
// the frame table's message value, or — for the three hot-path frames the
// table has none for — through their hand-written pair.
func recode(typ Type, p []byte) ([]byte, error) {
	if m := New(typ); m != nil {
		if err := Decode(typ, p, m); err != nil {
			return nil, err
		}
		return Append(nil, m), nil
	}
	switch typ {
	case TSubmitBatch:
		s, b, err := ParseSubmitBatch(p)
		ids := make([]int32, b.Len())
		for i := range ids {
			ids[i] = b.At(i)
		}
		return AppendSubmitBatch(nil, s, ids), err
	case TPredictAt:
		s, d, err := ParsePredictAt(p)
		return AppendPredictAt(nil, s, d), err
	case TPrediction:
		pr, ok, err := ParsePrediction(p)
		return AppendPrediction(nil, pr, ok), err
	}
	return nil, errors.New("no codec for frame type " + typ.String())
}

// TestGoldenFrames is the cross-version compatibility check: every payload
// the pre-table encoders produced still decodes, and encodes back to the
// same bytes (a six-byte Hello gains its flags byte: encoders always wrote
// it, only decoders accept its absence).
func TestGoldenFrames(t *testing.T) {
	seen := make(map[Type]bool)
	for _, g := range loadGolden(t) {
		seen[g.typ] = true
		if base, _, _ := strings.Cut(g.name, "/"); base != g.typ.String() {
			t.Errorf("type %d is %q in the golden file, %q in the frame table", g.typ, base, g.typ)
		}
		got, err := recode(g.typ, g.payload)
		if err != nil {
			t.Errorf("%s: %v", g.name, err)
			continue
		}
		want := g.payload
		if g.name == "Hello/short" {
			want = append(append([]byte(nil), want...), 0)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-encoded %x, want %x", g.name, got, want)
		}
	}
	for typ := THello; typ <= TModelAccepted; typ++ {
		if !seen[typ] && !retired[typ] {
			t.Errorf("no golden payload for %s", typ)
		}
	}
	for _, short := range []string{"Hello/short", "HelloOK/short", "Error/short"} {
		found := false
		for _, g := range loadGolden(t) {
			found = found || g.name == short
		}
		if !found {
			t.Errorf("no golden payload for %s", short)
		}
	}
}

// retired lists the frame numbers taken out of the protocol (the
// single-event Submit and the Heartbeat pair): they have no table row and
// are never assigned again.
var retired = map[Type]bool{5: true, 26: true, 27: true}

// TestFrameTable checks the table against itself: rows 1..39 but the
// retired ones and nothing else, names unique, every request's reply is a
// row that flows back, and only the three hot-path frames lack a message
// value.
func TestFrameTable(t *testing.T) {
	for n, row := range frames {
		if (n < int(THello) || n > int(TModelAccepted) || retired[Type(n)]) && (row.name != "" || row.dir != 0 || row.reply != 0 || row.msg != nil) {
			t.Errorf("frame table has a row for unassigned type %d (%q)", n, row.name)
		}
	}
	names := make(map[string]Type)
	for typ := THello; typ <= TModelAccepted; typ++ {
		if retired[typ] {
			continue
		}
		row := frames[typ]
		if row.name == "" || row.dir == 0 {
			t.Errorf("type %d has no table row", typ)
			continue
		}
		if prev, dup := names[row.name]; dup {
			t.Errorf("types %d and %d share the name %q", prev, typ, row.name)
		}
		names[row.name] = typ
		if r := typ.Reply(); r != 0 {
			if row.dir == ToClient {
				t.Errorf("%s is a reply yet names %s as its own reply", typ, r)
			}
			if r.Dir() == ToServer || r.Dir() == 0 || (r.Reply() != 0 && r.Dir() != BothWays) {
				t.Errorf("%s is answered by %s, which is not a reply frame", typ, r)
			}
		}
		hot := typ == TSubmitBatch || typ == TPredictAt || typ == TPrediction
		if (New(typ) == nil) != hot {
			t.Errorf("%s: New = %v, hot-path = %v", typ, New(typ), hot)
		}
	}
	if got := Type(200).String(); got != "Type(200)" || New(200) != nil || Type(200).Reply() != 0 {
		t.Errorf("unknown type: String %q, New %v, Reply %v", got, New(200), Type(200).Reply())
	}
	if CodeWrongShard.String() != "wrong shard" || Code(0).String() != "Code(0)" || Code(99).String() != "Code(99)" {
		t.Errorf("code names: %q %q %q", CodeWrongShard, Code(0), Code(99))
	}
}

// TestDesignFrameReference holds DESIGN.md §10's frame reference — written
// from the frame table — against the table: number, name, direction, reply.
func TestDesignFrameReference(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]Dir{"c→s": ToServer, "s→c": ToClient, "both": BothWays}
	rows := 0
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Split(line, "|")
		if len(f) < 6 {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSpace(f[1]))
		if err != nil {
			continue // the header, the rule, or some other table
		}
		rows++
		typ, name, dir, reply := Type(n), strings.TrimSpace(f[2]), strings.TrimSpace(f[3]), strings.TrimSpace(f[4])
		wantReply := "—"
		if r := typ.Reply(); r != 0 {
			wantReply = r.String()
		}
		if name != typ.String() || dirs[dir] != typ.Dir() || reply != wantReply {
			t.Errorf("DESIGN.md row %d is %s %s reply %s; the frame table has %s direction %d reply %s",
				n, name, dir, reply, typ, typ.Dir(), wantReply)
		}
		if m := New(typ); m != nil {
			if goType := strings.TrimPrefix(fmt.Sprintf("%T", m), "*wire."); !strings.Contains(f[5], "`"+goType+"`") {
				t.Errorf("DESIGN.md row %d (%s) does not name its message type %s", n, name, goType)
			}
		}
	}
	if want := int(TModelAccepted) - len(retired); rows != want {
		t.Errorf("DESIGN.md's frame reference has %d rows, the frame table %d", rows, want)
	}
}

// TestTrailingBytesAreMalformed runs every golden payload through its
// frame's codec three ways: as written it decodes; with one byte appended it
// is malformed; cut short anywhere it is malformed too — unless the frame
// has an optional tail (Hello's flags, HelloOK's grant, Error's hint) and
// the cut is exactly its tail-less form, which must then be self-consistent.
func TestTrailingBytesAreMalformed(t *testing.T) {
	for _, g := range loadGolden(t) {
		if _, err := recode(g.typ, g.payload); err != nil {
			t.Errorf("%s rejected its own encoding: %v", g.name, err)
		}
		// (A byte after the flags-less Hello is its flags byte.)
		if _, err := recode(g.typ, append(append([]byte(nil), g.payload...), 0)); !errors.Is(err, ErrMalformed) && g.name != "Hello/short" {
			t.Errorf("%s with a trailing byte: err = %v, want ErrMalformed", g.name, err)
		}
		for n := 0; n < len(g.payload); n++ {
			cut := g.payload[:n]
			got, err := recode(g.typ, cut)
			switch {
			case err == nil && g.typ == THello && n == 6:
			case err == nil && (g.typ == THelloOK || g.typ == TError) && bytes.Equal(got, cut):
			case err == nil:
				t.Errorf("%s cut to %d bytes decoded (as %x)", g.name, n, got)
			case !errors.Is(err, ErrMalformed):
				t.Errorf("%s cut to %d bytes: err = %v, want ErrMalformed", g.name, n, err)
			}
		}
	}
}

func TestEncodeZeroAllocWithReusedBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	ids := []int32{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendSubmitBatch(buf[:0], 1, ids)
		buf = AppendPredictAt(buf[:0], 1, 16)
		buf = AppendPrediction(buf[:0], predictor.Prediction{EventID: 1}, true)
	})
	if allocs != 0 {
		t.Fatalf("hot-path encoders allocated %v/op with a reused buffer", allocs)
	}
}

func TestDecodeZeroAllocOnHotPath(t *testing.T) {
	batch := AppendSubmitBatch(nil, 1, []int32{1, 2, 3, 4})
	predictAt := AppendPredictAt(nil, 1, 16)
	allocs := testing.AllocsPerRun(100, func() {
		if _, b, err := ParseSubmitBatch(batch); err != nil || b.Len() != 4 {
			t.Fatal(err)
		}
		if _, _, err := ParsePredictAt(predictAt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot-path decoders allocated %v/op", allocs)
	}
}
