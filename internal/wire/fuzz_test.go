package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzWireDecode feeds raw byte streams through the frame reader and every
// frame's codec. Truncated, torn, and version-skewed inputs must come back
// as errors — never a panic, and never an allocation sized from an
// unvalidated length field. The final check pins the allocation bound: no
// single decode may retain or request more than MaxFrame bytes.
func FuzzWireDecode(f *testing.F) {
	// Seed with every golden payload — whole and torn — framed as every
	// frame type in the table, so each codec also sees its neighbours'
	// layouts.
	golden := loadGolden(f)
	for t := THello; t <= TModelAccepted; t++ {
		for _, g := range golden {
			f.Add(uint8(t), frameBytes(t, g.payload))
			if len(g.payload) > 0 {
				f.Add(uint8(t), frameBytes(t, g.payload[:len(g.payload)/2])) // torn payload
			}
		}
	}
	// Version-skewed hello and hostile length prefixes.
	skew := AppendHello(nil, 0)
	skew[5] ^= 0xff // low version byte, not the trailing flags byte
	f.Add(uint8(THello), frameBytes(THello, skew))
	f.Add(uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add(uint8(0), []byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, firstType uint8, raw []byte) {
		br := bufio.NewReader(bytes.NewReader(raw))
		buf := make([]byte, 0, 512)
		for frames := 0; frames < 64; frames++ {
			typ, payload, err := ReadFrame(br, &buf)
			if err != nil {
				break
			}
			if len(payload)+1 > MaxFrame {
				t.Fatalf("ReadFrame returned %d-byte payload past MaxFrame", len(payload))
			}
			decodeAs(t, typ, payload)
			// The first decoded frame also gets parsed as the fuzzer's
			// chosen type, exercising type/payload mismatches.
			if frames == 0 {
				decodeAs(t, Type(firstType), payload)
			}
		}
		if cap(buf) > MaxFrame {
			t.Fatalf("frame buffer grew to %d, past MaxFrame", cap(buf))
		}
	})
}

// decodeAs runs the payload through the codec the frame table names
// for typ (none for an unknown type); any outcome but a panic or an
// oversized result is acceptable. Oversized, for every frame alike: what was
// decoded must encode back into no more bytes than the payload it came from
// (one more for Hello, whose flags byte decoders may find absent but
// encoders always write) — so no count or length field was honoured beyond
// the bytes backing it.
func decodeAs(t *testing.T, typ Type, payload []byte) {
	t.Helper()
	if typ.Dir() == 0 {
		return
	}
	got, err := recode(typ, payload)
	if err == nil && len(got) > len(payload)+1 {
		t.Fatalf("%s: a %d-byte payload decoded into %d bytes' worth of fields", typ, len(payload), len(got))
	}
}
