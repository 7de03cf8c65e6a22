package fixture

import (
	"encoding/binary"
	"errors"
	"io"

	"fixture/transport"
	"fixture/wire"
)

const maxRecords = 1 << 12

// DecodeRecordsClamped is the corrected twin of DecodeRecords: the count
// passes a dominating bound check before sizing anything.
func DecodeRecordsClamped(r io.Reader, hdr []byte) ([]uint64, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > maxRecords {
		n = maxRecords
	}
	out := make([]uint64, n)
	if err := binary.Read(r, binary.BigEndian, out); err != nil {
		return nil, err
	}
	return out, nil
}

// FillPayloadChecked validates the wire length against the buffer instead
// of clamping — rejecting is as good as clamping.
func FillPayloadChecked(r io.Reader, hdr, buf []byte) error {
	n := binary.BigEndian.Uint16(hdr)
	if int(n) > len(buf) {
		return errors.New("fixture: length exceeds buffer")
	}
	_, err := io.ReadFull(r, buf[:n])
	return err
}

// FillPayloadMin clamps with the min builtin, the other accepted shape.
func FillPayloadMin(r io.Reader, hdr, buf []byte) error {
	n := min(int(binary.BigEndian.Uint16(hdr)), len(buf))
	_, err := io.ReadFull(r, buf[:n])
	return err
}

// DecodeTrusted is covered by the annotation escape hatch: the header was
// validated by the caller (documented there), so the analyzer skips it.
// pythia:trusted-input — hdr is produced by DecodeRecordsClamped.
func DecodeTrusted(hdr []byte) []uint64 {
	return make([]uint64, binary.BigEndian.Uint32(hdr))
}

const (
	maxRings = 256
	maxSlots = 1 << 18
)

// MapSegmentRingsValidated is the corrected twin of MapSegmentRings:
// geometry passes explicit relational bounds before sizing anything — the
// guard shape the daemon's shm setup uses (an opaque Validate() call would
// not dominate the allocations in the analyzer's flow approximation).
func MapSegmentRingsValidated(seg []byte) ([][]uint64, error) {
	rings := binary.LittleEndian.Uint32(seg[8:])
	slots := binary.LittleEndian.Uint64(seg[16:])
	if rings < 1 || rings > maxRings {
		return nil, errors.New("fixture: ring count out of range")
	}
	if slots < 64 || slots > maxSlots {
		return nil, errors.New("fixture: slot count out of range")
	}
	table := make([][]uint64, rings)
	for i := range table {
		table[i] = make([]uint64, slots)
	}
	return table, nil
}

const (
	maxDaemons    = 256
	maxModelBytes = 1 << 20
)

// ParseDaemonListClamped is the corrected twin of ParseDaemonList: the
// count must pass both the protocol ceiling and the bytes-actually-present
// bound — the guard shape wire.ParseShardMapR uses.
func ParseDaemonListClamped(frame []byte) ([]string, error) {
	n := int(binary.BigEndian.Uint16(frame[9:]))
	if n > maxDaemons || n > (len(frame)-11)/2 {
		return nil, errors.New("fixture: daemon count exceeds frame")
	}
	return make([]string, n), nil
}

// ReceiveModelChecked is the corrected twin of ReceiveModel: offers larger
// than the frame ceiling are rejected before sizing anything, as
// wire.ParseOfferModel does.
func ReceiveModelChecked(r io.Reader, hdr []byte) ([]byte, error) {
	size := binary.BigEndian.Uint32(hdr)
	if size > maxModelBytes {
		return nil, errors.New("fixture: model exceeds frame ceiling")
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

const maxAnswers = 1 << 10

// ServeQueryClamped is the corrected twin of ServeQuery.
func ServeQueryClamped(m *wire.Query) []uint64 {
	n := m.Count
	if n > maxAnswers {
		n = maxAnswers
	}
	return make([]uint64, n)
}

// ReadQueryChecked is the corrected twin of ReadQuery.
func ReadQueryChecked(p []byte) ([]uint64, error) {
	var q wire.Query
	if err := wire.Decode(p, &q); err != nil {
		return nil, err
	}
	if q.Count > maxAnswers {
		return nil, errors.New("fixture: count exceeds the answer ceiling")
	}
	return make([]uint64, q.Count), nil
}

// MapOfferedValidated is the corrected twin of MapOffered: each geometry
// field passes its range check before the geometry is built.
func MapOfferedValidated(m *wire.Setup, seg []byte) ([][]byte, error) {
	if m.Rings < 1 || m.Rings > maxRings {
		return nil, errors.New("fixture: ring count out of range")
	}
	if m.Slots < 64 || m.Slots > maxSlots {
		return nil, errors.New("fixture: slot count out of range")
	}
	g := transport.Geometry{Rings: int(m.Rings), Slots: int(m.Slots)}
	return transport.MapRings(seg, g), nil
}
