// Package fixture seeds the untrusted-size bug class from the PR 5 review:
// an 8-byte frame whose count field sizes a multi-GiB allocation. bad.go
// carries the seeded bugs; good.go is the corrected twin the analyzer must
// stay silent on.
package fixture

import (
	"encoding/binary"
	"io"

	"fixture/transport"
	"fixture/wire"
)

// DecodeRecords is the MaxPredictions incident in miniature: the record
// count comes straight off the wire and sizes the allocation unchecked.
func DecodeRecords(r io.Reader, hdr []byte) ([]uint64, error) {
	n := binary.BigEndian.Uint32(hdr) // untrusted source
	out := make([]uint64, n)          // seeded bug: unclamped make
	if err := binary.Read(r, binary.BigEndian, out); err != nil {
		return nil, err
	}
	return out, nil
}

// FillPayload sizes an io.ReadFull with a wire-decoded length.
func FillPayload(r io.Reader, hdr, buf []byte) error {
	n := binary.BigEndian.Uint16(hdr)
	_, err := io.ReadFull(r, buf[:n]) // seeded bug: unclamped slice bound
	return err
}

// MapSegmentRings is the PR 7 shm ring-decoder class in miniature: ring
// geometry read straight out of a client-controlled segment header sizes
// the ring table allocation unchecked.
func MapSegmentRings(seg []byte) [][]uint64 {
	rings := binary.LittleEndian.Uint32(seg[8:])
	slots := binary.LittleEndian.Uint64(seg[16:])
	table := make([][]uint64, rings) // seeded bug: unclamped ring count
	for i := range table {
		table[i] = make([]uint64, slots) // seeded bug: unclamped slot count
	}
	return table
}

// ParseDaemonList is the PR 10 shard-map class in miniature: the daemon
// count in a fleet peer's frame sizes the address table unchecked.
func ParseDaemonList(frame []byte) []string {
	n := binary.BigEndian.Uint16(frame[9:])
	return make([]string, n) // seeded bug: unclamped daemon count
}

// ReceiveModel sizes a model-transfer read with the offer's wire-declared
// payload size.
func ReceiveModel(r io.Reader, hdr []byte) ([]byte, error) {
	size := binary.BigEndian.Uint32(hdr)
	payload := make([]byte, size) // seeded bug: unclamped model size
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ServeQuery is the handler-table class: the request arrives already decoded,
// as a wire message parameter, and its client-chosen count sizes the answer
// unchecked.
func ServeQuery(m *wire.Query) []uint64 {
	return make([]uint64, m.Count) // seeded bug: unclamped message field
}

// ReadQuery is the same class on the reading side: the message is filled in
// through a pointer, then trusted.
func ReadQuery(p []byte) ([]uint64, error) {
	var q wire.Query
	if err := wire.Decode(p, &q); err != nil {
		return nil, err
	}
	return make([]uint64, q.Count), nil // seeded bug: unclamped message field
}

// MapOffered hands a client-offered ring geometry to the mapper unchecked.
func MapOffered(m *wire.Setup, seg []byte) [][]byte {
	g := transport.Geometry{Rings: int(m.Rings), Slots: int(m.Slots)}
	return transport.MapRings(seg, g) // seeded bug: unvalidated geometry
}
