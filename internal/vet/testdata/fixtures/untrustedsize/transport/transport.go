// Package transport is the fixture's miniature of the ring mapper: the
// geometry it is handed sizes everything it builds.
package transport

// Geometry is the shape of a ring segment.
type Geometry struct{ Rings, Slots int }

// MapRings overlays g.Rings rings of g.Slots slots on seg.
func MapRings(seg []byte, g Geometry) [][]byte {
	rings := make([][]byte, g.Rings)
	for i := range rings {
		rings[i] = seg[i*g.Slots : (i+1)*g.Slots]
	}
	return rings
}
