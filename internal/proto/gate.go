package proto

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Gate is a prober's declared raw-byte precondition. It reads a
// candidate's first 8 bytes as one big-endian word, zero-padded past
// the payload end (see Window), and admits the window when
// word&Mask == Want. The zero Gate admits every window.
//
// A gate is a necessary condition of its prober's Probe: Probe never
// matches, and never changes the scan state, at a window the gate
// rejects. Probe stays complete on its own, so a gate may only reject;
// the validator confirms every hit.
type Gate struct {
	Mask, Want uint64
}

// Admits reports whether the window word w passes the gate.
func (g Gate) Admits(w uint64) bool { return w&g.Mask == g.Want }

// Window returns the gate window at offset i of b: b[i:i+8] read
// big-endian, with the bytes past the end of b read as zero.
func Window(b []byte, i int) uint64 {
	if i+8 <= len(b) {
		return binary.BigEndian.Uint64(b[i:])
	}
	var w uint64
	for k := i; k < i+8; k++ {
		w <<= 8
		if k < len(b) {
			w |= uint64(b[k])
		}
	}
	return w
}

// lane is one gate's first-byte and second-byte tests, each broadcast
// to all eight byte lanes of a word.
type lane struct{ m0, w0, m1, w1 uint64 }

const (
	laneOnes = 0x0101010101010101
	laneLow7 = 0x7f7f7f7f7f7f7f7f
)

// Lanes tests candidate offsets eight at a time against the first two
// bytes of a set of gates. Byte lane L of two overlapping
// little-endian loads at i and i+1 holds offset i+L's first and second
// byte, so one SWAR step settles eight offsets for every gate.
type Lanes []lane

// NewLanes returns the lane tests of the given gates, in order: lane k
// tests gates[k].
func NewLanes(gates ...Gate) Lanes {
	ls := make(Lanes, len(gates))
	for k, g := range gates {
		ls[k] = lane{
			m0: laneOnes * (g.Mask >> 56), w0: laneOnes * (g.Want >> 56),
			m1: laneOnes * (g.Mask >> 48 & 0xff), w1: laneOnes * (g.Want >> 48 & 0xff),
		}
	}
	return ls
}

// Next returns the least offset o in [from, end) whose bytes b[o] and
// b[o+1] (zero past the end of b) some lane admits, skipping lane k
// when bit k of skip is set. It returns end when no offset qualifies.
// The test is exact, so every offset it passes over is one that every
// unskipped gate rejects.
func (ls Lanes) Next(b []byte, from, end int, skip uint64) int {
	for i := from; i < end; i += 8 {
		var v0, v1 uint64
		if i+9 <= len(b) {
			v0 = binary.LittleEndian.Uint64(b[i:])
			v1 = binary.LittleEndian.Uint64(b[i+1:])
		} else {
			// The last step reads its bytes zero-padded, as Window does.
			var pad [16]byte
			copy(pad[:], b[i:])
			v0 = binary.LittleEndian.Uint64(pad[:])
			v1 = binary.LittleEndian.Uint64(pad[1:])
		}
		var hit uint64
		for k := range ls {
			if skip>>k&1 != 0 {
				continue
			}
			l := &ls[k]
			// x has a zero byte exactly in the lanes the gate admits;
			// the expression sets the high bit of each zero byte and
			// no other bit, with no carry between lanes.
			x := (v0&l.m0 ^ l.w0) | (v1&l.m1 ^ l.w1)
			hit |= ^((x&laneLow7 + laneLow7) | x | laneLow7)
		}
		if hit != 0 {
			return min(i+bits.TrailingZeros64(hit)/8, end)
		}
	}
	return end
}

// ScanPlan is pass 1's skip plan, derived from the pass-1 probers'
// gates: one lane per prober, and an anchor for each gate that pins the
// whole word at bytes 4-7 (the STUN magic cookie). A prober without a
// gate has a lane that admits every offset, so a registry with one
// walks every offset.
type ScanPlan struct {
	Lanes
	anchors []anchor
}

// anchor is a gate whose window bytes 4-7 must equal word; lane is the
// gate's lane index.
type anchor struct {
	lane int
	word [4]byte
}

func newScanPlan(gates []Gate) ScanPlan {
	p := ScanPlan{Lanes: NewLanes(gates...)}
	for k, g := range gates {
		if g.Mask&0xffffffff == 0xffffffff {
			a := anchor{lane: k}
			binary.BigEndian.PutUint32(a.word[:], uint32(g.Want))
			p.anchors = append(p.anchors, a)
		}
	}
	return p
}

// Skip returns the lanes to skip over the offsets [0, end) of b: those
// of the anchored gates whose word occurs at no window's bytes 4-7
// there, so no window in range can pass them.
func (p *ScanPlan) Skip(b []byte, end int) uint64 {
	var skip uint64
	for _, a := range p.anchors {
		if !a.present(b, end) {
			skip |= 1 << a.lane
		}
	}
	return skip
}

// present reports whether some offset o in [0, end) has the anchored
// word at window bytes 4-7, zero padding included.
func (a anchor) present(b []byte, end int) bool {
	// The words of the windows at o < end start at 4 <= q < end+4.
	if hi := min(len(b), end+7); hi > 4 && bytes.Index(b[4:hi], a.word[:]) >= 0 {
		return true
	}
	// A word that runs past the end of b is completed by zero padding.
	want := binary.BigEndian.Uint32(a.word[:])
	for q := max(4, len(b)-3); q < end+4; q++ {
		if uint32(Window(b, q)>>32) == want {
			return true
		}
	}
	return false
}
