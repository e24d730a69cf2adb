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
// A gate may also declare a framed-length rule (Bias nonzero): the
// big-endian 16-bit length L at window bytes 2-3 frames a message of
// Bias+L bytes, which ends at most Slack bytes before the payload end
// (see Fits).
//
// A gate is a necessary condition of its prober: the prober never
// matches, and Probe never changes the scan state, at a candidate the
// gate rejects. The prober stays complete on its own, so a gate may
// only reject; the validator confirms every hit.
type Gate struct {
	Mask, Want  uint64
	Bias, Slack int
}

// Admits reports whether the window word w passes the gate's word test.
func (g Gate) Admits(w uint64) bool { return w&g.Mask == g.Want }

// Fits reports whether a candidate with window word w and rest bytes
// from its offset to the payload end passes the framed-length rule;
// it always does when the gate declares none.
func (g Gate) Fits(w uint64, rest int) bool {
	if g.Bias == 0 {
		return true
	}
	pad := rest - g.Bias - int(uint16(w>>32))
	return pad >= 0 && pad <= g.Slack
}

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

// lane is one gate's tests of window bytes 0-3, each broadcast to all
// eight byte lanes of a word, plus its framed-length rule. A live set
// keeps it whole for a wide gate and as a narrowLane for a narrow one.
type lane struct {
	m0, w0, m1, w1, m2, w2, m3, w3 uint64
	bias, slack                    int
}

// narrowLane is the test of a gate that reads window bytes 0-1 only
// and declares no framed length.
type narrowLane struct{ m0, w0, m1, w1 uint64 }

// laneSet is the live lanes of one skip combination, in two groups:
// narrow lanes test window bytes 0-1 only; wide lanes also test bytes
// 2-3 or a framed length, so only a set with a wide lane loads them.
type laneSet struct {
	narrow []narrowLane
	wide   []lane
}

const (
	laneOnes = 0x0101010101010101
	laneLow7 = 0x7f7f7f7f7f7f7f7f
)

// zeroBytes sets the high bit of each zero byte of x and no other bit,
// with no carry between byte lanes.
func zeroBytes(x uint64) uint64 { return ^((x&laneLow7 + laneLow7) | x | laneLow7) }

// maxSkippable bounds the lanes a Lanes may skip: it builds one live
// set per combination of them.
const maxSkippable = 8

// Lanes tests candidate offsets eight at a time against the first four
// bytes of a set of gates and their framed-length rules. Byte lane L
// of four overlapping little-endian loads at i..i+3 holds offset
// i+L's bytes 0-3, so one SWAR step settles eight offsets for every
// gate. A skip mask turns lanes off; the lanes it may name are fixed
// at construction, and each combination of them has its live lanes
// built once, so a step visits only the lanes it tests.
type Lanes struct {
	// skippable is the mask of lanes a skip mask may name; sets holds
	// the live lanes of each skip mask, at its index.
	skippable uint64
	sets      []laneSet
}

// NewLanes returns the lane tests of the given gates, in order: lane k
// tests gates[k]. A skip mask passed to Next may name only the lanes
// set in skippable, at most maxSkippable of them.
func NewLanes(skippable uint64, gates ...Gate) Lanes {
	if skippable>>len(gates) != 0 || bits.OnesCount64(skippable) > maxSkippable {
		panic("proto: skippable lanes out of range")
	}
	b := func(j int, v uint64) uint64 { return laneOnes * (v >> (56 - 8*j) & 0xff) }
	all := make([]lane, len(gates))
	for k, g := range gates {
		all[k] = lane{
			m0: b(0, g.Mask), w0: b(0, g.Want), m1: b(1, g.Mask), w1: b(1, g.Want),
			m2: b(2, g.Mask), w2: b(2, g.Want), m3: b(3, g.Mask), w3: b(3, g.Want),
			bias: g.Bias, slack: g.Slack,
		}
	}
	ls := Lanes{skippable: skippable, sets: make([]laneSet, 1<<bits.OnesCount64(skippable))}
	// Every subset of skippable, from skippable itself down to 0.
	for skip := skippable; ; skip = (skip - 1) & skippable {
		s := &ls.sets[ls.index(skip)]
		for k, l := range all {
			switch {
			case skip>>k&1 != 0:
			case l.m2|l.m3 != 0 || l.bias != 0:
				s.wide = append(s.wide, l)
			default:
				s.narrow = append(s.narrow, narrowLane{l.m0, l.w0, l.m1, l.w1})
			}
		}
		if skip == 0 {
			return ls
		}
	}
}

// index returns the position in sets of skip, a subset of skippable:
// its bit k is set when skip holds skippable's k-th lowest lane.
func (ls Lanes) index(skip uint64) int {
	c := 0
	for k, m := 0, ls.skippable; m != 0; k, m = k+1, m&(m-1) {
		if skip&m&-m != 0 {
			c |= 1 << k
		}
	}
	return c
}

// set returns the live lanes when the lanes in skip are skipped. The
// zero Lanes (an empty registry's plan) has none.
func (ls Lanes) set(skip uint64) *laneSet {
	if skip&^ls.skippable != 0 {
		panic("proto: skip mask names a lane that is not skippable")
	}
	if ls.sets == nil {
		return &noLanes
	}
	return &ls.sets[ls.index(skip)]
}

// noLanes is the zero Lanes' live set; nothing writes it.
var noLanes laneSet

// step returns the admitted lanes of the eight offsets at i as a mask
// with the high bit of byte lane L set when some live gate admits
// offset i+L. The word tests are exact; the framed-length test is a
// necessary condition: over one step L's admissible values span at
// most 8+Slack consecutive integers, so its high byte (window byte 2)
// takes at most two values, which the step compares against. A caller
// applies Gate.Fits at each admitted offset.
func (s *laneSet) step(b []byte, i int) uint64 {
	var v0, v1, v2, v3 uint64
	if i+11 <= len(b) {
		v0 = binary.LittleEndian.Uint64(b[i:])
		v1 = binary.LittleEndian.Uint64(b[i+1:])
		if len(s.wide) > 0 {
			v2 = binary.LittleEndian.Uint64(b[i+2:])
			v3 = binary.LittleEndian.Uint64(b[i+3:])
		}
	} else {
		// The last steps read their bytes zero-padded, as Window does.
		var pad [16]byte
		if i < len(b) {
			copy(pad[:], b[i:])
		}
		v0 = binary.LittleEndian.Uint64(pad[:])
		v1 = binary.LittleEndian.Uint64(pad[1:])
		v2 = binary.LittleEndian.Uint64(pad[2:])
		v3 = binary.LittleEndian.Uint64(pad[3:])
	}
	var hit uint64
	for k := range s.narrow {
		// x has a zero byte exactly in the lanes whose word test the
		// gate passes.
		l := &s.narrow[k]
		hit |= zeroBytes((v0&l.m0 ^ l.w0) | (v1&l.m1 ^ l.w1))
	}
	for k := range s.wide {
		l := &s.wide[k]
		x := (v0&l.m0 ^ l.w0) | (v1&l.m1 ^ l.w1) | (v2&l.m2 ^ l.w2) | (v3&l.m3 ^ l.w3)
		if l.bias == 0 {
			hit |= zeroBytes(x)
			continue
		}
		// Offset i+L frames when its length is in
		// [rest-L-bias-slack, rest-L-bias] with rest = len(b)-i; over
		// L = 0..7 that is [lo, hi].
		hi := len(b) - i - l.bias
		lo := hi - 7 - l.slack
		if hi < 0 || lo > 0xffff {
			continue
		}
		h0, h1 := uint64(max(lo, 0)>>8), uint64(min(hi, 0xffff)>>8)
		hit |= zeroBytes(x | (v2 ^ laneOnes*h0))
		if h1 != h0 {
			hit |= zeroBytes(x | (v2 ^ laneOnes*h1))
		}
	}
	return hit
}

// Next returns the least offset o in [from, end) whose window some lane
// admits, skipping lane k when bit k of skip is set (skip may name only
// skippable lanes). It returns end when no offset qualifies. The word tests are exact and the
// framed-length test is necessary, so every offset it passes over is
// one that every unskipped gate rejects.
func (ls Lanes) Next(b []byte, from, end int, skip uint64) int {
	var c cursor
	c.Reset(ls, b, end, skip)
	return c.Next(from)
}

// cursor walks the offsets of one payload that a live lane set admits,
// in increasing order. It keeps the current step's hit mask, so an
// admitted offset costs no second step: the next one in the same
// eight comes from the mask.
type cursor struct {
	set *laneSet
	b   []byte
	end int
	// base is the first offset of the step hit belongs to; hit holds
	// that step's admitted lanes at or after pos.
	base int
	hit  uint64
	// pos is the least admitted offset at or after the last from
	// (end when none is left).
	pos int
}

// Reset starts the cursor over the offsets [0, end) of b, skipping the
// lanes set in skip.
func (c *cursor) Reset(ls Lanes, b []byte, end int, skip uint64) {
	*c = cursor{set: ls.set(skip), b: b, end: end, base: -8, pos: -1}
}

// Next returns the least admitted offset o with from <= o < end, or
// end. Successive calls must not decrease from.
func (c *cursor) Next(from int) int {
	if from <= c.pos {
		return c.pos
	}
	if d := from - c.base; d < 8 {
		// Drop the hits the walk has passed.
		if h := c.hit >> (8 * d) << (8 * d); h != 0 {
			c.hit = h
			c.pos = min(c.base+bits.TrailingZeros64(h)/8, c.end)
			return c.pos
		}
		from = c.base + 8
	}
	for i := from; i < c.end; i += 8 {
		if h := c.set.step(c.b, i); h != 0 {
			c.base, c.hit = i, h
			c.pos = min(i+bits.TrailingZeros64(h)/8, c.end)
			return c.pos
		}
	}
	c.pos = c.end
	return c.end
}

// NextWord returns the least offset o in [from, end) where the 4 bytes
// at o+at equal word and lie wholly inside b, or end when none does.
func NextWord(b []byte, word [4]byte, at, from, end int) int {
	lo, hi := from+at, min(len(b), end+at+3)
	if lo < hi {
		if k := bytes.Index(b[lo:hi], word[:]); k >= 0 {
			return from + k
		}
	}
	return end
}

// anchor is a gate whose window bytes 4-7 must equal word; lane is the
// gate's lane index.
type anchor struct {
	lane int
	word [4]byte
}

// anchorsOf returns the anchors of the gates that pin the whole word
// at window bytes 4-7.
func anchorsOf(gates []Gate) []anchor {
	var out []anchor
	for k, g := range gates {
		if g.Mask&0xffffffff == 0xffffffff {
			a := anchor{lane: k}
			binary.BigEndian.PutUint32(a.word[:], uint32(g.Want))
			out = append(out, a)
		}
	}
	return out
}

// next returns the least offset o in [from, end) whose window carries
// the anchored word at bytes 4-7, zero padding included, or end.
func (a anchor) next(b []byte, from, end int) int {
	// The words of the windows at o < end start at o+4 < end+4; those
	// that lie wholly inside b come first.
	if o := NextWord(b, a.word, 4, from, end); o < end {
		return o
	}
	// A word that runs past the end of b is completed by zero padding,
	// which only a word ending in a zero byte can match.
	if a.word[3] != 0 {
		return end
	}
	want := binary.BigEndian.Uint32(a.word[:])
	for o := max(from, len(b)-7); o < end; o++ {
		if uint32(Window(b, o)) == want {
			return o
		}
	}
	return end
}
