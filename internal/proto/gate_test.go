package proto

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestLanesNextIsExact compares the eight-at-a-time lane scan with a
// per-offset walk over the zero-padded windows, for every start and
// end of short random payloads, including lanes a skip mask turns off.
// The gates test bytes 0-3, so every one of the four loads counts.
func TestLanesNextIsExact(t *testing.T) {
	gates := []Gate{
		{Mask: 0xC0E0 << 48, Want: 0x80C0 << 48},
		{Mask: 0xF0 << 56, Want: 0x40 << 56},
		{Mask: 0xFF00 << 48, Want: 0x0100 << 48},
		{Mask: 0x00FF << 48, Want: 0},
		{Mask: 0x80FFFFFF << 32, Want: 0x80 << 56},
		{Mask: 0xFCE00003 << 32, Want: 0},
	}
	ls := NewLanes(0x3f, gates...)
	r := rand.New(rand.NewPCG(5, 6))
	for iter := 0; iter < 200; iter++ {
		b := make([]byte, r.IntN(40))
		for j := range b {
			// A small alphabet makes admitted windows common.
			b[j] = []byte{0x00, 0x01, 0x41, 0x80, 0xC8, 0xFF}[r.IntN(6)]
		}
		skip := r.Uint64() & 0x3f
		for from := 0; from <= len(b); from++ {
			for end := from; end <= len(b); end++ {
				want := end
				for o := from; o < end && want == end; o++ {
					for k, g := range gates {
						if skip>>k&1 == 0 && admitsAt(g, b, o) {
							want = o
							break
						}
					}
				}
				if got := ls.Next(b, from, end, skip); got != want {
					t.Fatalf("Next(% x, %d, %d, %b) = %d, want %d", b, from, end, skip, got, want)
				}
			}
		}
		// The cursor, which reuses each step's hit mask, visits the
		// same offsets as a fresh scan from each one.
		var c cursor
		c.Reset(ls, b, len(b), skip)
		for from := 0; from < len(b); {
			got, want := c.Next(from), ls.Next(b, from, len(b), skip)
			if got != want {
				t.Fatalf("cursor Next(%d) over % x = %d, want %d", from, b, got, want)
			}
			from = got + 1 + r.IntN(3)
		}
	}
}

// TestLanesFrameIsNecessary pins the framed-length lane test: neither
// the lane scan nor its cursor passes over an offset whose window
// passes a gate's word test and whose length frames a message ending
// within the gate's slack of the payload end. (Steps start where each
// scan starts them, so the two may admit different extra offsets.)
func TestLanesFrameIsNecessary(t *testing.T) {
	gates := []Gate{
		{Mask: 0xF0 << 56, Want: 0x40 << 56, Bias: 4, Slack: 3},
		{Mask: 0xFCE00003 << 32, Bias: 20},
	}
	ls := NewLanes(0x3, gates...)
	r := rand.New(rand.NewPCG(9, 10))
	for iter := 0; iter < 3000; iter++ {
		n := r.IntN(600)
		b := make([]byte, n)
		for j := range b {
			b[j] = []byte{0x00, 0x01, 0x02, 0x40, 0x41}[r.IntN(5)]
		}
		// Plant frames that fit, one per gate, so admitted offsets occur.
		for k, g := range gates {
			if at := r.IntN(n + 1); n-at >= 4+g.Bias {
				l := n - at - g.Bias - r.IntN(g.Slack+1)
				b[at], b[at+1], b[at+2], b[at+3] = byte(g.Want>>56)|0x01*byte(k), 0x01, byte(l>>8), byte(l)&^3
			}
		}
		skip := r.Uint64() & 0x3
		end := r.IntN(n + 1)
		var c cursor
		c.Reset(ls, b, end, skip)
		for from := 0; from < end; {
			got := c.Next(from)
			if next := ls.Next(b, from, end, skip); next < got {
				// Both are necessary; check the later one.
				got = next
			}
			for o := from; o < got; o++ {
				for k, g := range gates {
					if skip>>k&1 == 0 && admitsAt(g, b, o) {
						t.Fatalf("gate %d admits offset %d of % x, but the scan passed it (next %d)", k, o, b, got)
					}
				}
			}
			from = got + 1 + r.IntN(3)
		}
	}
}

// TestLiveLanesMatchPerOffsetScan pins the live lane sets: under every
// combination of skipped lanes, one walk visits exactly the offsets a
// per-offset scan of every unskipped lane admits. The gates mix narrow
// lanes (bytes 0-1), wide ones (bytes 2-3) and framed lengths, so a
// lane in the wrong group admits offsets the scan does not.
func TestLiveLanesMatchPerOffsetScan(t *testing.T) {
	gates := []Gate{
		{Mask: 0xC0E0 << 48, Want: 0x80C0 << 48},
		{Mask: 0xF0 << 56, Want: 0x40 << 56, Bias: 4, Slack: 3},
		{Mask: 0x80FFFFFF << 32, Want: 0x80 << 56},
		{Mask: 0xFCFF << 48, Want: 0x14FE << 48},
		{Mask: 0xFCE00003 << 32, Bias: 20},
	}
	ls := NewLanes(1<<len(gates)-1, gates...)
	r := rand.New(rand.NewPCG(11, 12))
	for iter := 0; iter < 300; iter++ {
		b := make([]byte, r.IntN(64))
		for j := range b {
			b[j] = []byte{0x00, 0x01, 0x14, 0x41, 0x80, 0xC8, 0xFE, 0xFF}[r.IntN(8)]
		}
		end := r.IntN(len(b) + 1)
		for skip := uint64(0); skip < 1<<len(gates); skip++ {
			got, want := walkLanes(ls, b, end, skip), scanLanes(gates, b, end, skip)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("skip %05b over % x below %d: walk visits %v, per-offset scan %v", skip, b, end, got, want)
			}
		}
	}
}

// TestZeroLanesAdmitNothing pins the zero Lanes, an empty registry's
// plan: it builds no live set and admits no offset.
func TestZeroLanesAdmitNothing(t *testing.T) {
	var ls Lanes
	b := []byte{0x80, 0x00, 0x40, 0x00, 0x00, 0x00}
	if got := ls.Next(b, 0, len(b), 0); got != len(b) {
		t.Fatalf("zero Lanes admitted offset %d", got)
	}
}

// walkLanes returns the offsets below end of b that one cursor over ls
// visits, with the lanes in skip turned off. Its steps start at
// multiples of 8.
func walkLanes(ls Lanes, b []byte, end int, skip uint64) []int {
	var c cursor
	c.Reset(ls, b, end, skip)
	var out []int
	for o := c.Next(0); o < end; o = c.Next(o + 1) {
		out = append(out, o)
	}
	return out
}

// scanLanes is walkLanes' reference: it tests every unskipped gate's
// lane at every offset on its own.
func scanLanes(gates []Gate, b []byte, end int, skip uint64) []int {
	var out []int
	for o := 0; o < end; o++ {
		for k, g := range gates {
			if skip>>k&1 == 0 && laneAdmitsAt(g, b, o, o&^7) {
				out = append(out, o)
				break
			}
		}
	}
	return out
}

// laneAdmitsAt reports whether g's lane admits offset o of b in the
// step that starts at base: the zero-padded window's bytes 0-3 pass
// g's word test, and for a framed gate byte 2, the length's high byte,
// is that of the least or the greatest length that frames a message
// from some offset of the step.
func laneAdmitsAt(g Gate, b []byte, o, base int) bool {
	w := Window(b, o)
	if uint32(w>>32)&uint32(g.Mask>>32) != uint32(g.Want>>32) {
		return false
	}
	if g.Bias == 0 {
		return true
	}
	hi := len(b) - base - g.Bias
	lo := hi - 7 - g.Slack
	if hi < 0 || lo > 0xffff {
		return false
	}
	h := int(byte(w >> 40))
	return h == max(lo, 0)>>8 || h == min(hi, 0xffff)>>8
}

// admitsAt reports whether the candidate at offset i of b passes both
// of g's tests.
func admitsAt(g Gate, b []byte, i int) bool {
	w := Window(b, i)
	return g.Admits(w) && g.Fits(w, len(b)-i)
}

// TestScanPlanAnchorIsExact pins the anchor rule: a plan of anchored
// gates walks exactly the offsets below end whose window carries a
// gate's word at bytes 4-7, counting words that zero padding completes
// past the end.
func TestScanPlanAnchorIsExact(t *testing.T) {
	probers := []Prober{
		{Gate: Gate{Mask: 0xC0000000_FFFFFFFF, Want: 0x2112A442}},
		// A word ending in zero bytes can be completed by padding.
		{Gate: Gate{Mask: 0x00000000_FFFFFFFF, Want: 0x77880000}},
	}
	plan := newScanPlan(probers)
	words := [][]byte{{0x21, 0x12, 0xA4, 0x42}, {0x77, 0x88, 0x00, 0x00}}
	r := rand.New(rand.NewPCG(7, 8))
	var w Walk
	for iter := 0; iter < 2000; iter++ {
		b := make([]byte, r.IntN(24))
		for j := range b {
			b[j] = byte(r.IntN(4))
		}
		if len(b) > 0 {
			word := words[r.IntN(2)]
			at := r.IntN(len(b))
			copy(b[at:], word[:r.IntN(5)])
		}
		for end := 0; end <= len(b); end++ {
			var want, got []int
			for o := 0; o < end; o++ {
				for _, p := range probers {
					if uint32(Window(b, o)) == uint32(p.Gate.Want) {
						want = append(want, o)
						break
					}
				}
			}
			plan.Begin(&w, b, end, &StreamState{})
			for o := w.Next(0); o < end; o = w.Next(o + 1) {
				got = append(got, o)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("plan over % x below %d walked %v, want %v", b, end, got, want)
			}
		}
	}
}

// TestValidatedWordsBound pins the anchor-word bound: up to
// maxAnchorWords validated SSRCs come back as words, in any order; one
// more makes the scans fall back to their lanes. Entries set to false
// are not validated.
func TestValidatedWordsBound(t *testing.T) {
	st := &StreamState{ValidatedSSRC: map[uint32]bool{0xdead: false}}
	for n := 1; n <= maxAnchorWords+2; n++ {
		st.ValidatedSSRC[uint32(n)] = true
		words, ok := st.ValidatedWords()
		if want := n <= maxAnchorWords; ok != want {
			t.Fatalf("%d validated SSRCs: ok = %v, want %v", n, ok, want)
		}
		if !ok {
			continue
		}
		got := map[uint32]bool{}
		for _, w := range words {
			got[uint32(w[0])<<24|uint32(w[1])<<16|uint32(w[2])<<8|uint32(w[3])] = true
		}
		if len(got) != n || len(words) != n || got[0xdead] {
			t.Fatalf("%d validated SSRCs: words %v", n, words)
		}
	}
	// A new epoch derives the words again.
	st.Epoch++
	delete(st.ValidatedSSRC, 1)
	delete(st.ValidatedSSRC, 2)
	delete(st.ValidatedSSRC, 3)
	if words, ok := st.ValidatedWords(); !ok || len(words) != maxAnchorWords-1 {
		t.Fatalf("after a new epoch: %d words, ok = %v", len(words), ok)
	}
}
