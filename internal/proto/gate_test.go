package proto

import (
	"math/rand/v2"
	"testing"
)

// TestLanesNextIsExact compares the eight-at-a-time lane scan with a
// per-offset walk over the zero-padded windows, for every start and
// end of short random payloads, including lanes a skip mask turns off.
func TestLanesNextIsExact(t *testing.T) {
	gates := []Gate{
		{Mask: 0xC0E0 << 48, Want: 0x80C0 << 48},
		{Mask: 0xF0 << 56, Want: 0x40 << 56},
		{Mask: 0xFF00 << 48, Want: 0x0100 << 48},
		{Mask: 0x00FF << 48, Want: 0},
	}
	ls := NewLanes(gates...)
	r := rand.New(rand.NewPCG(5, 6))
	for iter := 0; iter < 200; iter++ {
		b := make([]byte, r.IntN(40))
		for j := range b {
			// A small alphabet makes admitted pairs common.
			b[j] = []byte{0x00, 0x01, 0x41, 0x80, 0xC8, 0xFF}[r.IntN(6)]
		}
		skip := r.Uint64() & 0xf
		for from := 0; from <= len(b); from++ {
			for end := from; end <= len(b); end++ {
				want := end
				for o := from; o < end && want == end; o++ {
					for k, g := range gates {
						if skip>>k&1 == 0 && (Gate{Mask: g.Mask & (0xFFFF << 48), Want: g.Want}).Admits(Window(b, o)) {
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
	}
}

// TestScanPlanSkipIsExact pins the anchor rule: an anchored gate's
// lane is skipped exactly when no window below end carries its word at
// bytes 4-7, counting words that zero padding completes past the end.
func TestScanPlanSkipIsExact(t *testing.T) {
	gates := []Gate{
		{Mask: 0xC0000000_FFFFFFFF, Want: 0x2112A442},
		// A word ending in zero bytes can be completed by padding.
		{Mask: 0x00000000_FFFFFFFF, Want: 0x77880000},
	}
	plan := newScanPlan(gates)
	words := [][]byte{{0x21, 0x12, 0xA4, 0x42}, {0x77, 0x88, 0x00, 0x00}}
	r := rand.New(rand.NewPCG(7, 8))
	for iter := 0; iter < 2000; iter++ {
		b := make([]byte, r.IntN(24))
		for j := range b {
			b[j] = byte(r.IntN(4))
		}
		if len(b) > 0 {
			w := words[r.IntN(2)]
			at := r.IntN(len(b))
			copy(b[at:], w[:r.IntN(5)])
		}
		for end := 0; end <= len(b); end++ {
			skip := plan.Skip(b, end)
			for k, g := range gates {
				present := false
				for o := 0; o < end; o++ {
					present = present || uint32(Window(b, o)) == uint32(g.Want)
				}
				if skipped := skip>>k&1 != 0; skipped == present {
					t.Fatalf("gate %d over % x below %d: skipped=%v, word present=%v", k, b, end, skipped, present)
				}
			}
		}
	}
}
