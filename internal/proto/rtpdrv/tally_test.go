package rtpdrv

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/rtp"
)

// refScan is the reference pass-1 tally: a full rtp.DecodeInto per
// zero-CSRC window, and a note that looks the SSRC up in the tally and
// in the validated set before its store.
type refScan struct {
	sc    *proto.ScanState
	cands map[uint32]refTally
	probe rtp.Packet
}

type refTally struct {
	lastSeq uint16
	lastTS  uint32
}

func newRefScan() *refScan {
	return &refScan{sc: proto.NewScanState(), cands: make(map[uint32]refTally)}
}

func (s *refScan) tallyProbe(c proto.Candidate) {
	b := c.Bytes()
	if !rtp.LooksLikeHeader(b) || (b[1] >= 192 && b[1] <= 223) || b[0]&0x0F != 0 {
		return
	}
	if rtp.DecodeInto(&s.probe, b) == nil {
		s.note(s.probe.SSRC, s.probe.SequenceNumber, s.probe.Timestamp)
	}
}

func (s *refScan) note(ssrc uint32, seq uint16, ts uint32) {
	if o, ok := s.cands[ssrc]; ok && !s.sc.ValidatedSSRC[ssrc] && seqClose(o.lastSeq, seq) && tsClose(o.lastTS, ts) {
		s.sc.ValidatedSSRC[ssrc] = true
	}
	s.cands[ssrc] = refTally{lastSeq: seq, lastTS: ts}
}

// sameTally reports where the tally in sc differs from the reference,
// or "" when they agree: the same validated set, the same last
// sighting per SSRC, and each tally's validated bit equal to the set's
// entry.
func sameTally(sc *proto.ScanState, ref *refScan) string {
	if !reflect.DeepEqual(sc.ValidatedSSRC, ref.sc.ValidatedSSRC) {
		return "validated sets differ"
	}
	var cands map[uint32]candTally
	if v := sc.Slot(proto.RTP); v != nil {
		cands = v.(*scanState).cands
	}
	if len(cands) != len(ref.cands) {
		return "tallies hold different SSRCs"
	}
	for ssrc, want := range ref.cands {
		got, ok := cands[ssrc]
		if !ok || got.lastSeq != want.lastSeq || got.lastTS != want.lastTS {
			return "last sightings differ"
		}
		if got.validated != ref.sc.ValidatedSSRC[ssrc] {
			return "validated bit out of step with the set"
		}
	}
	return ""
}

// checkTally runs the pass-1 tally and the reference at every offset of
// each payload, in order, on one scan state each, and compares them
// after every offset. It also checks the padding rule against
// DecodeInto on every zero-CSRC window rtp.LooksLikeHeader accepts.
func checkTally(t *testing.T, payloads ...[]byte) {
	t.Helper()
	sc, ref := proto.NewScanState(), newRefScan()
	var p rtp.Packet
	for _, b := range payloads {
		for off := range b {
			w := b[off:]
			if rtp.LooksLikeHeader(w) && w[0]&0x0F == 0 {
				if got, want := paddingFits(w), rtp.DecodeInto(&p, w) == nil; got != want {
					t.Fatalf("paddingFits(% x) = %v, DecodeInto accepts: %v", w, got, want)
				}
			}
			c := proto.Candidate{Payload: b, Offset: off}
			tallyProbe(c, sc)
			ref.tallyProbe(c)
			if d := sameTally(sc, ref); d != "" {
				t.Fatalf("after offset %d of % x: %s", off, b, d)
			}
		}
	}
}

// tallySeeds returns real RTP headers with one- and two-byte
// extensions, padding counts of 0, 1, exactly the remainder and past
// it, and extensions that end at the payload end, each alone, after a
// proprietary prefix, and as a sequence-continuous pair.
func tallySeeds() [][]byte {
	oneByte := &rtp.Extension{Profile: rtp.ProfileOneByte, Elements: []rtp.ExtensionElement{
		{ID: 1, Payload: []byte{0xAA}}, {ID: 3, Payload: []byte{1, 2, 3}},
	}}
	twoByte := &rtp.Extension{Profile: rtp.ProfileTwoByteBase, Elements: []rtp.ExtensionElement{
		{ID: 7, Payload: []byte{9, 8, 7, 6, 5}},
	}}
	pkt := func(seq uint16, ext *rtp.Extension, payload int, pad uint8) []byte {
		p := &rtp.Packet{PayloadType: 96, SequenceNumber: seq, Timestamp: 3000 * uint32(seq), SSRC: 0x1234abcd,
			Extension: ext, Payload: make([]byte, payload), Padding: pad > 0, PaddingLen: pad}
		return p.Encode()
	}
	withLast := func(b []byte, last byte) []byte {
		b = append([]byte(nil), b...)
		b[len(b)-1] = last
		return b
	}
	var seeds [][]byte
	for _, ext := range []*rtp.Extension{nil, oneByte, twoByte} {
		for _, payload := range []int{0, 1, 17} {
			for _, pad := range []uint8{0, 1, 4} {
				seeds = append(seeds, pkt(7, ext, payload, pad))
			}
		}
		// Exactly the remainder: padding fills everything after the
		// header and extension; one more runs past it.
		exact := pkt(7, ext, 0, 6)
		seeds = append(seeds, exact, withLast(exact, 7), withLast(exact, 0))
		// The padding bit with nothing after the header and extension,
		// which ends at the payload end.
		bare := pkt(7, ext, 0, 0)
		seeds = append(seeds, bare, append([]byte{bare[0] | 0x20}, bare[1:]...))
		// A proprietary prefix, then a sequence-continuous pair.
		pair := append([]byte{0x05, 0x80, 0x00}, pkt(7, ext, 5, 0)...)
		seeds = append(seeds, pair, append(pair, pkt(8, ext, 9, 2)...))
	}
	return seeds
}

// TestTallyMatchesDecode checks the raw-field tally against the
// decode-based reference on the seed headers, with every padding count
// in each one's last byte and its padding bit both set and clear.
func TestTallyMatchesDecode(t *testing.T) {
	for _, seed := range tallySeeds() {
		checkTally(t, seed)
		for pad := 0; pad < 256; pad++ {
			b := append([]byte(nil), seed...)
			b[len(b)-1] = byte(pad)
			checkTally(t, b)
			b[0] ^= 0x20
			checkTally(t, b)
		}
	}
}

// FuzzTallyMatchesDecode: the pass-1 tally records a sighting exactly
// where DecodeInto accepts a zero-CSRC window, with its SSRC, sequence
// number and timestamp, and validates the SSRCs the reference does.
func FuzzTallyMatchesDecode(f *testing.F) {
	for _, seed := range tallySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkTally(t, b)
	})
}

// TestNoteMatchesReference feeds random sighting sequences to note and
// to the reference note and requires the same validated set after
// every sighting: over a few SSRCs, over thousands, with SSRCs that
// keep validating, and in chunks between which pass 2 reads the set
// while pass 1 goes on adding to it.
func TestNoteMatchesReference(t *testing.T) {
	cases := []struct {
		name     string
		ssrcs, n int
		// Sequence steps are drawn from [-8, seqStep-8), timestamp
		// steps from [0, tsStep).
		seqStep, tsStep int
		chunks          int
	}{
		{"few SSRCs", 4, 20000, 70, 1 << 22, 1},
		{"thousands of SSRCs", 5000, 40000, 70, 1 << 22, 1},
		{"repeated validations", 2, 20000, 3, 1 << 10, 1},
		{"chunked", 16, 20000, 70, 1 << 22, 40},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(c.ssrcs), uint64(c.n)))
			sc, ref := proto.NewScanState(), newRefScan()
			s := scan(sc)
			last := map[uint32][2]uint32{}
			per := c.n / c.chunks
			for chunk := 0; chunk < c.chunks; chunk++ {
				for i := 0; i < per; i++ {
					ssrc := uint32(r.IntN(c.ssrcs)) * 0x9e3779b1
					prev := last[ssrc]
					// Mostly small steps, sometimes a wild jump, so
					// sightings both validate and fail to.
					seq := uint16(prev[0]) + uint16(r.IntN(c.seqStep)) - 8
					ts := prev[1] + uint32(r.IntN(c.tsStep))
					if r.IntN(8) == 0 {
						seq, ts = uint16(r.Uint32()), r.Uint32()
					}
					last[ssrc] = [2]uint32{uint32(seq), ts}
					s.note(sc, ssrc, seq, ts)
					ref.note(ssrc, seq, ts)
					// A sighting can change only its own SSRC's entry,
					// so this keeps the sets equal after every one; the
					// whole tally is compared after each chunk.
					got, want := sc.ValidatedSSRC, ref.sc.ValidatedSSRC
					if len(got) != len(want) || got[ssrc] != want[ssrc] {
						t.Fatalf("chunk %d, sighting %d (ssrc %#x seq %d ts %d): validated sets differ", chunk, i, ssrc, seq, ts)
					}
				}
				// Finalize hands pass 2 the set object itself; pass 2
				// only reads it, and pass 1 keeps adding to it.
				st := &proto.StreamState{ValidatedSSRC: sc.ValidatedSSRC, Epoch: uint64(chunk + 1)}
				st.ValidatedWords()
				if d := sameTally(sc, ref); d != "" {
					t.Fatalf("after chunk %d: %s", chunk, d)
				}
			}
			if len(sc.ValidatedSSRC) == 0 {
				t.Fatal("no SSRC validated")
			}
		})
	}
}

// TestCandTallyIsOneWord pins the tally's layout: the validated bit
// lives in the padding after the sequence number, so a table entry
// stays 8 bytes.
func TestCandTallyIsOneWord(t *testing.T) {
	if sz := reflect.TypeOf(candTally{}).Size(); sz != 8 {
		t.Fatalf("candTally is %d bytes, want 8", sz)
	}
}
