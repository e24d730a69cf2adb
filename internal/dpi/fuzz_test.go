package dpi

import (
	"bytes"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/quicwire"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
)

// FuzzInspect checks the engine's structural invariants on arbitrary
// datagrams: no panics, non-overlapping in-bounds message spans, and
// classification consistency.
func FuzzInspect(f *testing.F) {
	f.Add([]byte{0x80, 0x60, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xaa})
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 0x21, 0x12, 0xa4, 0x42})

	// Corpus entries mirroring the proprietary-header shapes the appsim
	// emulators emit (§5.2/§5.3), so the fuzzer starts from the wire
	// formats the pipeline actually has to classify.
	media := (&rtp.Packet{PayloadType: 111, SequenceNumber: 7, Timestamp: 960, SSRC: 0x1000C01,
		Payload: bytes.Repeat([]byte{0x5a}, 64)}).Encode()
	// Zoom: direction byte, 0x10, constant 4-byte media ID, opaque SFU
	// words, media-section type (15 = audio RTP), opaque trailer, then
	// the RTP message.
	zoomHdr := []byte{0x00, 0x10, 0x01, 0x00, 0x0C, 0x01, 1, 3, 5, 7, 9, 11, 13, 15, 15, 2, 4, 6, 8, 10, 12, 14, 16}
	f.Add(append(append([]byte(nil), zoomHdr...), media...))
	// Zoom filler: a large datagram of one repeated byte (bandwidth
	// probing; fully proprietary).
	f.Add(bytes.Repeat([]byte{0xab}, 1000))
	// FaceTime: 0x6000 magic, 2-byte length of the remainder, opaque
	// bytes, then the wrapped RTP message (with an undefined extension
	// profile, as FaceTime sends).
	ftMedia := (&rtp.Packet{PayloadType: 104, SequenceNumber: 9, Timestamp: 1920, SSRC: 0xfeed,
		Extension: &rtp.Extension{Profile: 0x8001, Elements: []rtp.ExtensionElement{{ID: 1, Payload: []byte{1, 2}}}},
		Payload:   bytes.Repeat([]byte{0x33}, 48)}).Encode()
	ft := []byte{0x60, 0x00, byte((4 + len(ftMedia)) >> 8), byte(4 + len(ftMedia)), 0xaa, 0xbb, 0xcc, 0xdd}
	f.Add(append(ft, ftMedia...))
	// FaceTime cellular keepalive: 36 bytes starting 0xDEADBEEFCAFE with
	// two trailing 4-byte counters.
	ka := make([]byte, 36)
	copy(ka, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE})
	ka[31], ka[35] = 3, 7
	f.Add(ka)
	// Meet: relay video inside a TURN ChannelData frame.
	cd := append([]byte{0x40, 0x01, byte(len(media) >> 8), byte(len(media))}, media...)
	f.Add(cd)
	// Meet: SRTCP with only the 4-byte E-flag+index trailer, missing the
	// RFC 3711 auth tag (the paper's headline RTCP violation).
	sr := rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 0x1000C01, Info: rtcp.SenderInfo{NTPTimestamp: 1}})
	f.Add(append(append([]byte(nil), sr...), 0x80, 0x00, 0x00, 0x2a))
	e := NewEngine()
	f.Fuzz(func(t *testing.T, data []byte) {
		res := e.Inspect(data, nil)
		end := 0
		for _, m := range res.Messages {
			if m.Offset < end || m.Length <= 0 || m.Offset+m.Length > len(data) {
				t.Fatalf("bad span %d+%d (prev end %d, len %d)", m.Offset, m.Length, end, len(data))
			}
			end = m.Offset + m.Length
		}
		switch res.Class {
		case ClassStandard:
			if len(res.Messages) == 0 || res.Messages[0].Offset != 0 {
				t.Fatal("standard class without offset-0 message")
			}
		case ClassFullyProprietary:
			if len(res.Messages) != 0 {
				t.Fatal("fully proprietary with messages")
			}
		}
		// The strict baseline must never find more than... anything; it
		// just must not panic.
		StrictEngine{}.Inspect(data)
	})
}

// FuzzParityWithBaseline differentially fuzzes the registry engine
// against the frozen pre-registry chain (baseline_bench_test.go): the
// same datagrams, fed in order through one stream context each, must
// extract the same messages at the same offsets. The probers' raw-byte
// gates may only reject what their full validators would reject, so a
// gate that skips a real candidate shows up here as a divergence. The
// baseline predates DTLS, so the registry side runs without it.
func FuzzParityWithBaseline(f *testing.F) {
	corpus := dispatchCorpus()
	for i := range corpus {
		f.Add(corpus[i], corpus[(i+1)%len(corpus)], corpus[(i+2)%len(corpus)])
	}

	// Strong second candidates inside an RTP payload, each next to a
	// one-byte near miss the gates must reject: a cookie STUN header
	// (cookie bit flipped), a same-SSRC RTP header with a new sequence
	// number (SSRC byte changed), and an RTCP SR from the SSRC the first
	// datagram made known (packet type moved to 191 and 224).
	with := func(b []byte, i int, v byte) []byte {
		b = append([]byte(nil), b...)
		b[i] = v
		return b
	}
	stunMsg := ice.ServerBindingRequest(ice.NewRand(7)).Raw
	inner := rtpPacket(9, 3, bytes.Repeat([]byte{0x33}, 40))
	sr := rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 9, Info: rtcp.SenderInfo{NTPTimestamp: 1}})
	pad := bytes.Repeat([]byte{0x5a}, 24)
	known := rtpPacket(9, 1, pad)
	for _, in := range [][]byte{
		stunMsg, with(stunMsg, 4, stunMsg[4]^0x01),
		inner, with(inner, 11, inner[11]^0x01),
		sr, with(sr, 1, 191), with(sr, 1, 224),
	} {
		outer := rtpPacket(9, 2, append(append([]byte(nil), pad...), in...))
		f.Add(known, outer, rtpPacket(9, 4, pad))
	}

	// QUIC long headers the version gate accepts (1, Version
	// Negotiation's 0) and rejects (2), and a truncation below the
	// 7-byte minimum.
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	short := quicwire.BuildShort(dcid, bytes.Repeat([]byte{7}, 40))
	v1 := quicwire.BuildLong(quicwire.TypeInitial, quicwire.Version1, dcid, []byte{9}, nil, bytes.Repeat([]byte{0}, 64))
	f.Add(v1, short, v1[:6])
	f.Add(quicwire.BuildVersionNegotiation(dcid, []byte{9}, []uint32{quicwire.Version1}), short, []byte{})
	f.Add(quicwire.BuildLong(quicwire.TypeInitial, 2, dcid, []byte{9}, nil, bytes.Repeat([]byte{0}, 64)), short, []byte{})

	reg := proto.Default().Without(proto.DTLS)
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		e := &Engine{MaxOffset: 200, Registry: reg}
		ctx := NewStreamContext()
		be := &baselineEngine{MaxOffset: 200}
		bctx := newBaselineContext()
		var got, want []Result
		for _, p := range [][]byte{a, b, c} {
			got = append(got, e.Inspect(p, ctx))
			want = append(want, be.Inspect(p, bctx))
		}
		if g, w := summarize(got), summarize(want); g != w {
			t.Fatalf("registry engine diverged from frozen baseline:\nregistry: %s\nbaseline: %s", g, w)
		}
	})
}
