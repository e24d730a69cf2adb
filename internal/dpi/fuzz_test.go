package dpi

import (
	"bytes"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/quicwire"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
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

// referenceInspectStream is InspectStream with pass 1 as the per-offset
// walk that predates the gates and the skip plan: every offset up to k
// tries the pass-1 probers its first byte admits, in precedence order,
// with no gate test. Validation evidence builds across all datagrams
// before pass 2, as in one Finalize, so pass 2 runs in validated mode.
func referenceInspectStream(e *Engine, payloads [][]byte) []Result {
	reg := e.registry()
	sc := proto.NewScanState()
	for _, p := range payloads {
		for i := 0; i < len(p) && i <= e.MaxOffset; {
			c := proto.Candidate{Payload: p, Offset: i}
			consumed := 0
			for _, pr := range reg.Pass1ProbersFor(p[i]) {
				if n, ok := pr.Probe(c, sc); ok {
					consumed = n
					break
				}
			}
			if consumed > 0 {
				i += consumed
			} else {
				i++
			}
		}
	}
	ctx := NewStreamContext()
	ctx.State.Epoch = 1
	ctx.State.ValidatedSSRC = sc.ValidatedSSRC
	var out []Result
	for _, p := range payloads {
		out = append(out, e.Inspect(p, ctx))
	}
	return out
}

// FuzzStreamParity differentially fuzzes the streaming inspector's pass
// 1, which visits only the offsets some prober's gate admits, against
// referenceInspectStream, which visits every offset. Three to five
// datagrams (the fourth and fifth when non-empty) form one stream; the
// two must extract the same messages at the same offsets. A gate or a
// skip that passes over a real candidate changes the validation
// evidence and shows up here in pass 2's validated mode.
func FuzzStreamParity(f *testing.F) {
	corpus := dispatchCorpus()
	for i := range corpus {
		at := func(k int) []byte { return corpus[(i+k)%len(corpus)] }
		f.Add(at(0), at(1), at(2), at(3), at(4))
	}

	filler := func(n int) []byte { return bytes.Repeat([]byte{0x01}, n) }
	place := func(b []byte, off int, v []byte) []byte {
		return append(append(append([]byte(nil), b[:off]...), v...), b[min(off+len(v), len(b)):]...)
	}
	const ssrc = 0x1000C01
	hdr := func(seq uint16) []byte { return rtpPacket(ssrc, seq, nil) }

	// Zoom media as appsim shapes it: direction byte, 0x10, a constant
	// media ID, opaque SFU bytes, the media type, an opaque trailer,
	// then RTP with continuous sequence numbers; video packets carry a
	// marker bit, a one-byte header extension and padding.
	zoom := func(seq uint16, trailer int, video bool) []byte {
		h := []byte{0x00, 0x10, 0x01, 0x00, 0x0C, 0x01, 1, 3, 5, 7, 9, 11, 13, 15, 15}
		h = append(h, bytes.Repeat([]byte{0x2b}, trailer)...)
		p := &rtp.Packet{PayloadType: 111, SequenceNumber: seq, Timestamp: uint32(seq) * 960, SSRC: ssrc,
			Payload: bytes.Repeat([]byte{0x5a}, 160)}
		if video {
			p.PayloadType, p.Marker, p.Padding, p.PaddingLen = 98, true, true, 4
			p.Extension = &rtp.Extension{Profile: rtp.ProfileOneByte, Elements: []rtp.ExtensionElement{{ID: 2, Payload: []byte{7}}}}
		}
		return append(h, p.Encode()...)
	}
	f.Add(zoom(1, 9, false), zoom(2, 12, false), zoom(3, 15, false), zoom(4, 9, false), zoom(5, 10, false))
	f.Add(zoom(1, 9, true), zoom(2, 12, true), zoom(3, 15, true), zoom(4, 9, true), []byte{})

	// RTP headers the gates admit at each lane position 0-7 of an
	// inner block, and ending the datagram, so they fall in its last
	// full block or in the zero-padded last step; the sequence runs
	// validate the SSRC, so a skipped sighting changes what pass 2
	// accepts.
	for lane := 0; lane < 8; lane++ {
		f.Add(place(filler(64), 16+lane, hdr(1)), place(filler(64), 24+lane, hdr(2)),
			append(filler(17+lane), hdr(3)...), append(filler(25+lane), hdr(4)...), []byte{})
	}
	// An RTCP receiver report (8 bytes) in the zero-padded last step,
	// after an SSRC-validating pair.
	rr := []byte{0x80, 201, 0x00, 0x01, 0x01, 0x00, 0x0C, 0x01}
	for lead := 1; lead < 9; lead++ {
		f.Add(hdr(1), hdr(2), append(filler(lead), rr...), []byte{}, []byte{})
	}

	// STUN headers whose cookie word straddles offset k.
	stunMsg := ice.ServerBindingRequest(ice.NewRand(7)).Raw
	for _, s := range []int{193, 195, 196, 197, 200} {
		f.Add(place(filler(260), s, stunMsg), hdr(1), hdr(2), []byte{}, []byte{})
	}
	// A STUN header whose transaction ID holds an RTP header: pass 1
	// consumes the STUN span, so the hidden sightings must not validate
	// the SSRC that the last datagram carries.
	hidden := func(seq uint16) []byte {
		m := append([]byte(nil), stunMsg...)
		copy(m[8:20], hdr(seq))
		return place(filler(64), 20, m)
	}
	f.Add(hidden(1), hidden(2), hdr(3), []byte{}, []byte{})
	// A consumed STUN span followed by an RTP header: the skip resumes
	// at the span's end, where the sighting is.
	after := func(seq uint16) []byte { return append(append([]byte(nil), stunMsg...), hdr(seq)...) }
	f.Add(after(1), after(2), hdr(3), []byte{}, []byte{})

	// A consumed ChannelData span whose body is an RTP header: pass 1
	// skips to the span's end, so the inner sightings stay hidden.
	cd := func(seq uint16) []byte {
		return (&stun.ChannelData{ChannelNumber: 0x4001, Data: rtpPacket(ssrc, seq, bytes.Repeat([]byte{0x33}, 8))}).Encode()
	}
	f.Add(cd(1), cd(2), cd(3), hdr(4), []byte{})

	e := NewEngine()
	f.Fuzz(func(t *testing.T, a, b, c, d, x []byte) {
		stream := [][]byte{a, b, c}
		for _, p := range [][]byte{d, x} {
			if len(p) > 0 {
				stream = append(stream, p)
			}
		}
		want := summarize(referenceInspectStream(e, stream))
		if got := summarize(e.InspectStream(stream)); got != want {
			t.Fatalf("stream inspector diverged from the per-offset reference:\ninspector: %s\nreference: %s", got, want)
		}
	})
}
