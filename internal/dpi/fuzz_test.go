package dpi

import (
	"bytes"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/proto/rtcpdrv"
	"github.com/rtc-compliance/rtcc/internal/proto/rtpdrv"
	"github.com/rtc-compliance/rtcc/internal/proto/stundrv"
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

// referenceInspectStream is InspectStream with both passes as
// per-offset walks with no gate, no table and no skip, so the engine's
// gates are checked against the probers alone. Pass 1 tries, at every
// offset up to k, every pass-1 prober in precedence order. Validation
// evidence builds across all datagrams before pass 2, as in one
// Finalize, so pass 2 runs in validated mode. Pass 2 is
// referencePass2. It returns the results and pass 2's shift-attempt
// count; with a span, pass 2 emits its decision trace into it.
func referenceInspectStream(e *Engine, payloads [][]byte, span *obs.Span) ([]Result, int) {
	reg := e.registry()
	sc := proto.NewScanState()
	for _, p := range payloads {
		for i := 0; i < len(p) && i <= e.maxOffset(); {
			c := proto.Candidate{Payload: p, Offset: i}
			consumed := 0
			for _, pr := range reg.Pass1Plan().Probers() {
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
	r := &referencePass2{e: e, reg: reg, span: span, known: map[uint32]bool{}}
	r.st.Epoch = 1
	r.st.ValidatedSSRC = sc.ValidatedSSRC
	var out []Result
	for _, p := range payloads {
		out = append(out, r.inspect(p))
	}
	return out, r.attempts
}

// referencePass2 is pass 2 as a per-offset cursor walk with no gate,
// no table and no skip: every offset up to k (and, after the first
// match, to the payload end) tries every pass-2 prober, in precedence
// order. The RTP driver's Accept keeps the stream's sequence state,
// but the cut it makes is replaced by strongCandidate's, a
// byte-by-byte walk, so a word search that misses a strong second
// candidate shows up as a different message length.
type referencePass2 struct {
	e        *Engine
	reg      *proto.Registry
	st       proto.StreamState
	span     *obs.Span
	attempts int
	// known holds the SSRCs of the accepted RTP messages.
	known map[uint32]bool
}

func (r *referencePass2) inspect(payload []byte) Result {
	if r.span != nil {
		r.span.BeginDatagram()
	}
	var msgs []Message
	for i := 0; i < len(payload); {
		if i > r.e.maxOffset() && len(msgs) == 0 {
			break
		}
		r.attempts++
		var m Message
		ok := false
		for _, pr := range r.reg.Pass2Plan().Probers() {
			if pr.Validate(proto.Candidate{Payload: payload, Offset: i}, &r.st, &m) {
				m.Offset, ok = i, true
				break
			}
		}
		if !ok {
			if r.span != nil {
				r.span.Probe(i, payload[i], "", obs.OutcomeShift)
			}
			i++
			continue
		}
		if r.span != nil {
			meta, _ := r.reg.Meta(m.Protocol)
			r.span.Probe(i, payload[i], meta.Name, obs.OutcomeMatch)
		}
		if a := r.reg.Accepter(m.Protocol); a != nil {
			n := m.Length
			if m.Protocol == proto.RTP {
				if cut, found := r.strongCandidate(payload, m); found {
					if _, err := rtp.Decode(payload[m.Offset:cut]); err == nil {
						n = cut - m.Offset
					}
				}
			}
			m = a.Accept(payload, m, &r.st)
			if m.Protocol == proto.RTP {
				r.known[m.RTP.SSRC] = true
				m.Length = n
			}
		}
		msgs = append(msgs, m)
		i = m.Offset + m.Length
	}
	var res Result
	res.Messages = msgs
	switch {
	case len(msgs) == 0:
		res.Class = ClassFullyProprietary
	case msgs[0].Offset == 0:
		res.Class = ClassStandard
	default:
		res.Class = ClassProprietaryHeader
	}
	if r.span != nil {
		r.span.Extraction(res.Class.String(), len(msgs))
	}
	return res
}

// strongCandidate is the RTP driver's strong-second-candidate scan as
// a byte-by-byte walk over the message's claimed payload: the first j
// holding a magic-cookie STUN header, an RTCP compound whose sender
// SSRC the stream knows, or an RTP header of the outer SSRC with
// another sequence number.
func (r *referencePass2) strongCandidate(payload []byte, m Message) (int, bool) {
	end := m.Offset + m.Length
	body := payload[:end]
	var hit Message
	for j := m.Offset + m.RTP.HeaderSize() + 1; j < end-rtp.HeaderLen; j++ {
		c := proto.Candidate{Payload: body, Offset: j}
		if stundrv.MatchCookie(c, &r.st, &hit) {
			return j, true
		}
		if rtcpdrv.Match(c, &r.st, &hit) && len(hit.RTCP) > 0 {
			if sender, has := hit.RTCP[0].SenderSSRC(); has && (r.known[sender] || r.st.ValidatedSSRC[sender]) {
				return j, true
			}
		}
		if rtpdrv.Match(c, &r.st, &hit) && hit.RTP.SSRC == m.RTP.SSRC && hit.RTP.SequenceNumber != m.RTP.SequenceNumber {
			return j, true
		}
	}
	return 0, false
}

// FuzzStreamParity differentially fuzzes the streaming inspector, whose
// passes visit only the offsets the probers' gates and the scan plans
// admit, against referenceInspectStream, which visits every offset in
// both passes. Three to five datagrams (the fourth and fifth when
// non-empty) form one stream; the two must extract the same messages
// at the same offsets and count the same shift attempts. A gate, plan
// or word search that passes over a real candidate shows up here: in
// pass 1 it changes the validation evidence, in pass 2 the extraction.
func FuzzStreamParity(f *testing.F) {
	for _, s := range streamSeeds() {
		f.Add(s[0], s[1], s[2], s[3], s[4])
	}
	e := NewEngine()
	f.Fuzz(func(t *testing.T, a, b, c, d, x []byte) {
		stream := [][]byte{a, b, c}
		for _, p := range [][]byte{d, x} {
			if len(p) > 0 {
				stream = append(stream, p)
			}
		}
		ref, refAttempts := referenceInspectStream(e, stream, nil)
		want := summarize(ref)
		si := e.NewStreamInspector()
		if got := feedRecords(t, si, stream); got != want {
			t.Fatalf("stream inspector diverged from the per-offset reference:\ninspector: %s\nreference: %s", got, want)
		}
		if got := si.ctx.shiftAttempts; got != refAttempts {
			t.Fatalf("stream inspector counted %d shift attempts, the per-offset reference %d", got, refAttempts)
		}
	})
}

// streamSeeds returns FuzzStreamParity's seed streams, five datagrams
// each (the last two may be empty).
func streamSeeds() [][5][]byte {
	var out [][5][]byte
	add := func(a, b, c, d, x []byte) { out = append(out, [5][]byte{a, b, c, d, x}) }
	corpus := dispatchCorpus()
	for i := range corpus {
		at := func(k int) []byte { return corpus[(i+k)%len(corpus)] }
		add(at(0), at(1), at(2), at(3), at(4))
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
	add(zoom(1, 9, false), zoom(2, 12, false), zoom(3, 15, false), zoom(4, 9, false), zoom(5, 10, false))
	add(zoom(1, 9, true), zoom(2, 12, true), zoom(3, 15, true), zoom(4, 9, true), []byte{})

	// RTP headers the gates admit at each lane position 0-7 of an
	// inner block, and ending the datagram, so they fall in its last
	// full block or in the zero-padded last step; the sequence runs
	// validate the SSRC, so a skipped sighting changes what pass 2
	// accepts.
	for lane := 0; lane < 8; lane++ {
		add(place(filler(64), 16+lane, hdr(1)), place(filler(64), 24+lane, hdr(2)),
			append(filler(17+lane), hdr(3)...), append(filler(25+lane), hdr(4)...), []byte{})
	}
	// An RTCP receiver report (8 bytes) in the zero-padded last step,
	// after an SSRC-validating pair.
	rr := []byte{0x80, 201, 0x00, 0x01, 0x01, 0x00, 0x0C, 0x01}
	for lead := 1; lead < 9; lead++ {
		add(hdr(1), hdr(2), append(filler(lead), rr...), []byte{}, []byte{})
	}

	// STUN headers whose cookie word straddles offset k.
	stunMsg := ice.ServerBindingRequest(ice.NewRand(7)).Raw
	for _, s := range []int{193, 195, 196, 197, 200} {
		add(place(filler(260), s, stunMsg), hdr(1), hdr(2), []byte{}, []byte{})
	}
	// A STUN header whose transaction ID holds an RTP header: pass 1
	// consumes the STUN span, so the hidden sightings must not validate
	// the SSRC that the last datagram carries.
	hidden := func(seq uint16) []byte {
		m := append([]byte(nil), stunMsg...)
		copy(m[8:20], hdr(seq))
		return place(filler(64), 20, m)
	}
	add(hidden(1), hidden(2), hdr(3), []byte{}, []byte{})
	// A consumed STUN span followed by an RTP header: the skip resumes
	// at the span's end, where the sighting is.
	after := func(seq uint16) []byte { return append(append([]byte(nil), stunMsg...), hdr(seq)...) }
	add(after(1), after(2), hdr(3), []byte{}, []byte{})

	// A consumed ChannelData span whose body is an RTP header: pass 1
	// skips to the span's end, so the inner sightings stay hidden.
	cd := func(seq uint16) []byte {
		return (&stun.ChannelData{ChannelNumber: 0x4001, Data: rtpPacket(ssrc, seq, bytes.Repeat([]byte{0x33}, 8))}).Encode()
	}
	add(cd(1), cd(2), cd(3), hdr(4), []byte{})

	// Pass 2's seeds. Fully proprietary fillers of 0x01, 0x02 and 0x00
	// bytes: the first two pass classic STUN's type test at every
	// offset and fail its length test, the last fails the framed
	// length; validated SSRCs keep pass 2 in validated mode.
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, 1000) }
	add(fill(0x01), fill(0x02), hdr(1), hdr(2), fill(0x00))
	// A validated SSRC word at several +8 positions, only one of them a
	// real header: one behind a non-RTP first byte, one behind a
	// version-2 header whose sequence number jumps.
	decoys := place(place(filler(120), 10, []byte{0x01, 0x00, 0x0C, 0x01}), 40, rtpPacket(ssrc, 900, nil))
	add(hdr(1), hdr(2), place(decoys, 70, rtpPacket(ssrc, 3, bytes.Repeat([]byte{0x5a}, 30))), []byte{}, []byte{})
	// An RTCP sender report from the known SSRC ending an RTP payload,
	// after near misses whose word at j+4 differs from the SSRC in its
	// first or last byte: only the real report cuts the RTP message.
	srFrom := func(s uint32) []byte {
		return rtcp.EncodeSR(&rtcp.SenderReport{SSRC: s, Info: rtcp.SenderInfo{NTPTimestamp: 1}})
	}
	inner := append(append(append(bytes.Repeat([]byte{0x5a}, 20), srFrom(ssrc^0x01000000)...), srFrom(ssrc^1)...), srFrom(ssrc)...)
	add(hdr(1), hdr(2), rtpPacket(ssrc, 3, inner), hdr(4), []byte{})
	// A STUN message that sets SawSTUN, then bytes no validator accepts,
	// then a ChannelData frame: pass 2 plans the second region in the
	// state the STUN match left, and later datagrams keep it. In a
	// stream without STUN the frame stays unaccepted in validated mode.
	frame := (&stun.ChannelData{ChannelNumber: 0x4002, Data: rtpPacket(ssrc, 7, bytes.Repeat([]byte{0x33}, 16))}).Encode()
	add(hdr(1), hdr(2), append(append(append([]byte(nil), stunMsg...), 0x01, 0x01, 0x01), frame...),
		append([]byte{0x01, 0x01, 0x01}, frame...), []byte{})
	add(hdr(1), hdr(2), append([]byte{0x01, 0x01, 0x01}, frame...), []byte{}, []byte{})
	// The same with the frame padded by 3 bytes, as a frame may be.
	padded := append(append([]byte(nil), frame...), 0, 0, 0)
	add(hdr(1), hdr(2), append(append(append([]byte(nil), stunMsg...), 0x01, 0x01, 0x01), padded...),
		append([]byte{0x01, 0x01, 0x01}, padded...), []byte{})
	// A QUIC long header, then short headers with its DCID: one at offset
	// 0, one behind bytes no validator accepts, and one coalesced after
	// the long header in the same datagram.
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	long := quicwire.BuildLong(quicwire.TypeInitial, quicwire.Version1, dcid, []byte{9}, nil, bytes.Repeat([]byte{0}, 24))
	short := quicwire.BuildShort(dcid, bytes.Repeat([]byte{7}, 40))
	add(long, short, append([]byte{0x01, 0x01}, short...),
		append(append(append([]byte(nil), long...), 0x01, 0x01), short...), short)
	// Classic RFC 3489 STUN (no magic cookie) ending the datagram, at
	// offset 0 and behind bytes no validator accepts: classic STUN's
	// lane tests the type bytes, the length's low bits and its framed
	// length.
	cm := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: [12]byte{4, 5, 6}}
	cm.Add(stun.AttrSoftware, []byte("rtccrtcc"))
	classic := cm.Encode()
	copy(classic[4:8], []byte{0x01, 0x02, 0x03, 0x04})
	add(classic, append([]byte{0x01, 0x01, 0x01}, classic...), hdr(1), hdr(2), append(filler(9), classic...))
	// Twelve validated SSRCs, more than pass 2 searches for word by
	// word, so RTP falls back to its lane: two datagrams of twelve
	// back-to-back headers validate them, then headers of the last
	// and the first SSRC follow bytes no validator accepts.
	many := func(seq uint16) []byte {
		var b []byte
		for s := uint32(1); s <= 12; s++ {
			b = append(b, rtpPacket(0x7700+s, seq, nil)...)
		}
		return b
	}
	add(many(1), many(2), append(filler(5), rtpPacket(0x7700+12, 3, bytes.Repeat([]byte{0x5a}, 20))...),
		append(filler(6), rtpPacket(0x7700+1, 3, bytes.Repeat([]byte{0x5a}, 20))...), []byte{})
	return out
}
