package proto_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/quicwire"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

// TestValidateMissLeavesOutUntouched pins the prober contract the scan
// loops rely on to stay free of per-offset Message copies: a Validate
// that reports a miss writes nothing to its out-parameter. Every
// registered prober runs at every offset of every prefix of one real
// message per family (so rejections fire deep inside each validator)
// and of random datagrams, in permissive and stream-validated mode.
func TestValidateMissLeavesOutUntouched(t *testing.T) {
	payloads := contractPayloads()
	sentinel := proto.Message{Protocol: proto.MaxIDs - 1, Offset: -1, Length: -1}
	for _, validated := range []map[uint32]bool{nil, {contractSSRC: true}} {
		st := &proto.StreamState{ValidatedSSRC: validated}
		for _, p := range proto.Default().Pass2Plan().Probers() {
			for _, b := range payloads {
				for off := range b {
					out := sentinel
					if !p.Validate(proto.Candidate{Payload: b, Offset: off}, st, &out) && !reflect.DeepEqual(out, sentinel) {
						t.Fatalf("%v prober (precedence %d) missed at offset %d of % x but wrote %+v",
							p.ID, p.Precedence, off, b, out)
					}
				}
			}
		}
	}
}

// TestGateIsNecessaryForProbe pins the gate contract pass 1's skip plan
// relies on: at every offset of the contract payloads, probed on a
// fresh scan state, a pass-1 prober that matches or changes the state
// does so only at a window its gate admits and whose framed length the
// gate fits.
func TestGateIsNecessaryForProbe(t *testing.T) {
	payloads := contractPayloads()
	fresh := proto.NewScanState()
	for _, p := range proto.Default().Pass1Plan().Probers() {
		for _, b := range payloads {
			for off := range b {
				sc := proto.NewScanState()
				_, ok := p.Probe(proto.Candidate{Payload: b, Offset: off}, sc)
				if w := proto.Window(b, off); (ok || !reflect.DeepEqual(sc, fresh)) && !(p.Gate.Admits(w) && p.Gate.Fits(w, len(b)-off)) {
					t.Fatalf("%v prober (precedence %d) acted at offset %d of % x, which its gate %#x/%#x (bias %d, slack %d) rejects",
						p.ID, p.Precedence, off, b, p.Gate.Mask, p.Gate.Want, p.Gate.Bias, p.Gate.Slack)
				}
			}
		}
	}
}

// TestGateIsNecessaryForValidate pins the contract pass 2's scan plan
// and matchAt rely on: at every offset of the contract payloads where a
// prober's Validate matches, its gate admits the window and a plan
// built from that prober alone admits the offset. It runs in four
// stream states: permissive mode, validated mode with and without
// SawSTUN, and validated mode after a QUIC long header established a
// short-header DCID length.
func TestGateIsNecessaryForValidate(t *testing.T) {
	payloads := contractPayloads()
	quic := &proto.StreamState{ValidatedSSRC: map[uint32]bool{contractSSRC: true}}
	long := quicwire.BuildLong(quicwire.TypeInitial, quicwire.Version1, contractDCID, []byte{9}, nil, make([]byte, 24))
	var m proto.Message
	established := false
	for _, p := range proto.Default().Pass2Plan().Probers() {
		if p.ID == proto.QUIC && p.Validate(proto.Candidate{Payload: long}, quic, &m) {
			established = true
		}
	}
	if !established {
		t.Fatal("the QUIC long header did not match")
	}
	states := map[string]func() *proto.StreamState{
		"permissive": func() *proto.StreamState { return &proto.StreamState{} },
		"validated with STUN": func() *proto.StreamState {
			return &proto.StreamState{ValidatedSSRC: map[uint32]bool{contractSSRC: true}, SawSTUN: true}
		},
		"validated without STUN": func() *proto.StreamState {
			return &proto.StreamState{ValidatedSSRC: map[uint32]bool{contractSSRC: true}}
		},
		"QUIC short headers": func() *proto.StreamState { return quic },
	}
	matches := 0
	for name, state := range states {
		for _, p := range proto.Default().Pass2Plan().Probers() {
			r := proto.NewRegistry()
			r.Register(oneProber{p})
			plan := r.Pass2Plan()
			var w proto.Walk
			for _, b := range payloads {
				st := state()
				plan.Begin(&w, b, len(b), st)
				for off := range b {
					var out proto.Message
					if !p.Validate(proto.Candidate{Payload: b, Offset: off}, st, &out) {
						continue
					}
					matches++
					if g, win := p.Gate, proto.Window(b, off); !g.Admits(win) || !g.Fits(win, len(b)-off) {
						t.Fatalf("%s: %v prober (precedence %d) matched at offset %d of % x, which its gate %#x/%#x rejects",
							name, p.ID, p.Precedence, off, b, g.Mask, g.Want)
					}
					if got := w.Next(off); got != off {
						t.Fatalf("%s: %v prober (precedence %d) matched at offset %d of % x, but its plan's next offset is %d",
							name, p.ID, p.Precedence, off, b, got)
					}
					// A match may change the state the plan read; the
					// engine starts a new region after one.
					plan.Begin(&w, b, len(b), st)
				}
			}
		}
	}
	if matches == 0 {
		t.Fatal("no prober matched anywhere")
	}
}

// TestPlanWalksMatchPerOffsetScan pins both registry plans' live lane
// sets: under every combination of the lanes a walk can skip (the
// anchored, Ready and SSRCAt probers' lanes), one walk of the plan's
// lanes visits exactly the offsets where a per-offset scan of every
// unskipped prober's lane admits. The payloads are the contract
// payloads and short ones over bytes that the gates test.
func TestPlanWalksMatchPerOffsetScan(t *testing.T) {
	payloads := contractPayloads()
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 300; i++ {
		b := make([]byte, r.IntN(48))
		for j := range b {
			b[j] = []byte{0x00, 0x01, 0x03, 0x14, 0x40, 0x41, 0x80, 0x90, 0xC8, 0xFE, 0xFF}[r.IntN(11)]
		}
		payloads = append(payloads, b)
	}
	plans := map[string]*proto.ScanPlan{"pass 1": proto.Default().Pass1Plan(), "pass 2": proto.Default().Pass2Plan()}
	for pass, plan := range plans {
		probers := plan.Probers()
		skippable := proto.PlanSkippable(plan)
		if skippable == 0 {
			t.Fatalf("%s: no skippable lane", pass)
		}
		// Every subset of skippable, from skippable itself down to 0.
		for skip := skippable; ; skip = (skip - 1) & skippable {
			for _, b := range payloads {
				var want []int
				for o := range b {
					for k, p := range probers {
						if skip>>k&1 == 0 && proto.LaneAdmitsAt(p.Gate, b, o, o&^7) {
							want = append(want, o)
							break
						}
					}
				}
				if got := proto.WalkPlanLanes(plan, b, len(b), skip); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, skip %b, over % x: walk visits %v, per-offset scan %v", pass, skip, b, got, want)
				}
			}
			if skip == 0 {
				break
			}
		}
	}
}

// oneProber registers a single prober under its protocol's ID.
type oneProber struct{ p proto.Prober }

func (h oneProber) Meta() proto.Meta        { return proto.Meta{ID: h.p.ID, Name: h.p.ID.String()} }
func (h oneProber) Probers() []proto.Prober { return []proto.Prober{h.p} }
func (oneProber) Comply(dst []proto.Checked, _ proto.Message, _ time.Time, _ *proto.Session) []proto.Checked {
	return dst
}

// TestClassicGateAdmitsDefinedTypes pins the classic-STUN gate's type
// test against the method registry: every defined message type passes
// the gate's test of bytes 0-1. STUN message types have their top two
// bits zero, which stun.LooksLikeHeader requires.
func TestClassicGateAdmitsDefinedTypes(t *testing.T) {
	var classic proto.Gate
	for _, p := range proto.Default().Pass2Plan().Probers() {
		if p.ID == proto.STUN && p.Probe == nil {
			classic = p.Gate
		}
	}
	if classic.Mask == 0 {
		t.Fatal("no classic STUN prober with a gate")
	}
	defined := 0
	for v := 0; v < 1<<14; v++ {
		if _, ok := stun.DefinedMessageType(stun.MessageType(v)); ok {
			defined++
			if w := uint64(v) << 48; w&classic.Mask&(0xFFFF<<48) != classic.Want&(0xFFFF<<48) {
				t.Fatalf("defined type %#04x fails the classic gate %#x/%#x", v, classic.Mask, classic.Want)
			}
		}
	}
	if defined == 0 {
		t.Fatal("no defined message types")
	}
}

// TestFirstByteSlices pins each pass's first-byte demultiplexing: for
// every first byte, the probers whose gate admits it (byte 0 of the
// gate is the prober's first-byte slice), in precedence order, against
// the table below. DESIGN.md §11 sets the table beside RFC 7983 §7
// (STUN 0-3, ZRTP 16-19, DTLS 20-63, TURN channels 64-79, RTP/RTCP
// 128-191) and gives the reason for each difference.
func TestFirstByteSlices(t *testing.T) {
	type slice struct {
		prober string
		bytes  []int
	}
	span := func(lo, hi int) []int {
		var out []int
		for b := lo; b <= hi; b++ {
			out = append(out, b)
		}
		return out
	}
	cookie := slice{"STUN/TURN@10", span(0, 63)}
	channel := slice{"ChannelData@20", span(64, 79)}
	rtcpRange := slice{"RTCP@30", span(128, 191)}
	dtls := slice{"DTLS@45", span(20, 23)}
	want := map[string][]slice{
		"pass 1": {cookie, channel, rtcpRange, dtls,
			// RTP tallies only version 2 with a zero CSRC count.
			{"RTP@60", []int{0x80, 0x90, 0xA0, 0xB0}}},
		"pass 2": {cookie, channel, rtcpRange,
			{"QUIC@40", span(128, 255)}, // long header
			{"QUIC@40", span(64, 127)},  // short header
			dtls,
			{"STUN/TURN@50", span(0, 3)}, // classic RFC 3489
			{"RTP@60", span(128, 191)}},
	}
	plans := map[string]*proto.ScanPlan{"pass 1": proto.Default().Pass1Plan(), "pass 2": proto.Default().Pass2Plan()}
	for pass, plan := range plans {
		var wantAt, gotAt [256][]string
		for _, s := range want[pass] {
			for _, b := range s.bytes {
				wantAt[b] = append(wantAt[b], s.prober)
			}
		}
		for _, p := range plan.Probers() {
			for b := range 256 {
				if byte(b)&byte(p.Gate.Mask>>56) == byte(p.Gate.Want>>56) {
					gotAt[b] = append(gotAt[b], fmt.Sprintf("%v@%d", p.ID, p.Precedence))
				}
			}
		}
		for b := range 256 {
			if !reflect.DeepEqual(gotAt[b], wantAt[b]) {
				t.Errorf("%s, first byte %d: probers %v, want %v", pass, b, gotAt[b], wantAt[b])
			}
		}
	}
}

// contractDCID is the QUIC connection ID of the contract payloads.
var contractDCID = []byte{1, 2, 3, 4, 5, 6, 7, 8}

// contractSSRC is the media SSRC of the contract payloads.
const contractSSRC = 0x5566aabb

// contractPayloads returns every prefix of one real message per family,
// so rejections fire deep inside each validator, and random datagrams.
func contractPayloads() [][]byte {
	const ssrc = contractSSRC
	dcid := contractDCID
	var random [32]byte
	// Classic RFC 3489 STUN: a cookie-less header (the cookie word
	// holds transaction bytes) with a defined method.
	// Its declared length, 12, sets bit 2 of byte 3.
	classic := stunPayload(stun.TypeBindingRequest, [12]byte{4, 5, 6}, func(m *stun.Message) {
		m.Add(stun.AttrSoftware, []byte("rtccrtcc"))
	})
	copy(classic[4:8], []byte{0x01, 0x02, 0x03, 0x04})
	msgs := [][]byte{
		stunPayload(stun.TypeBindingRequest, [12]byte{1, 2, 3}, nil),
		classic,
		(&stun.ChannelData{ChannelNumber: 0x4000, Data: make([]byte, 24)}).Encode(),
		// ChannelData with the 3 bytes of padding a frame may carry.
		append((&stun.ChannelData{ChannelNumber: 0x4001, Data: make([]byte, 21)}).Encode(), 0, 0, 0),
		(&rtp.Packet{PayloadType: 111, SequenceNumber: 7, Timestamp: 960, SSRC: ssrc, Payload: make([]byte, 40)}).Encode(),
		rtcp.EncodeSR(&rtcp.SenderReport{SSRC: ssrc, Info: rtcp.SenderInfo{NTPTimestamp: 1}}),
		quicwire.BuildLong(quicwire.TypeInitial, quicwire.Version1, dcid, []byte{9}, nil, make([]byte, 24)),
		quicwire.BuildVersionNegotiation(dcid, []byte{9}, []uint32{quicwire.Version1}),
		quicwire.BuildShort(dcid, make([]byte, 24)),
		tlsinspect.BuildDTLSRecord(tlsinspect.DTLSTypeHandshake, tlsinspect.VersionDTLS12, 0, 0,
			tlsinspect.BuildDTLSHandshake(tlsinspect.DTLSHandshakeClientHello, 0,
				tlsinspect.BuildDTLSClientHelloBody(random, nil))),
	}
	var payloads [][]byte
	for _, m := range msgs {
		for n := 1; n <= len(m); n++ {
			payloads = append(payloads, m[:n])
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100; i++ {
		b := make([]byte, 1+r.IntN(200))
		for j := range b {
			b[j] = byte(r.Uint32())
		}
		payloads = append(payloads, b)
	}
	return payloads
}
