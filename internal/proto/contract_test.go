package proto_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

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
		for _, p := range proto.Default().Probers() {
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
// does so only at a window its gate admits.
func TestGateIsNecessaryForProbe(t *testing.T) {
	payloads := contractPayloads()
	fresh := proto.NewScanState()
	for _, p := range proto.Default().Probers() {
		if !p.Pass1 {
			continue
		}
		for _, b := range payloads {
			for off := range b {
				sc := proto.NewScanState()
				_, ok := p.Probe(proto.Candidate{Payload: b, Offset: off}, sc)
				if (ok || !reflect.DeepEqual(sc, fresh)) && !p.Gate.Admits(proto.Window(b, off)) {
					t.Fatalf("%v prober (precedence %d) acted at offset %d of % x, which its gate %#x/%#x rejects",
						p.ID, p.Precedence, off, b, p.Gate.Mask, p.Gate.Want)
				}
			}
		}
	}
}

// contractSSRC is the media SSRC of the contract payloads.
const contractSSRC = 0x5566aabb

// contractPayloads returns every prefix of one real message per family,
// so rejections fire deep inside each validator, and random datagrams.
func contractPayloads() [][]byte {
	const ssrc = contractSSRC
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var random [32]byte
	msgs := [][]byte{
		stunPayload(stun.TypeBindingRequest, [12]byte{1, 2, 3}, nil),
		(&stun.ChannelData{ChannelNumber: 0x4000, Data: make([]byte, 24)}).Encode(),
		(&rtp.Packet{PayloadType: 111, SequenceNumber: 7, Timestamp: 960, SSRC: ssrc, Payload: make([]byte, 40)}).Encode(),
		rtcp.EncodeSR(&rtcp.SenderReport{SSRC: ssrc, Info: rtcp.SenderInfo{NTPTimestamp: 1}}),
		quicwire.BuildLong(quicwire.TypeInitial, quicwire.Version1, dcid, []byte{9}, nil, make([]byte, 24)),
		quicwire.BuildVersionNegotiation(dcid, []byte{9}, []uint32{quicwire.Version1}),
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
