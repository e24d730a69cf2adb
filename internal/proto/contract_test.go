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
	const ssrc = 0x5566aabb
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

	sentinel := proto.Message{Protocol: proto.MaxIDs - 1, Offset: -1, Length: -1}
	for _, validated := range []map[uint32]bool{nil, {ssrc: true}} {
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
