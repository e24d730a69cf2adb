package dpi

import (
	"bytes"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

func TestStrictMatchesCompliantTraffic(t *testing.T) {
	e := StrictEngine{}
	r := ice.NewRand(1)

	// Defined STUN at offset zero.
	msg := ice.ServerBindingRequest(r)
	if res := e.Inspect(msg.Raw); res.Class != ClassStandard || res.Messages[0].Protocol != ProtoSTUN {
		t.Errorf("stun: %+v", res)
	}
	// Static-payload-type RTP.
	p := &rtp.Packet{PayloadType: 0, SequenceNumber: 1, SSRC: 5, Payload: []byte("pcmu")}
	if res := e.Inspect(p.Encode()); res.Class != ClassStandard || res.Messages[0].Protocol != ProtoRTP {
		t.Errorf("rtp pt0: %+v", res)
	}
	// Clean RTCP compound.
	sr := rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 1, Info: rtcp.SenderInfo{NTPTimestamp: 1}})
	if res := e.Inspect(sr); res.Class != ClassStandard || res.Messages[0].Protocol != ProtoRTCP {
		t.Errorf("rtcp: %+v", res)
	}
	// ChannelData.
	cd := &stun.ChannelData{ChannelNumber: 0x4001, Data: bytes.Repeat([]byte{1}, 20)}
	if res := e.Inspect(cd.Encode()); res.Class != ClassStandard || res.Messages[0].Protocol != ProtoChannelData {
		t.Errorf("channeldata: %+v", res)
	}
}

// The baseline's two blind spots, which motivate the paper's custom DPI
// (§4.1): proprietary headers and non-compliant messages.
func TestStrictBlindSpots(t *testing.T) {
	e := StrictEngine{}

	// 1. A perfectly valid RTP message behind a Zoom-style header is
	// invisible to the baseline but found by the custom engine.
	inner := (&rtp.Packet{PayloadType: 0, SequenceNumber: 9, SSRC: 7, Payload: []byte("media")}).Encode()
	wrapped := append([]byte{0x04, 0x10, 0xaa, 0xbb, 0xcc, 0xdd, 0x0f, 0x01, 0x03, 0x05, 0x07, 0x09, 0x0b, 0x0d, 0x0f, 0x11, 0x13, 0x15, 0x17, 0x19, 0x1b, 0x1d, 0x1f, 0x21}, inner...)
	if res := e.Inspect(wrapped); res.Class != ClassFullyProprietary {
		t.Errorf("baseline saw through the proprietary header: %+v", res)
	}
	if res := NewEngine().Inspect(wrapped, nil); res.Class != ClassProprietaryHeader {
		t.Errorf("custom engine missed the wrapped RTP: %+v", res)
	}

	// 2. An undefined STUN type (WhatsApp's 0x0801) is rejected by the
	// baseline but surfaced by the custom engine.
	m := &stun.Message{Type: stun.MessageType(0x0801), TransactionID: [12]byte{1}}
	m.Add(stun.AttrType(0x4003), []byte{0xff})
	raw := m.Encode()
	if res := e.Inspect(raw); res.Class != ClassFullyProprietary {
		t.Errorf("baseline accepted undefined STUN type: %+v", res)
	}
	if res := NewEngine().Inspect(raw, nil); res.Class != ClassStandard {
		t.Errorf("custom engine missed undefined STUN type: %+v", res)
	}

	// 3. Dynamic payload types (every studied app's media) are rejected
	// by the Peafowl whitelist.
	dyn := (&rtp.Packet{PayloadType: 111, SequenceNumber: 1, SSRC: 5, Payload: []byte("opus")}).Encode()
	if res := e.Inspect(dyn); res.Class != ClassFullyProprietary {
		t.Errorf("baseline accepted dynamic payload type: %+v", res)
	}

	// 4. RTCP with a proprietary trailer (Discord) fails the strict
	// clean-compound requirement.
	sr := rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 1, Info: rtcp.SenderInfo{NTPTimestamp: 1}})
	trailered := append(sr, 0x00, 0x01, 0x80)
	if res := e.Inspect(trailered); res.Class != ClassFullyProprietary {
		t.Errorf("baseline accepted trailered RTCP: %+v", res)
	}
}

func TestStrictInspectStream(t *testing.T) {
	e := StrictEngine{}
	payloads := [][]byte{
		(&rtp.Packet{PayloadType: 0, SSRC: 1, Payload: []byte("x")}).Encode(),
		bytes.Repeat([]byte{0x01}, 100),
	}
	res := e.InspectStream(payloads)
	if len(res) != 2 || res[0].Class != ClassStandard || res[1].Class != ClassFullyProprietary {
		t.Errorf("stream results: %+v", res)
	}
}

func TestStrictNeverPanics(t *testing.T) {
	e := StrictEngine{}
	inputs := [][]byte{nil, {0}, {0x80}, bytes.Repeat([]byte{0xff}, 1500)}
	for _, in := range inputs {
		_ = e.Inspect(in)
	}
}
