package rtp

import (
	"bytes"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/bytesutil"
)

// encodeReference is the writer-based Encode that AppendHeader
// replaced, kept as its reference.
func encodeReference(p *Packet) []byte {
	w := bytesutil.NewWriter(HeaderLen + len(p.Payload) + 16)
	b0 := byte(Version << 6)
	if p.Padding && p.PaddingLen > 0 {
		b0 |= 0x20
	}
	if p.Extension != nil {
		b0 |= 0x10
	}
	b0 |= uint8(len(p.CSRC)) & 0x0f
	w.Uint8(b0)
	b1 := p.PayloadType & 0x7f
	if p.Marker {
		b1 |= 0x80
	}
	w.Uint8(b1)
	w.Uint16(p.SequenceNumber)
	w.Uint32(p.Timestamp)
	w.Uint32(p.SSRC)
	for _, c := range p.CSRC {
		w.Write([]byte{byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)})
	}
	if p.Extension != nil {
		data := p.Extension.Data
		if data == nil && p.Extension.Elements != nil {
			ew := bytesutil.NewWriter(16)
			if p.Extension.Profile == ProfileOneByte {
				for _, el := range p.Extension.Elements {
					n := len(el.Payload)
					if n == 0 {
						n = 1
					}
					ew.Uint8(el.ID<<4 | uint8(n-1)&0x0f)
					ew.Write(el.Payload)
				}
			} else {
				for _, el := range p.Extension.Elements {
					ew.Uint8(el.ID)
					ew.Uint8(uint8(len(el.Payload)))
					ew.Write(el.Payload)
				}
			}
			data = ew.Bytes()
		}
		padded := append([]byte(nil), data...)
		for len(padded)%4 != 0 {
			padded = append(padded, 0)
		}
		w.Uint16(p.Extension.Profile)
		w.Uint16(uint16(len(padded) / 4))
		w.Write(padded)
	}
	w.Write(p.Payload)
	if p.Padding && p.PaddingLen > 0 {
		w.Zero(int(p.PaddingLen) - 1)
		w.Uint8(p.PaddingLen)
	}
	return w.Bytes()
}

// TestAppendHeaderMatchesReference checks that AppendHeader followed
// by the payload, and Encode, write the reference encoder's bytes.
func TestAppendHeaderMatchesReference(t *testing.T) {
	payload := []byte("media payload bytes")
	cases := map[string]*Packet{
		"plain":  {PayloadType: 96, SequenceNumber: 1, Timestamp: 2, SSRC: 3, Payload: payload},
		"marker": {Marker: true, PayloadType: 127, SequenceNumber: 0xffff, Timestamp: 0xffffffff, SSRC: 0xdeadbeef, Payload: payload},
		"csrcs":  {PayloadType: 0, SSRC: 9, CSRC: []uint32{1, 0x01020304, 0xffffffff}, Payload: payload},
		"one-byte-elements": {PayloadType: 111, SSRC: 5, Payload: payload, Extension: &Extension{
			Profile:  ProfileOneByte,
			Elements: []ExtensionElement{{ID: 1, Payload: []byte{0xd1, 0xd2, 0xd3}}, {ID: 3, Payload: nil}, {ID: 14, Payload: []byte{7}}},
		}},
		"two-byte-elements": {PayloadType: 111, SSRC: 5, Payload: payload, Extension: &Extension{
			Profile:  ProfileTwoByteBase | 0x3,
			Elements: []ExtensionElement{{ID: 200, Payload: []byte{1, 2, 3, 4, 5}}, {ID: 7, Payload: nil}},
		}},
		"raw-unpadded": {PayloadType: 100, SSRC: 6, Payload: payload, Extension: &Extension{Profile: 0x8001, Data: []byte{1, 2, 3, 4, 5, 6, 7}}},
		"raw-words":    {PayloadType: 100, SSRC: 6, Payload: payload, Extension: &Extension{Profile: 0x8D00, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		"empty-ext":    {PayloadType: 100, SSRC: 6, Payload: payload, Extension: &Extension{Profile: 0x0085}},
		"padding":      {Padding: true, PaddingLen: 4, PayloadType: 8, SSRC: 7, Payload: payload},
		"padding-one":  {Padding: true, PaddingLen: 1, PayloadType: 8, SSRC: 7, Payload: payload, CSRC: []uint32{42}},
		"padding-zero": {Padding: true, PaddingLen: 0, PayloadType: 8, SSRC: 7, Payload: payload},
		"empty":        {PayloadType: 13, SSRC: 1},
	}
	for name, p := range cases {
		want := encodeReference(p)
		got := p.AppendHeader([]byte{0xAA})
		got = append(got, p.Payload...)
		if p.Padding && p.PaddingLen > 0 {
			got = append(got, make([]byte, p.PaddingLen-1)...)
			got = append(got, p.PaddingLen)
		}
		if !bytes.Equal(got[1:], want) || got[0] != 0xAA {
			t.Errorf("%s: AppendHeader + payload = %x, want %x", name, got[1:], want)
		}
		if enc := p.Encode(); !bytes.Equal(enc, want) || !bytes.Equal(p.Raw, want) {
			t.Errorf("%s: Encode = %x, want %x", name, enc, want)
		}
	}
}
