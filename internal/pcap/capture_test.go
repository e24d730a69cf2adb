package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// TestCaptureReaderBothFormats: the same frames written as classic pcap
// and as pcapng read back identically through CaptureReader, each with
// the file's link type, by frame and all at once.
func TestCaptureReaderBothFormats(t *testing.T) {
	want := []Packet{
		{Timestamp: time.Unix(1700000000, 123456000).UTC(), Data: []byte{0x45, 0x00, 0x01}},
		{Timestamp: time.Unix(1700000001, 999999000).UTC(), Data: bytes.Repeat([]byte{0xab}, 1500)},
	}
	var classic, ng bytes.Buffer
	cw, nw := NewWriter(&classic, LinkTypeEthernet), NewNGWriter(&ng, LinkTypeEthernet)
	for _, p := range want {
		if err := cw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		if err := nw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	for name, raw := range map[string][]byte{"pcap": classic.Bytes(), "pcapng": ng.Bytes()} {
		r, err := NewCaptureReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf []byte
		for i, w := range want {
			p, lt, err := r.ReadPacketInto(&buf)
			if err != nil || lt != LinkTypeEthernet || !p.Timestamp.Equal(w.Timestamp) || !bytes.Equal(p.Data, w.Data) {
				t.Fatalf("%s frame %d: %v %v %v, want %v %v", name, i, lt, p.Timestamp, err, LinkTypeEthernet, w.Timestamp)
			}
		}
		if _, _, err := r.ReadPacketInto(&buf); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: after the last frame err = %v, want io.EOF", name, err)
		}

		r, err = NewCaptureReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		all, lt, err := r.ReadAll()
		if err != nil || lt != LinkTypeEthernet || len(all) != len(want) {
			t.Fatalf("%s ReadAll: %d frames, %v, %v", name, len(all), lt, err)
		}
	}
	if _, err := NewCaptureReader(bytes.NewReader([]byte{0xd4, 0xc3})); err == nil {
		t.Error("a 2-byte capture was accepted")
	}
}
