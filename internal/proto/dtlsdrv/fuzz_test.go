package dtlsdrv

import (
	"bytes"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

// FuzzDTLSProbe checks the DTLS prober's invariants on arbitrary
// payloads: Match never panics, a match consumes the whole candidate
// (DTLS records fill their datagram), the decoded record chain is
// non-empty, and Comply judges every record without panicking.
func FuzzDTLSProbe(f *testing.F) {
	var random [32]byte
	ch := tlsinspect.BuildDTLSHandshake(tlsinspect.DTLSHandshakeClientHello, 0,
		tlsinspect.BuildDTLSClientHelloBody(random, nil))
	hello := tlsinspect.BuildDTLSRecord(tlsinspect.DTLSTypeHandshake, tlsinspect.VersionDTLS12, 0, 0, ch)
	ccs := tlsinspect.BuildDTLSRecord(tlsinspect.DTLSTypeChangeCipherSpec, tlsinspect.VersionDTLS12, 0, 5, []byte{1})
	f.Add(hello)
	f.Add(ccs)
	f.Add(tlsinspect.BuildDTLSRecord(tlsinspect.DTLSTypeAlert, tlsinspect.VersionDTLS10, 0, 1, []byte{1, 0}))
	f.Add(tlsinspect.BuildDTLSRecord(tlsinspect.DTLSTypeApplicationData, tlsinspect.VersionDTLS12, 1, 9,
		bytes.Repeat([]byte{0x5a}, 48)))
	chain := append(append([]byte(nil), ccs...),
		tlsinspect.BuildDTLSRecord(tlsinspect.DTLSTypeHandshake, tlsinspect.VersionDTLS12, 1, 6,
			bytes.Repeat([]byte{0x7f}, 40))...)
	f.Add(chain)
	f.Add(hello[:len(hello)-4]) // truncated final record: must not match
	f.Add([]byte{0x16, 0xfe, 0xfd})

	f.Fuzz(func(t *testing.T, data []byte) {
		var st proto.StreamState
		var m proto.Message
		if !Match(proto.Candidate{Payload: data}, &st, &m) {
			return
		}
		if m.Length != len(data) {
			t.Fatalf("match consumed %d of %d bytes; DTLS records must fill the datagram", m.Length, len(data))
		}
		recs, isRecs := m.Body.([]tlsinspect.DTLSRecord)
		if !isRecs || len(recs) == 0 {
			t.Fatalf("match carries no record chain: %T", m.Body)
		}
		s := proto.NewChecker(proto.Default()).NewSession()
		checked := handler{}.Comply(nil, m, time.Unix(0, 0), s)
		if len(checked) != len(recs) {
			t.Fatalf("Comply judged %d records, chain has %d", len(checked), len(recs))
		}
	})
}
