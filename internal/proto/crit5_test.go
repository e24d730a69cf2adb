// Criterion-5 (cross-message) judge tests under adverse delivery: for
// every family in the default registry, wire-level message sequences
// are fed through a Session in capture order, reordered, and
// duplicated, pinning which verdicts must stay stable and which
// CritSemantics drift is the correct reading of the disturbed stream.
// These are the protocol-level contracts behind the impairment matrix
// in internal/core: reordering and duplication may only ever surface
// criterion-5 violations, never invent per-message (criteria 1-4) ones.
package proto_test

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/proto"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
	"github.com/rtc-compliance/rtcc/internal/quicwire"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/srtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

// crit5Vector exercises one family's criterion-5 state machine. Each
// scenario receives a fresh Session and StreamState (permissive
// single-datagram mode), so cross-scenario state never leaks.
type crit5Vector struct {
	run func(t *testing.T)
}

var crit5Base = time.Date(2025, 3, 1, 12, 0, 0, 0, time.UTC)

// judgeSeq validates each payload against the registered probers and
// feeds the extracted messages through one session in order, returning
// the flattened verdicts.
func judgeSeq(t *testing.T, payloads [][]byte) []proto.Checked {
	t.Helper()
	st := &proto.StreamState{}
	s := proto.NewChecker(nil).NewSession()
	var out []proto.Checked
	for i, b := range payloads {
		m, ok := validateOne(st, b)
		if !ok {
			t.Fatalf("payload %d (% x…) matched no registered prober", i, b[:min(len(b), 8)])
		}
		out = append(out, s.Check(m, crit5Base.Add(time.Duration(i)*20*time.Millisecond))...)
	}
	return out
}

func validateOne(st *proto.StreamState, b []byte) (proto.Message, bool) {
	var m proto.Message
	for _, p := range proto.Default().ProbersFor(b[0]) {
		if p.Validate(proto.Candidate{Payload: b}, st, &m) {
			return m, true
		}
	}
	return proto.Message{}, false
}

// permute returns the payloads in the given index order.
func permute(payloads [][]byte, order []int) [][]byte {
	out := make([][]byte, 0, len(order))
	for _, i := range order {
		out = append(out, payloads[i])
	}
	return out
}

// duplicate delivers every payload twice, back to back.
func duplicate(payloads [][]byte) [][]byte {
	out := make([][]byte, 0, 2*len(payloads))
	for _, p := range payloads {
		out = append(out, p, p)
	}
	return out
}

func allCompliant(t *testing.T, out []proto.Checked) {
	t.Helper()
	for _, c := range out {
		if !c.Verdict.Compliant {
			t.Errorf("%v: unexpected violation (criterion %d): %s",
				c.Type, c.Verdict.Failed, c.Verdict.Reason)
		}
	}
}

// semanticsDriftOnly asserts every violation in out fails criterion 5
// and returns how many did. Disturbed delivery must never manufacture
// per-message violations: those judge bytes the sender emitted, which
// reordering and duplication do not edit.
func semanticsDriftOnly(t *testing.T, out []proto.Checked) int {
	t.Helper()
	drift := 0
	for _, c := range out {
		if c.Verdict.Compliant {
			continue
		}
		if c.Verdict.Failed != proto.CritSemantics {
			t.Errorf("%v: criterion %d violation under disturbed delivery: %s",
				c.Type, c.Verdict.Failed, c.Verdict.Reason)
			continue
		}
		drift++
	}
	return drift
}

// --- STUN/TURN family ---

func stunPayload(typ stun.MessageType, txid [12]byte, attrs func(*stun.Message)) []byte {
	m := &stun.Message{Type: typ, TransactionID: txid}
	if attrs != nil {
		attrs(m)
	}
	return m.Encode()
}

func stunTURNVector(t *testing.T) {
	txA := [12]byte{0xde, 0xad, 0xbe, 0xef, 0x13, 0x37, 0x5a, 0x21, 0x90, 0x44, 0xc2, 0x7e}
	txB := [12]byte{0x4f, 0x91, 0x02, 0xe8, 0xaa, 0x03, 0x6d, 0xf0, 0x1b, 0xc5, 0x38, 0x62}
	txBind := [12]byte{0x77, 0x2c, 0x19, 0x84, 0xfe, 0x60, 0x0b, 0xd3, 0x49, 0x8a, 0x25, 0x1c}
	bindReqA := stunPayload(stun.TypeBindingRequest, txA, nil)
	bindOkA := stunPayload(stun.TypeBindingSuccess, txA, nil)
	bindReqB := stunPayload(stun.TypeBindingRequest, txB, nil)
	bindOkB := stunPayload(stun.TypeBindingSuccess, txB, nil)
	chanBind := stunPayload(stun.TypeChannelBindRequest, txBind, func(m *stun.Message) {
		m.Add(stun.AttrChannelNumber, stun.EncodeChannelNumber(0x4000))
	})
	chanData := (&stun.ChannelData{ChannelNumber: 0x4000, Data: make([]byte, 24)}).Encode()

	t.Run("binding-in-order", func(t *testing.T) {
		allCompliant(t, judgeSeq(t, [][]byte{bindReqA, bindOkA, bindReqB, bindOkB}))
	})
	t.Run("binding-reordered", func(t *testing.T) {
		// Responses overtaking their requests: transaction IDs are
		// random, so pairing is order-free and the verdicts hold.
		allCompliant(t, judgeSeq(t, [][]byte{bindOkA, bindReqA, bindOkB, bindReqB}))
	})
	t.Run("binding-duplicated", func(t *testing.T) {
		// A duplicated request stays far below the repeated-request
		// threshold; duplicated responses are idempotent.
		allCompliant(t, judgeSeq(t, duplicate([][]byte{bindReqA, bindOkA, bindReqB, bindOkB})))
	})
	t.Run("channeldata-in-order", func(t *testing.T) {
		allCompliant(t, judgeSeq(t, [][]byte{chanBind, chanData, chanData}))
	})
	t.Run("channeldata-reordered", func(t *testing.T) {
		// ChannelData overtaking its ChannelBind is the documented
		// criterion-5 drift: data on a channel never bound on this
		// stream. Only the early frame drifts; post-bind frames hold.
		out := judgeSeq(t, [][]byte{chanData, chanBind, chanData})
		if got := semanticsDriftOnly(t, out); got != 1 {
			t.Errorf("drifted verdicts = %d, want exactly the pre-bind ChannelData", got)
		}
	})
}

// --- RTP family ---

func rtpVector(t *testing.T) {
	payloads := make([][]byte, 0, 6)
	for i := 0; i < 6; i++ {
		p := &rtp.Packet{
			Version:        2,
			PayloadType:    111,
			SequenceNumber: uint16(4000 + i),
			Timestamp:      uint32(90000 + 960*i),
			SSRC:           0x5566aabb,
			Payload:        make([]byte, 40),
		}
		payloads = append(payloads, p.Encode())
	}
	t.Run("in-order", func(t *testing.T) {
		allCompliant(t, judgeSeq(t, payloads))
	})
	t.Run("reordered", func(t *testing.T) {
		// RTP's compliance judge carries no cross-message criterion:
		// sequence displacement is the transport's problem, not a
		// protocol violation, so verdicts are permutation-invariant.
		allCompliant(t, judgeSeq(t, permute(payloads, []int{1, 0, 3, 2, 5, 4})))
	})
	t.Run("duplicated", func(t *testing.T) {
		allCompliant(t, judgeSeq(t, duplicate(payloads)))
	})
}

// --- RTCP family ---

// srtcpSR builds an SRTCP-protected sender report: a plaintext-framed
// SR followed by the full RFC 3711 trailer (E-flag + 31-bit index word
// plus the 10-byte auth tag).
func srtcpSR(ssrc uint32, index uint32) []byte {
	sr := rtcp.EncodeSR(&rtcp.SenderReport{
		SSRC: ssrc,
		Info: rtcp.SenderInfo{NTPTimestamp: 0x83aa7e80_00000000, RTPTimestamp: 90000},
	})
	trailer := make([]byte, srtp.SRTCPIndexLen+srtp.AuthTagLen)
	binary.BigEndian.PutUint32(trailer, 1<<31|index)
	for i := srtp.SRTCPIndexLen; i < len(trailer); i++ {
		trailer[i] = byte(0xa0 + i)
	}
	return append(sr, trailer...)
}

func rtcpVector(t *testing.T) {
	plain := rtcp.Compound(
		rtcp.EncodeSR(&rtcp.SenderReport{
			SSRC: 0x11223344,
			Info: rtcp.SenderInfo{NTPTimestamp: 0x83aa7e80_00000000, RTPTimestamp: 48000},
		}),
		rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{
			SSRC:  0x11223344,
			Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "user@host"}},
		}}}),
	)
	t.Run("plain-compound-stable", func(t *testing.T) {
		// A plaintext compound holds no cross-message state: verdicts
		// are identical in order, reordered, and duplicated.
		allCompliant(t, judgeSeq(t, [][]byte{plain, plain, plain}))
	})

	srtcp := [][]byte{srtcpSR(0x778899aa, 1), srtcpSR(0x778899aa, 2), srtcpSR(0x778899aa, 3)}
	t.Run("srtcp-in-order", func(t *testing.T) {
		allCompliant(t, judgeSeq(t, srtcp))
	})
	t.Run("srtcp-reordered", func(t *testing.T) {
		// Index 3 overtaking 1 and 2 breaks per-SSRC monotonicity for
		// the stragglers — the correct criterion-5 reading of a
		// reordered SRTCP stream.
		out := judgeSeq(t, permute(srtcp, []int{2, 0, 1}))
		if got := semanticsDriftOnly(t, out); got != 2 {
			t.Errorf("drifted verdicts = %d, want the 2 overtaken reports", got)
		}
	})
	t.Run("srtcp-duplicated", func(t *testing.T) {
		// Every second copy replays an already-seen index: duplication
		// drifts exactly one verdict per original message.
		out := judgeSeq(t, duplicate(srtcp))
		if got := semanticsDriftOnly(t, out); got != len(srtcp) {
			t.Errorf("drifted verdicts = %d, want %d (one per duplicate)", got, len(srtcp))
		}
	})
}

// --- QUIC family ---

func quicVector(t *testing.T) {
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	scid := []byte{9, 10, 11, 12}
	payloads := [][]byte{
		quicwire.BuildLong(quicwire.TypeInitial, quicwire.Version1, dcid, scid, nil, make([]byte, 24)),
		quicwire.BuildLong(quicwire.TypeHandshake, quicwire.Version1, dcid, scid, nil, make([]byte, 20)),
		quicwire.BuildLong(quicwire.TypeHandshake, quicwire.Version1, dcid, scid, nil, make([]byte, 16)),
	}
	t.Run("in-order", func(t *testing.T) {
		allCompliant(t, judgeSeq(t, payloads))
	})
	t.Run("reordered", func(t *testing.T) {
		// Long headers carry their connection IDs, so consistency
		// checks are order-free.
		allCompliant(t, judgeSeq(t, permute(payloads, []int{2, 0, 1})))
	})
	t.Run("duplicated", func(t *testing.T) {
		allCompliant(t, judgeSeq(t, duplicate(payloads)))
	})
}

// --- DTLS family ---

func dtlsVector(t *testing.T) {
	var random [32]byte
	for i := range random {
		random[i] = byte(7 * i)
	}
	ch := tlsinspect.BuildDTLSRecord(tlsinspect.DTLSTypeHandshake, tlsinspect.VersionDTLS12, 0, 0,
		tlsinspect.BuildDTLSHandshake(tlsinspect.DTLSHandshakeClientHello, 0,
			tlsinspect.BuildDTLSClientHelloBody(random, nil)))
	sh := tlsinspect.BuildDTLSRecord(tlsinspect.DTLSTypeHandshake, tlsinspect.VersionDTLS12, 0, 1,
		tlsinspect.BuildDTLSHandshake(tlsinspect.DTLSHandshakeServerHello, 0,
			tlsinspect.BuildDTLSServerHelloBody(random)))

	t.Run("in-order", func(t *testing.T) {
		allCompliant(t, judgeSeq(t, [][]byte{ch, sh}))
	})
	t.Run("reordered", func(t *testing.T) {
		// ServerHello overtaking the ClientHello is the handshake-
		// sequence drift case: the early record fails criterion 5, and
		// the flight recovers once the ClientHello lands.
		out := judgeSeq(t, [][]byte{sh, ch, sh})
		if got := semanticsDriftOnly(t, out); got != 1 {
			t.Errorf("drifted verdicts = %d, want exactly the early ServerHello", got)
		}
	})
	t.Run("duplicated", func(t *testing.T) {
		// Duplicated hellos are idempotent: handshake progress is a
		// latch, not a counter.
		allCompliant(t, judgeSeq(t, duplicate([][]byte{ch, sh})))
	})
}

// crit5Vectors maps every registered protocol family to its
// adverse-delivery vector. TestCrit5FamilyCoverage fails when a newly
// registered family has no entry, so criterion-5 behaviour under
// reordering and duplication is pinned as part of registering.
var crit5Vectors = map[proto.ID]crit5Vector{
	proto.STUN: {run: stunTURNVector},
	proto.RTP:  {run: rtpVector},
	proto.RTCP: {run: rtcpVector},
	proto.QUIC: {run: quicVector},
	proto.DTLS: {run: dtlsVector},
}

func TestCrit5FamilyCoverage(t *testing.T) {
	fams := proto.Default().Families()
	if len(fams) == 0 {
		t.Fatal("default registry has no families")
	}
	for _, fam := range fams {
		if _, ok := crit5Vectors[fam]; !ok {
			t.Errorf("family %v is registered but has no criterion-5 adverse-delivery vector", fam)
		}
	}
}

func TestCrit5UnderAdverseDelivery(t *testing.T) {
	for _, m := range proto.Default().Metas() {
		if m.ID != m.Family {
			continue // folded protocols are covered by their family vector
		}
		v, ok := crit5Vectors[m.Family]
		if !ok {
			continue // reported by TestCrit5FamilyCoverage
		}
		t.Run(m.Name, v.run)
	}
}
