package ice

import (
	"bytes"
	"net/netip"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/stun"
)

func TestRandDeterministic(t *testing.T) {
	r1, r2 := NewRand(42), NewRand(42)
	if r1.TxID() != r2.TxID() {
		t.Error("same seed produced different txids")
	}
	if !bytes.Equal(r1.Bytes(16), r2.Bytes(16)) {
		t.Error("same seed produced different bytes")
	}
	r3 := NewRand(43)
	if NewRand(42).TxID() == r3.TxID() {
		t.Error("different seeds produced same txid")
	}
}

func agents() (*Agent, *Agent) {
	a := &Agent{Ufrag: "aU", Password: "aPassword0123456789012", Controlling: true, TieBreaker: 0x1122334455667788}
	b := &Agent{Ufrag: "bU", Password: "bPassword0123456789012"}
	return a, b
}

func TestBindingRequestAttributes(t *testing.T) {
	r := NewRand(1)
	a, b := agents()
	m := a.BindingRequest(r, b, 0x6e001eff, true)
	dec, err := stun.Decode(m.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Type != stun.TypeBindingRequest {
		t.Errorf("type = %v", dec.Type)
	}
	if u := dec.Get(stun.AttrUsername); u == nil || string(u.Value) != "bU:aU" {
		t.Errorf("USERNAME = %v", u)
	}
	if p := dec.Get(stun.AttrPriority); p == nil || len(p.Value) != 4 || p.Value[0] != 0x6e {
		t.Errorf("PRIORITY = %v", p)
	}
	if dec.Get(stun.AttrICEControlling) == nil {
		t.Error("ICE-CONTROLLING missing for controlling agent")
	}
	if dec.Get(stun.AttrUseCandidate) == nil {
		t.Error("USE-CANDIDATE missing")
	}
	if dec.Get(stun.AttrMessageIntegrity) == nil || dec.Get(stun.AttrFingerprint) == nil {
		t.Error("integrity/fingerprint missing")
	}
	if !stun.VerifyFingerprint(dec) {
		t.Error("fingerprint invalid")
	}
	// Controlled agent uses ICE-CONTROLLED and no USE-CANDIDATE.
	m2 := b.BindingRequest(r, a, 1, true)
	if m2.Get(stun.AttrICEControlled) == nil || m2.Get(stun.AttrUseCandidate) != nil {
		t.Error("controlled agent attributes wrong")
	}
}

func TestBindingResponseEchoesTxID(t *testing.T) {
	r := NewRand(2)
	a, b := agents()
	req := a.BindingRequest(r, b, 1, false)
	mapped := netip.MustParseAddrPort("203.0.113.5:50000")
	resp := b.BindingResponse(req, mapped)
	if resp.TransactionID != req.TransactionID {
		t.Error("txid not echoed")
	}
	xa := resp.Get(stun.AttrXORMappedAddress)
	if xa == nil {
		t.Fatal("XOR-MAPPED-ADDRESS missing")
	}
	got, err := stun.DecodeXORAddress(xa.Value, resp.TransactionID)
	if err != nil || got.Addr != mapped.Addr() || got.Port != mapped.Port() {
		t.Errorf("mapped = %+v, %v", got, err)
	}
}

func TestServerBindingExchange(t *testing.T) {
	r := NewRand(3)
	req := ServerBindingRequest(r)
	if req.Type != stun.TypeBindingRequest || !stun.VerifyFingerprint(req) {
		t.Error("server binding request malformed")
	}
	mapped := netip.MustParseAddrPort("198.51.100.1:40000")
	resp := ServerBindingResponse(req, mapped)
	if resp.TransactionID != req.TransactionID {
		t.Error("txid mismatch")
	}
	if resp.Get(stun.AttrXORMappedAddress) == nil || resp.Get(stun.AttrMappedAddress) == nil {
		t.Error("address attributes missing")
	}
}

func TestTURNAllocationSequence(t *testing.T) {
	r := NewRand(4)
	creds := TURNCredentials{Username: "u", Realm: "example.org", Nonce: "n0nce", Password: "pw"}
	relayed := netip.MustParseAddrPort("203.0.113.50:49152")
	mapped := netip.MustParseAddrPort("198.51.100.1:40000")
	peer := netip.MustParseAddrPort("198.51.100.2:40001")
	seq := TURNAllocation(r, creds, relayed, mapped, peer, 0x4000)
	if len(seq) != 8 {
		t.Fatalf("sequence length = %d", len(seq))
	}
	wantTypes := []stun.MessageType{
		stun.TypeAllocateRequest, stun.TypeAllocateError,
		stun.TypeAllocateRequest, stun.TypeAllocateSuccess,
		stun.TypeCreatePermissionReq, stun.TypeCreatePermissionOK,
		stun.TypeChannelBindRequest, stun.TypeChannelBindSuccess,
	}
	wantDir := []bool{true, false, true, false, true, false, true, false}
	for i, ex := range seq {
		if ex.Msg.Type != wantTypes[i] {
			t.Errorf("step %d type = %v, want %v", i, ex.Msg.Type, wantTypes[i])
		}
		if ex.FromClient != wantDir[i] {
			t.Errorf("step %d direction = %v", i, ex.FromClient)
		}
		if _, err := stun.Decode(ex.Msg.Encode()); err != nil {
			t.Errorf("step %d does not re-decode: %v", i, err)
		}
	}
	// Challenge pairs share transaction IDs.
	if seq[0].Msg.TransactionID != seq[1].Msg.TransactionID {
		t.Error("401 txid mismatch")
	}
	if seq[2].Msg.TransactionID != seq[3].Msg.TransactionID {
		t.Error("success txid mismatch")
	}
	// 401 carries ERROR-CODE with 401.
	ec := seq[1].Msg.Get(stun.AttrErrorCode)
	if ec == nil {
		t.Fatal("ERROR-CODE missing")
	}
	code, err := stun.DecodeErrorCode(ec.Value)
	if err != nil || code.Code != 401 {
		t.Errorf("error code = %+v", code)
	}
	// Success carries XOR-RELAYED-ADDRESS decoding to the relayed addr.
	xr := seq[3].Msg.Get(stun.AttrXORRelayedAddress)
	if xr == nil {
		t.Fatal("XOR-RELAYED-ADDRESS missing")
	}
	got, err := stun.DecodeXORAddress(xr.Value, seq[3].Msg.TransactionID)
	if err != nil || got.Port != relayed.Port() {
		t.Errorf("relayed = %+v", got)
	}
	// ChannelBind carries a well-formed CHANNEL-NUMBER.
	cn := seq[6].Msg.Get(stun.AttrChannelNumber)
	if cn == nil || len(cn.Value) != 4 {
		t.Error("CHANNEL-NUMBER malformed")
	}
}

func TestRefreshExchange(t *testing.T) {
	r := NewRand(5)
	seq := RefreshExchange(r, TURNCredentials{Username: "u", Realm: "r", Nonce: "n", Password: "p"})
	if len(seq) != 2 {
		t.Fatalf("len = %d", len(seq))
	}
	if seq[0].Msg.Type != stun.TypeRefreshRequest || seq[1].Msg.Type != stun.TypeRefreshSuccess {
		t.Error("types wrong")
	}
	if seq[0].Msg.TransactionID != seq[1].Msg.TransactionID {
		t.Error("txid mismatch")
	}
}

func TestSendAndDataIndications(t *testing.T) {
	r := NewRand(6)
	peer := netip.MustParseAddrPort("198.51.100.9:1234")
	si := SendIndication(r, peer, []byte("media"))
	if si.Type != stun.TypeSendIndication || si.Get(stun.AttrData) == nil {
		t.Error("send indication malformed")
	}
	di := DataIndication(r, peer, []byte("media"), nil)
	if di.Type != stun.TypeDataIndication {
		t.Error("data indication type wrong")
	}
	if len(di.Attributes) != 2 {
		t.Errorf("data indication attrs = %d, want exactly 2", len(di.Attributes))
	}
	// FaceTime variant with spurious CHANNEL-NUMBER.
	di2 := DataIndication(r, peer, []byte("media"), []stun.Attribute{
		{Type: stun.AttrChannelNumber, Value: []byte{0, 0, 0, 0}},
	})
	if len(di2.Attributes) != 3 {
		t.Error("extra attribute not appended")
	}
}

func TestGoogPing(t *testing.T) {
	r := NewRand(7)
	id := r.TxID()
	req := GoogPing(r, false, id)
	resp := GoogPing(r, true, id)
	if req.Type != stun.MessageType(0x0200) || resp.Type != stun.MessageType(0x0300) {
		t.Errorf("types = %v %v", req.Type, resp.Type)
	}
	if req.TransactionID != resp.TransactionID {
		t.Error("txids differ")
	}
	if _, ok := stun.DefinedMessageType(req.Type); !ok {
		t.Error("GOOG-PING should be registry-defined")
	}
}

// TestAppendBytesMatchesBytes checks that AppendBytes appends the
// bytes Bytes returns on the same seed, and draws the same values.
func TestAppendBytesMatchesBytes(t *testing.T) {
	r1, r2 := NewRand(9), NewRand(9)
	prefix := []byte{0xAA, 0x55}
	for _, n := range []int{0, 1, 3, 8, 17, 1200} {
		want := r1.Bytes(n)
		got := r2.AppendBytes(append([]byte(nil), prefix...), n)
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Fatalf("n=%d: AppendBytes = %x, want %x after the prefix", n, got, want)
		}
	}
	if r1.Uint64() != r2.Uint64() {
		t.Error("AppendBytes and Bytes left the sources in different states")
	}
}
