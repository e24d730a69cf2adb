// Package ice produces specification-compliant STUN and TURN message
// exchanges: ICE connectivity checks (RFC 8445) and the TURN allocation
// lifecycle (RFC 8656).
//
// The application emulators in internal/appsim use these builders for
// the compliant portions of their traffic — a WebRTC-based app like
// Google Meet emits exactly these exchanges — and then layer their
// documented deviations on top. All randomness is drawn from a seeded
// generator so captures are reproducible.
package ice

import (
	"math/rand/v2"
	"net/netip"
	"slices"

	"github.com/rtc-compliance/rtcc/internal/stun"
)

// Rand is the deterministic random source used across the synthesizers.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// TxID generates a random 96-bit transaction ID.
func (r *Rand) TxID() [12]byte {
	var id [12]byte
	for i := 0; i < 12; i += 4 {
		v := r.Uint32()
		id[i], id[i+1], id[i+2], id[i+3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	}
	return id
}

// Bytes returns n random bytes.
func (r *Rand) Bytes(n int) []byte { return r.AppendBytes(make([]byte, 0, n), n) }

// AppendBytes appends n random bytes to b: the bytes Bytes(n) would
// return, drawing the same values from the source.
func (r *Rand) AppendBytes(b []byte, n int) []byte {
	b = slices.Grow(b, n)
	for i := 0; i < n; i++ {
		b = append(b, byte(r.Uint32()))
	}
	return b
}

// Agent holds the ICE credentials and role for one endpoint.
type Agent struct {
	Ufrag       string
	Password    string
	Controlling bool
	TieBreaker  uint64
}

// integrityKey is the short-term-credential HMAC key (the password).
func (a *Agent) integrityKey() []byte { return []byte(a.Password) }

// BindingRequest builds an ICE connectivity-check Binding request from
// the local agent to remote (whose ufrag forms the USERNAME), with
// PRIORITY, role attribute, MESSAGE-INTEGRITY, and FINGERPRINT.
func (a *Agent) BindingRequest(r *Rand, remote *Agent, priority uint32, useCandidate bool) *stun.Message {
	m := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: r.TxID()}
	m.Add(stun.AttrUsername, []byte(remote.Ufrag+":"+a.Ufrag))
	var pri [4]byte
	pri[0], pri[1], pri[2], pri[3] = byte(priority>>24), byte(priority>>16), byte(priority>>8), byte(priority)
	m.Add(stun.AttrPriority, pri[:])
	var tb [8]byte
	for i := 0; i < 8; i++ {
		tb[i] = byte(a.TieBreaker >> (56 - 8*i))
	}
	if a.Controlling {
		m.Add(stun.AttrICEControlling, tb[:])
		if useCandidate {
			m.Add(stun.AttrUseCandidate, nil)
		}
	} else {
		m.Add(stun.AttrICEControlled, tb[:])
	}
	stun.AddMessageIntegrity(m, remote.integrityKey())
	stun.AddFingerprint(m)
	return m
}

// BindingResponse builds the success response to a connectivity check,
// echoing the transaction ID and carrying XOR-MAPPED-ADDRESS.
func (a *Agent) BindingResponse(req *stun.Message, mapped netip.AddrPort) *stun.Message {
	m := &stun.Message{Type: stun.TypeBindingSuccess, TransactionID: req.TransactionID}
	m.Add(stun.AttrXORMappedAddress, stun.EncodeXORAddress(mapped, req.TransactionID))
	stun.AddMessageIntegrity(m, a.integrityKey())
	stun.AddFingerprint(m)
	return m
}

// ServerBindingRequest builds a plain (credential-free) Binding request
// to a STUN server, as used for server-reflexive candidate gathering.
func ServerBindingRequest(r *Rand) *stun.Message {
	m := &stun.Message{Type: stun.TypeBindingRequest, TransactionID: r.TxID()}
	stun.AddFingerprint(m)
	return m
}

// ServerBindingResponse builds a STUN server's answer carrying the
// client's reflexive address.
func ServerBindingResponse(req *stun.Message, mapped netip.AddrPort) *stun.Message {
	m := &stun.Message{Type: stun.TypeBindingSuccess, TransactionID: req.TransactionID}
	m.Add(stun.AttrXORMappedAddress, stun.EncodeXORAddress(mapped, req.TransactionID))
	m.Add(stun.AttrMappedAddress, stun.EncodeMappedAddress(mapped))
	stun.AddFingerprint(m)
	return m
}

// TURNCredentials holds long-term credentials for a TURN allocation.
type TURNCredentials struct {
	Username string
	Realm    string
	Nonce    string
	Password string
}

// Exchange is one STUN message with its direction.
type Exchange struct {
	// FromClient is true for client→server messages.
	FromClient bool
	Msg        *stun.Message
}

// TURNAllocation generates the full RFC 8656 allocation handshake:
// unauthenticated Allocate → 401 with REALM/NONCE → authenticated
// Allocate → success with XOR-RELAYED-ADDRESS, plus a CreatePermission
// and a ChannelBind for the peer.
func TURNAllocation(r *Rand, creds TURNCredentials, relayed, mapped, peer netip.AddrPort, channel uint16) []Exchange {
	var out []Exchange
	key := []byte(creds.Username + ":" + creds.Realm + ":" + creds.Password)

	// 1. Unauthenticated Allocate request.
	req1 := &stun.Message{Type: stun.TypeAllocateRequest, TransactionID: r.TxID()}
	req1.Add(stun.AttrRequestedTranspt, stun.EncodeRequestedTransport(17))
	stun.AddFingerprint(req1)
	out = append(out, Exchange{true, req1})

	// 2. 401 challenge.
	err1 := &stun.Message{Type: stun.TypeAllocateError, TransactionID: req1.TransactionID}
	err1.Add(stun.AttrErrorCode, stun.EncodeErrorCode(stun.ErrorCode{Code: 401, Reason: "Unauthorized"}))
	err1.Add(stun.AttrRealm, []byte(creds.Realm))
	err1.Add(stun.AttrNonce, []byte(creds.Nonce))
	stun.AddFingerprint(err1)
	out = append(out, Exchange{false, err1})

	// 3. Authenticated Allocate request.
	req2 := &stun.Message{Type: stun.TypeAllocateRequest, TransactionID: r.TxID()}
	req2.Add(stun.AttrRequestedTranspt, stun.EncodeRequestedTransport(17))
	req2.Add(stun.AttrUsername, []byte(creds.Username))
	req2.Add(stun.AttrRealm, []byte(creds.Realm))
	req2.Add(stun.AttrNonce, []byte(creds.Nonce))
	stun.AddMessageIntegrity(req2, key)
	stun.AddFingerprint(req2)
	out = append(out, Exchange{true, req2})

	// 4. Allocate success.
	ok := &stun.Message{Type: stun.TypeAllocateSuccess, TransactionID: req2.TransactionID}
	ok.Add(stun.AttrXORRelayedAddress, stun.EncodeXORAddress(relayed, req2.TransactionID))
	ok.Add(stun.AttrXORMappedAddress, stun.EncodeXORAddress(mapped, req2.TransactionID))
	ok.Add(stun.AttrLifetime, []byte{0x00, 0x00, 0x02, 0x58}) // 600 s
	stun.AddMessageIntegrity(ok, key)
	stun.AddFingerprint(ok)
	out = append(out, Exchange{false, ok})

	// 5. CreatePermission for the peer.
	perm := &stun.Message{Type: stun.TypeCreatePermissionReq, TransactionID: r.TxID()}
	perm.Add(stun.AttrXORPeerAddress, stun.EncodeXORAddress(peer, perm.TransactionID))
	perm.Add(stun.AttrUsername, []byte(creds.Username))
	perm.Add(stun.AttrRealm, []byte(creds.Realm))
	perm.Add(stun.AttrNonce, []byte(creds.Nonce))
	stun.AddMessageIntegrity(perm, key)
	stun.AddFingerprint(perm)
	out = append(out, Exchange{true, perm})

	permOK := &stun.Message{Type: stun.TypeCreatePermissionOK, TransactionID: perm.TransactionID}
	stun.AddMessageIntegrity(permOK, key)
	stun.AddFingerprint(permOK)
	out = append(out, Exchange{false, permOK})

	// 6. ChannelBind.
	cb := &stun.Message{Type: stun.TypeChannelBindRequest, TransactionID: r.TxID()}
	cb.Add(stun.AttrChannelNumber, stun.EncodeChannelNumber(channel))
	cb.Add(stun.AttrXORPeerAddress, stun.EncodeXORAddress(peer, cb.TransactionID))
	cb.Add(stun.AttrUsername, []byte(creds.Username))
	cb.Add(stun.AttrRealm, []byte(creds.Realm))
	cb.Add(stun.AttrNonce, []byte(creds.Nonce))
	stun.AddMessageIntegrity(cb, key)
	stun.AddFingerprint(cb)
	out = append(out, Exchange{true, cb})

	cbOK := &stun.Message{Type: stun.TypeChannelBindSuccess, TransactionID: cb.TransactionID}
	stun.AddMessageIntegrity(cbOK, key)
	stun.AddFingerprint(cbOK)
	out = append(out, Exchange{false, cbOK})

	return out
}

// RefreshExchange builds a TURN Refresh request/response pair.
func RefreshExchange(r *Rand, creds TURNCredentials) []Exchange {
	key := []byte(creds.Username + ":" + creds.Realm + ":" + creds.Password)
	req := &stun.Message{Type: stun.TypeRefreshRequest, TransactionID: r.TxID()}
	req.Add(stun.AttrLifetime, []byte{0x00, 0x00, 0x02, 0x58})
	req.Add(stun.AttrUsername, []byte(creds.Username))
	req.Add(stun.AttrRealm, []byte(creds.Realm))
	req.Add(stun.AttrNonce, []byte(creds.Nonce))
	stun.AddMessageIntegrity(req, key)
	stun.AddFingerprint(req)
	resp := &stun.Message{Type: stun.TypeRefreshSuccess, TransactionID: req.TransactionID}
	resp.Add(stun.AttrLifetime, []byte{0x00, 0x00, 0x02, 0x58})
	stun.AddMessageIntegrity(resp, key)
	stun.AddFingerprint(resp)
	return []Exchange{{true, req}, {false, resp}}
}

// SendIndication builds a TURN Send indication carrying data to peer.
func SendIndication(r *Rand, peer netip.AddrPort, data []byte) *stun.Message {
	m := &stun.Message{Type: stun.TypeSendIndication, TransactionID: r.TxID()}
	m.Add(stun.AttrXORPeerAddress, stun.EncodeXORAddress(peer, m.TransactionID))
	m.Add(stun.AttrData, data)
	return m
}

// DataIndication builds a TURN Data indication delivering data from
// peer. extra, if non-nil, appends additional attributes — used by the
// FaceTime emulator to add its spurious CHANNEL-NUMBER.
func DataIndication(r *Rand, peer netip.AddrPort, data []byte, extra []stun.Attribute) *stun.Message {
	m := &stun.Message{Type: stun.TypeDataIndication, TransactionID: r.TxID()}
	m.Add(stun.AttrXORPeerAddress, stun.EncodeXORAddress(peer, m.TransactionID))
	m.Add(stun.AttrData, data)
	for _, a := range extra {
		m.Add(a.Type, a.Value)
	}
	return m
}

// GoogPing builds the libwebrtc GOOG-PING request (0x0200) or response
// (0x0300) observed in Google Meet traffic.
func GoogPing(r *Rand, response bool, txid [12]byte) *stun.Message {
	t := stun.MessageType(0x0200)
	if response {
		t = stun.MessageType(0x0300)
	}
	m := &stun.Message{Type: t, TransactionID: txid}
	_ = r
	stun.AddFingerprint(m)
	return m
}
