package srtp

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RFC 3711 Appendix B.3 key-derivation test vectors.
func TestKeyDerivationRFC3711Vectors(t *testing.T) {
	masterKey := mustHex(t, "E1F97A0D3E018BE0D64FA32C06DE4139")
	masterSalt := mustHex(t, "0EC675AD498AFEEBB6960B3AABE6")
	c, err := NewContext(masterKey, masterSalt)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(c.srtpEncKey); got != "c61e7a93744f39ee10734afe3ff7a087" {
		t.Errorf("cipher key = %s", got)
	}
	if got := hex.EncodeToString(c.srtpSalt); got != "30cbbc08863d8c85d49db34a9ae1" {
		t.Errorf("cipher salt = %s", got)
	}
	if got := hex.EncodeToString(c.srtpAuthKey); got != "cebe321f6ff7716b6fd4ab49af256a156d38baa4" {
		t.Errorf("auth key = %s", got)
	}
}

func TestNewContextRejectsBadSizes(t *testing.T) {
	if _, err := NewContext(make([]byte, 15), make([]byte, 14)); err == nil {
		t.Error("15-byte key accepted")
	}
	if _, err := NewContext(make([]byte, 16), make([]byte, 13)); err == nil {
		t.Error("13-byte salt accepted")
	}
}

func testContext(t *testing.T) *Context {
	t.Helper()
	key := bytes.Repeat([]byte{0x2b}, MasterKeyLen)
	salt := bytes.Repeat([]byte{0x7e}, MasterSaltLen)
	c, err := NewContext(key, salt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRTPPayloadEncryptionIsInvolution(t *testing.T) {
	c := testContext(t)
	payload := []byte("some opus media payload bytes here")
	enc := append([]byte(nil), payload...)
	c.EncryptRTPPayload(enc, 0x1234, 77)
	if bytes.Equal(enc, payload) {
		t.Fatal("encryption did not change payload")
	}
	c.EncryptRTPPayload(enc, 0x1234, 77)
	if !bytes.Equal(enc, payload) {
		t.Fatal("double encryption is not identity")
	}
}

func TestRTPPayloadKeystreamDependsOnSSRCAndIndex(t *testing.T) {
	c := testContext(t)
	p1 := make([]byte, 16)
	p2 := make([]byte, 16)
	p3 := make([]byte, 16)
	c.EncryptRTPPayload(p1, 1, 10)
	c.EncryptRTPPayload(p2, 2, 10)
	c.EncryptRTPPayload(p3, 1, 11)
	if bytes.Equal(p1, p2) {
		t.Error("keystream identical across SSRCs")
	}
	if bytes.Equal(p1, p3) {
		t.Error("keystream identical across indexes")
	}
}

// TestEncryptRTPPayloadAllocs pins that the AES key schedule is built
// once per Context: the remaining allocations are the CTR stream and
// its keystream buffer, not a cipher per packet.
func TestEncryptRTPPayloadAllocs(t *testing.T) {
	c := testContext(t)
	payload := make([]byte, 160)
	var index uint64
	n := testing.AllocsPerRun(100, func() {
		index++
		c.EncryptRTPPayload(payload, 0x1234, index)
	})
	if n > 2 {
		t.Errorf("EncryptRTPPayload: %.0f allocs per call, want at most 2", n)
	}
}

func TestRTPAuthTag(t *testing.T) {
	c := testContext(t)
	tag := c.RTPAuthTag([]byte("header+payload"), 3)
	if len(tag) != AuthTagLen {
		t.Fatalf("tag len = %d", len(tag))
	}
	tag2 := c.RTPAuthTag([]byte("header+payload"), 4)
	if bytes.Equal(tag, tag2) {
		t.Error("tag does not depend on ROC")
	}
}

func rtcpPlain() []byte {
	// A minimal RTCP RR: header + SSRC + nothing.
	return []byte{0x80, 201, 0x00, 0x01, 0x01, 0x02, 0x03, 0x04}
}

func TestSRTCPRoundTrip(t *testing.T) {
	c := testContext(t)
	plain := rtcpPlain()
	prot, err := c.ProtectRTCP(plain, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(prot) != len(plain)+SRTCPIndexLen+AuthTagLen {
		t.Fatalf("protected len = %d", len(prot))
	}
	// First 8 bytes stay in the clear.
	if !bytes.Equal(prot[:8], plain[:8]) {
		t.Error("header/SSRC not in the clear")
	}
	got, index, err := c.UnprotectRTCP(prot)
	if err != nil {
		t.Fatal(err)
	}
	if index != 42 {
		t.Errorf("index = %d", index)
	}
	if !bytes.Equal(got, plain) {
		t.Errorf("plaintext mismatch: %x vs %x", got, plain)
	}
}

func TestSRTCPBodyActuallyEncrypted(t *testing.T) {
	c := testContext(t)
	plain := append(rtcpPlain(), []byte("sensitive report contents....")...)
	// Keep it a valid length; ProtectRTCP doesn't care about RTCP length
	// fields, only the 8-byte prefix.
	prot, err := c.ProtectRTCP(plain, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(prot, []byte("sensitive")) {
		t.Error("body not encrypted")
	}
}

func TestSRTCPAuthFailures(t *testing.T) {
	c := testContext(t)
	prot, err := c.ProtectRTCP(rtcpPlain(), 7, false)
	if err != nil {
		t.Fatal(err)
	}
	// Bit flip anywhere breaks the tag.
	for _, pos := range []int{0, 5, len(prot) - 1} {
		bad := append([]byte(nil), prot...)
		bad[pos] ^= 0x01
		if _, _, err := c.UnprotectRTCP(bad); !errors.Is(err, ErrAuthFail) {
			t.Errorf("flip at %d: err = %v, want ErrAuthFail", pos, err)
		}
	}
	// Wrong key fails.
	other, _ := NewContext(bytes.Repeat([]byte{9}, 16), bytes.Repeat([]byte{8}, 14))
	if _, _, err := other.UnprotectRTCP(prot); !errors.Is(err, ErrAuthFail) {
		t.Errorf("wrong key: err = %v", err)
	}
}

func TestSRTCPOmitAuthTag(t *testing.T) {
	c := testContext(t)
	plain := rtcpPlain()
	prot, err := c.ProtectRTCP(plain, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(prot) != len(plain)+SRTCPIndexLen {
		t.Fatalf("tagless len = %d, want %d", len(prot), len(plain)+SRTCPIndexLen)
	}
	// A tagless packet must fail verification — that is the point of the
	// Google Meet case.
	if _, _, err := c.UnprotectRTCP(prot); err == nil {
		t.Error("tagless packet verified")
	}
}

func TestProtectRejectsShortPacket(t *testing.T) {
	c := testContext(t)
	if _, err := c.ProtectRTCP([]byte{1, 2, 3}, 0, false); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := c.UnprotectRTCP(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v", err)
	}
}

// Property: protect→unprotect is the identity for arbitrary bodies and
// indexes.
func TestQuickSRTCPIdentity(t *testing.T) {
	c := testContext(t)
	f := func(body []byte, index uint32) bool {
		plain := append(rtcpPlain(), body...)
		prot, err := c.ProtectRTCP(plain, index, false)
		if err != nil {
			return false
		}
		got, gotIdx, err := c.UnprotectRTCP(prot)
		return err == nil && gotIdx == index&0x7fffffff && bytes.Equal(got, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the SRTP keystream is deterministic — same inputs, same
// output — so captures are reproducible across runs.
func TestQuickKeystreamDeterministic(t *testing.T) {
	c := testContext(t)
	f := func(ssrc uint32, index uint16, n uint8) bool {
		a := make([]byte, int(n)+1)
		b := make([]byte, int(n)+1)
		c.EncryptRTPPayload(a, ssrc, uint64(index))
		c.EncryptRTPPayload(b, ssrc, uint64(index))
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
