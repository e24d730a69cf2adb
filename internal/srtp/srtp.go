// Package srtp implements the SRTP and SRTCP transforms of RFC 3711:
// AES-CM (AES-128 counter mode) encryption, the AES-CM key-derivation
// function, and HMAC-SHA1 authentication truncated to 80 bits.
//
// The traffic synthesizers use it to produce genuinely encrypted media
// payloads and structurally correct SRTCP trailers; the Google Meet
// compliance case (§5.2.3 of the paper: SRTCP messages missing the
// 10-byte authentication tag in relay mode) is generated by asking this
// package to omit the tag, and detected by the compliance layer from the
// trailer length.
package srtp

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
)

// Key and salt sizes for the default AES_CM_128_HMAC_SHA1_80 suite.
const (
	MasterKeyLen  = 16
	MasterSaltLen = 14
	SessionKeyLen = 16
	AuthKeyLen    = 20
	// AuthTagLen is the truncated HMAC-SHA1 tag length (80 bits).
	AuthTagLen = 10
	// SRTCPIndexLen is the E-flag + 31-bit index trailer field size.
	SRTCPIndexLen = 4
)

// Key-derivation labels (RFC 3711 §4.3.2).
const (
	labelSRTPEncryption  = 0x00
	labelSRTPAuth        = 0x01
	labelSRTPSalt        = 0x02
	labelSRTCPEncryption = 0x03
	labelSRTCPAuth       = 0x04
	labelSRTCPSalt       = 0x05
)

// Context holds the session keys derived from one master key/salt pair,
// and the AES ciphers of the two encryption keys, expanded once here
// instead of per packet.
type Context struct {
	srtpEncKey   []byte
	srtpAuthKey  []byte
	srtpSalt     []byte
	srtcpEncKey  []byte
	srtcpAuthKey []byte
	srtcpSalt    []byte

	srtpBlock, srtcpBlock cipher.Block
}

// Errors returned by decryption/verification.
var (
	ErrAuthFail  = errors.New("srtp: authentication tag mismatch")
	ErrTruncated = errors.New("srtp: packet too short")
)

// NewContext derives SRTP and SRTCP session keys from the master key and
// salt with a key-derivation rate of zero.
func NewContext(masterKey, masterSalt []byte) (*Context, error) {
	if len(masterKey) != MasterKeyLen {
		return nil, fmt.Errorf("srtp: master key must be %d bytes, got %d", MasterKeyLen, len(masterKey))
	}
	if len(masterSalt) != MasterSaltLen {
		return nil, fmt.Errorf("srtp: master salt must be %d bytes, got %d", MasterSaltLen, len(masterSalt))
	}
	block, err := aes.NewCipher(masterKey)
	if err != nil {
		return nil, fmt.Errorf("srtp: %w", err)
	}
	derive := func(label byte, n int) []byte {
		// x = key_id XOR master_salt, key_id = label || (index DIV kdr)
		// with kdr=0 so the index term is zero: x = salt with the label
		// XORed into byte 7.
		var iv [16]byte
		copy(iv[:MasterSaltLen], masterSalt)
		iv[7] ^= label
		out := make([]byte, n)
		cipher.NewCTR(block, iv[:]).XORKeyStream(out, out)
		return out
	}
	c := &Context{
		srtpEncKey:   derive(labelSRTPEncryption, SessionKeyLen),
		srtpAuthKey:  derive(labelSRTPAuth, AuthKeyLen),
		srtpSalt:     derive(labelSRTPSalt, MasterSaltLen),
		srtcpEncKey:  derive(labelSRTCPEncryption, SessionKeyLen),
		srtcpAuthKey: derive(labelSRTCPAuth, AuthKeyLen),
		srtcpSalt:    derive(labelSRTCPSalt, MasterSaltLen),
	}
	// Session keys are SessionKeyLen (16) bytes, a valid AES key size,
	// so neither call can fail.
	c.srtpBlock, _ = aes.NewCipher(c.srtpEncKey)
	c.srtcpBlock, _ = aes.NewCipher(c.srtcpEncKey)
	return c, nil
}

// aesCMKeystreamIV computes the AES-CM IV: (salt << 16) XOR
// (ssrc << 64) XOR (index << 16), per RFC 3711 §4.1.1.
func aesCMKeystreamIV(salt []byte, ssrc uint32, index uint64) [16]byte {
	var iv [16]byte
	copy(iv[:MasterSaltLen], salt)
	// The SSRC term occupies bytes 4-7 and the index term bytes 6-13;
	// the two overlap by design in the RFC's formula.
	var ssrcTerm [16]byte
	binary.BigEndian.PutUint32(ssrcTerm[4:8], ssrc)
	var idxTerm [16]byte
	binary.BigEndian.PutUint64(idxTerm[6:14], index)
	for i := 0; i < 16; i++ {
		iv[i] ^= ssrcTerm[i] ^ idxTerm[i]
	}
	return iv
}

func xorKeystream(block cipher.Block, salt []byte, ssrc uint32, index uint64, data []byte) {
	iv := aesCMKeystreamIV(salt, ssrc, index)
	cipher.NewCTR(block, iv[:]).XORKeyStream(data, data)
}

// EncryptRTPPayload encrypts (or decrypts: AES-CM is an involution) the
// RTP payload in place. index is the 48-bit packet index
// (65536*ROC + SEQ).
func (c *Context) EncryptRTPPayload(payload []byte, ssrc uint32, index uint64) {
	xorKeystream(c.srtpBlock, c.srtpSalt, ssrc, index, payload)
}

// RTPAuthTag computes the 80-bit SRTP authentication tag over the
// authenticated portion (header+payload) and the rollover counter.
func (c *Context) RTPAuthTag(authenticated []byte, roc uint32) []byte {
	mac := hmac.New(sha1.New, c.srtpAuthKey)
	mac.Write(authenticated)
	var rocBuf [4]byte
	binary.BigEndian.PutUint32(rocBuf[:], roc)
	mac.Write(rocBuf[:])
	return mac.Sum(nil)[:AuthTagLen]
}

// ProtectRTCP converts a plaintext RTCP compound packet into an SRTCP
// packet: the body after the first 8 bytes is encrypted, the E-flag and
// 31-bit index are appended, and — unless omitAuthTag is set — the
// 80-bit authentication tag. omitAuthTag reproduces the Google Meet
// relay-mode violation and yields a packet that VerifyRTCP rejects.
func (c *Context) ProtectRTCP(plain []byte, index uint32, omitAuthTag bool) ([]byte, error) {
	if len(plain) < 8 {
		return nil, fmt.Errorf("%w: rtcp packet %d bytes", ErrTruncated, len(plain))
	}
	ssrc := binary.BigEndian.Uint32(plain[4:8])
	out := make([]byte, len(plain), len(plain)+SRTCPIndexLen+AuthTagLen)
	copy(out, plain)
	xorKeystream(c.srtcpBlock, c.srtcpSalt, ssrc, uint64(index&0x7fffffff), out[8:])
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], 1<<31|index&0x7fffffff) // E=1
	out = append(out, trailer[:]...)
	if !omitAuthTag {
		mac := hmac.New(sha1.New, c.srtcpAuthKey)
		mac.Write(out)
		out = append(out, mac.Sum(nil)[:AuthTagLen]...)
	}
	return out, nil
}

// UnprotectRTCP verifies and decrypts an SRTCP packet produced by
// ProtectRTCP, returning the plaintext compound packet and the SRTCP
// index.
func (c *Context) UnprotectRTCP(packet []byte) ([]byte, uint32, error) {
	if len(packet) < 8+SRTCPIndexLen+AuthTagLen {
		return nil, 0, fmt.Errorf("%w: srtcp packet %d bytes", ErrTruncated, len(packet))
	}
	authEnd := len(packet) - AuthTagLen
	mac := hmac.New(sha1.New, c.srtcpAuthKey)
	mac.Write(packet[:authEnd])
	if !hmac.Equal(mac.Sum(nil)[:AuthTagLen], packet[authEnd:]) {
		return nil, 0, ErrAuthFail
	}
	trailerWord := binary.BigEndian.Uint32(packet[authEnd-SRTCPIndexLen : authEnd])
	encrypted := trailerWord&(1<<31) != 0
	index := trailerWord & 0x7fffffff
	body := make([]byte, authEnd-SRTCPIndexLen)
	copy(body, packet[:authEnd-SRTCPIndexLen])
	if encrypted {
		ssrc := binary.BigEndian.Uint32(body[4:8])
		xorKeystream(c.srtcpBlock, c.srtcpSalt, ssrc, uint64(index), body[8:])
	}
	return body, index, nil
}
