package layers

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// checksumPairs is the byte-pair RFC 1071 sum the word-at-a-time
// checksum16 replaced, kept as its reference.
func checksumPairs(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

func foldPairs(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// TestChecksumMatchesPairSum checks the word-at-a-time sum against the
// byte-pair loop for every length 0–1,600 at several alignments, over
// random bytes, all zeros and all ones, from a zero and from a
// pseudo-header-sized starting sum.
func TestChecksumMatchesPairSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const maxLen, maxAlign = 1600, 7
	random := make([]byte, maxLen+maxAlign)
	for i := range random {
		random[i] = byte(rng.Uint32())
	}
	zeros := make([]byte, maxLen+maxAlign)
	ones := make([]byte, maxLen+maxAlign)
	for i := range ones {
		ones[i] = 0xff
	}
	for name, buf := range map[string][]byte{"random": random, "zeros": zeros, "ones": ones} {
		for _, start := range []uint32{0, 0x1_fffe} {
			for align := 0; align <= maxAlign; align += 3 {
				for n := 0; n <= maxLen; n++ {
					b := buf[align : align+n]
					want := foldPairs(checksumPairs(start, b))
					if got := foldChecksum(checksum16(uint64(start), b)); got != want {
						t.Fatalf("%s, start %#x, align %d, len %d: checksum %#04x, want %#04x", name, start, align, n, got, want)
					}
				}
			}
		}
	}
}

// TestAppendWritesEveryHeaderByte appends each frame kind after a
// prefix into a buffer whose spare capacity holds garbage, and checks
// the frame equals the one appended to nil: the encoders must write
// every header byte, not rely on zeroed memory.
func TestAppendWritesEveryHeaderByte(t *testing.T) {
	payload := []byte("payload, odd length")
	seg := TCP{SrcPort: 49152, DstPort: 443, Seq: 7, Ack: 9, Flags: TCPPsh | TCPAck, Window: 65535, Options: []byte{2, 4, 5, 0xb4, 1}}
	cases := map[string]func(b []byte) []byte{
		"udp4": func(b []byte) []byte { return AppendUDPv4(b, addrA, addrB, 1234, 5678, payload) },
		"tcp4": func(b []byte) []byte { return AppendTCPv4(b, addrA, addrB, seg, payload) },
		"udp6": func(b []byte) []byte { return AppendUDPv6(b, addr6, addr7, 1234, 5678, payload) },
	}
	for name, appendFrame := range cases {
		want := appendFrame(nil)
		buf := make([]byte, 3, 512)
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xff
		}
		got := appendFrame(buf)
		if string(got[3:]) != string(want) {
			t.Errorf("%s: appended frame %x, want %x", name, got[3:], want)
		}
		if _, err := Decode(pcap.LinkTypeRaw, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
