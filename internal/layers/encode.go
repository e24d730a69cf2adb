package layers

import (
	"encoding/binary"
	"net/netip"
	"slices"
)

// checksum16 adds b to the running Internet checksum sum (RFC 1071),
// eight bytes at a time: each 64-bit big-endian load contributes its
// two 32-bit halves. A one's-complement sum is the same at any word
// size once folded, so this equals the 16-bit pair-at-a-time sum after
// foldChecksum. b is summed as if it began at an even offset.
func checksum16(sum uint64, b []byte) uint64 {
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b)
		sum += v>>32 + v&0xffffffff
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// foldChecksum folds a running sum with end-around carry and returns
// its one's complement, the value transmitted in the checksum field.
func foldChecksum(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// Frame overheads: the header bytes each encoder writes ahead of the
// payload. A TCP header grows by its options, padded to four bytes;
// TCPv4Overhead is the option-less size.
const (
	UDPv4Overhead = ipv4HeaderLen + udpHeaderLen
	TCPv4Overhead = ipv4HeaderLen + tcpHeaderLen
	UDPv6Overhead = ipv6HeaderLen + udpHeaderLen
)

const (
	ipv4HeaderLen = 20
	ipv6HeaderLen = 40
	udpHeaderLen  = 8
	tcpHeaderLen  = 20
)

// grow extends b by n bytes and returns the extended slice and its
// new tail. The tail's contents are unspecified.
func grow(b []byte, n int) ([]byte, []byte) {
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	return b, b[len(b)-n:]
}

// AppendUDPv4 appends to b a raw-IP (LinkTypeRaw) IPv4+UDP frame
// carrying payload, writing the headers and valid header and UDP
// checksums in place. IPv4-mapped addresses are unmapped; src and dst
// must be IPv4.
func AppendUDPv4(b []byte, src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	b, f := grow(b, UDPv4Overhead+len(payload))
	u := f[ipv4HeaderLen:]
	clear(u[:udpHeaderLen])
	binary.BigEndian.PutUint16(u[0:], srcPort)
	binary.BigEndian.PutUint16(u[2:], dstPort)
	binary.BigEndian.PutUint16(u[4:], uint16(len(u)))
	copy(u[udpHeaderLen:], payload)
	putIPv4(f, src, dst, IPProtocolUDP)
	binary.BigEndian.PutUint16(u[6:], udpChecksum(pseudoSum(f[12:20], IPProtocolUDP, uint32(uint16(len(u)))), u))
	return b
}

// AppendTCPv4 appends to b a raw-IP IPv4+TCP frame, writing the
// headers and checksums in place. seg carries the TCP fields to use;
// its port/option fields are taken as-is and checksums computed.
func AppendTCPv4(b []byte, src, dst netip.Addr, seg TCP, payload []byte) []byte {
	hdrLen := tcpHeaderLen + (len(seg.Options)+3)&^3
	b, f := grow(b, ipv4HeaderLen+hdrLen+len(payload))
	t := f[ipv4HeaderLen:]
	clear(t[:hdrLen])
	binary.BigEndian.PutUint16(t[0:], seg.SrcPort)
	binary.BigEndian.PutUint16(t[2:], seg.DstPort)
	binary.BigEndian.PutUint32(t[4:], seg.Seq)
	binary.BigEndian.PutUint32(t[8:], seg.Ack)
	t[12] = byte(hdrLen/4) << 4
	t[13] = seg.Flags
	binary.BigEndian.PutUint16(t[14:], seg.Window)
	binary.BigEndian.PutUint16(t[18:], seg.Urgent)
	copy(t[tcpHeaderLen:], seg.Options)
	copy(t[hdrLen:], payload)
	putIPv4(f, src, dst, IPProtocolTCP)
	binary.BigEndian.PutUint16(t[16:], foldChecksum(checksum16(pseudoSum(f[12:20], IPProtocolTCP, uint32(uint16(len(t)))), t)))
	return b
}

// putIPv4 writes an option-less IPv4 header, checksum included, to the
// front of f, whose length is the whole datagram's.
func putIPv4(f []byte, src, dst netip.Addr, proto IPProtocol) {
	clear(f[:ipv4HeaderLen])
	f[0] = 0x45
	binary.BigEndian.PutUint16(f[2:], uint16(len(f)))
	f[6] = 0x40 // DF
	f[8] = 64   // TTL
	f[9] = byte(proto)
	s4, d4 := src.Unmap().As4(), dst.Unmap().As4()
	copy(f[12:16], s4[:])
	copy(f[16:20], d4[:])
	binary.BigEndian.PutUint16(f[10:], foldChecksum(checksum16(0, f[:ipv4HeaderLen])))
}

// pseudoSum is the checksum contribution of a transport
// pseudo-header: the source and destination address bytes, the
// protocol and the transport length.
func pseudoSum(addrs []byte, proto IPProtocol, length uint32) uint64 {
	return checksum16(0, addrs) + uint64(proto) + uint64(length)
}

// udpChecksum returns the checksum of UDP segment u, its checksum
// field zero, under a pseudo-header whose sum is pseudo.
func udpChecksum(pseudo uint64, u []byte) uint16 {
	ck := foldChecksum(checksum16(pseudo, u))
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted zero means "no checksum"
	}
	return ck
}

// AppendUDPv6 appends to b a raw-IP IPv6+UDP frame carrying payload,
// writing the headers and UDP checksum in place. src and dst must be
// IPv6 addresses.
func AppendUDPv6(b []byte, src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	b, f := grow(b, UDPv6Overhead+len(payload))
	u := f[ipv6HeaderLen:]
	clear(f[:UDPv6Overhead])
	f[0] = 0x60
	binary.BigEndian.PutUint16(f[4:], uint16(len(u)))
	f[6] = byte(IPProtocolUDP)
	f[7] = 64
	s16, d16 := src.As16(), dst.As16()
	copy(f[8:24], s16[:])
	copy(f[24:40], d16[:])
	binary.BigEndian.PutUint16(u[0:], srcPort)
	binary.BigEndian.PutUint16(u[2:], dstPort)
	binary.BigEndian.PutUint16(u[4:], uint16(len(u)))
	copy(u[udpHeaderLen:], payload)
	binary.BigEndian.PutUint16(u[6:], udpChecksum(pseudoSum(f[8:ipv6HeaderLen], IPProtocolUDP, uint32(len(u))), u))
	return b
}
