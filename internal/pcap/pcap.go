// Package pcap reads and writes libpcap capture files.
//
// The paper captures iPhone traffic with Wireshark through Apple's Remote
// Virtual Interface; the on-disk artifact is a pcap file. This package is
// the equivalent substrate for our synthetic captures: cmd/rtcgen writes
// pcap files and cmd/rtccheck reads them, so the analysis half of the
// pipeline also works on real captures produced by tcpdump/Wireshark.
//
// Classic pcap is supported in its microsecond (0xA1B2C3D4) and
// nanosecond (0xA1B23C4D) variants, in either byte order, and pcapng
// (Wireshark's default) through NGReader. CaptureReader detects which
// of the two a file holds; the analysis pipeline and every binary that
// reads a capture open it through CaptureReader.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers for classic pcap, as written (native-endian on write,
// either endianness accepted on read).
const (
	MagicMicroseconds = 0xA1B2C3D4
	MagicNanoseconds  = 0xA1B23C4D
)

// LinkType identifies the layer-2 framing of captured packets, per the
// tcpdump.org registry.
type LinkType uint32

// Link types used by this repository. LinkTypeRaw matches what Apple RVI
// captures produce (raw IP, no Ethernet header); LinkTypeEthernet covers
// conventional captures.
const (
	LinkTypeNull     LinkType = 0
	LinkTypeEthernet LinkType = 1
	LinkTypeRaw      LinkType = 101
)

func (lt LinkType) String() string {
	switch lt {
	case LinkTypeNull:
		return "NULL"
	case LinkTypeEthernet:
		return "EN10MB"
	case LinkTypeRaw:
		return "RAW"
	default:
		return fmt.Sprintf("LINKTYPE(%d)", uint32(lt))
	}
}

// Packet is one captured frame.
type Packet struct {
	// Timestamp is the capture time.
	Timestamp time.Time
	// Data is the captured bytes starting at the link layer.
	Data []byte
	// OrigLen is the original wire length; equals len(Data) unless the
	// capture truncated the packet (snaplen).
	OrigLen int
}

// ErrBadMagic is returned when the file header does not carry a known
// pcap magic number.
var ErrBadMagic = errors.New("pcap: bad magic number")

// fileHeader is the 24-byte classic pcap global header.
const fileHeaderLen = 24

// recordHeaderLen is the 16-byte per-packet header.
const recordHeaderLen = 16

// DefaultSnapLen is the snapshot length written into file headers.
const DefaultSnapLen = 262144

// Writer emits a classic pcap file with microsecond timestamps.
type Writer struct {
	w        io.Writer
	linkType LinkType
	wroteHdr bool
}

// NewWriter returns a Writer that will emit packets with the given link
// type. The file header is written lazily on the first WritePacket (or
// explicitly via Flush-like WriteHeader).
func NewWriter(w io.Writer, linkType LinkType) *Writer {
	return &Writer{w: w, linkType: linkType}
}

// WriteHeader writes the global file header. It is idempotent.
func (w *Writer) WriteHeader() error {
	if w.wroteHdr {
		return nil
	}
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // version minor
	// thiszone, sigfigs: zero.
	binary.LittleEndian.PutUint32(hdr[16:], DefaultSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(w.linkType))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write header: %w", err)
	}
	w.wroteHdr = true
	return nil
}

// WritePacket appends one packet record.
func (w *Writer) WritePacket(pkt Packet) error {
	if err := w.WriteHeader(); err != nil {
		return err
	}
	origLen := pkt.OrigLen
	if origLen < len(pkt.Data) {
		origLen = len(pkt.Data)
	}
	var hdr [recordHeaderLen]byte
	ts := pkt.Timestamp
	binary.LittleEndian.PutUint32(hdr[0:], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(pkt.Data)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(origLen))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(pkt.Data); err != nil {
		return fmt.Errorf("pcap: write record data: %w", err)
	}
	return nil
}

// Reader parses a classic pcap file.
type Reader struct {
	r         io.Reader
	byteOrder binary.ByteOrder
	nanos     bool
	linkType  LinkType
	snapLen   uint32
}

// NewReader parses the global header from r and returns a Reader for the
// packet records that follow.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read header: %w", err)
	}
	pr := &Reader{r: r}
	magicLE := binary.LittleEndian.Uint32(hdr[0:])
	magicBE := binary.BigEndian.Uint32(hdr[0:])
	switch {
	case magicLE == MagicMicroseconds:
		pr.byteOrder = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		pr.byteOrder, pr.nanos = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		pr.byteOrder = binary.BigEndian
	case magicBE == MagicNanoseconds:
		pr.byteOrder, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magicBE)
	}
	pr.snapLen = pr.byteOrder.Uint32(hdr[16:])
	pr.linkType = LinkType(pr.byteOrder.Uint32(hdr[20:]))
	return pr, nil
}

// LinkType reports the capture's link type.
func (r *Reader) LinkType() LinkType { return r.linkType }

// SnapLen reports the capture's snapshot length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// ReadPacket returns the next packet, or io.EOF at a clean end of file.
// A truncated trailing record returns io.ErrUnexpectedEOF.
func (r *Reader) ReadPacket() (Packet, error) {
	var buf []byte
	return r.ReadPacketInto(&buf)
}

// ReadPacketInto is ReadPacket with caller-managed storage: the record
// bytes are read into *buf (grown when too small and written back), and
// the returned Packet's Data aliases it. Callers that process each
// packet before reading the next reuse one buffer for the whole file,
// which is what keeps the streaming analysis path allocation-free per
// record.
func (r *Reader) ReadPacketInto(buf *[]byte) (Packet, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: read record header: %w", err)
	}
	sec := r.byteOrder.Uint32(hdr[0:])
	frac := r.byteOrder.Uint32(hdr[4:])
	capLen := r.byteOrder.Uint32(hdr[8:])
	origLen := r.byteOrder.Uint32(hdr[12:])
	if capLen > r.snapLen && r.snapLen != 0 && capLen > DefaultSnapLen {
		return Packet{}, fmt.Errorf("pcap: record capture length %d exceeds snaplen", capLen)
	}
	if uint32(cap(*buf)) < capLen {
		*buf = make([]byte, capLen)
	}
	data := (*buf)[:capLen]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: read record data: %w", err)
	}
	nanos := int64(frac)
	if !r.nanos {
		nanos *= 1000
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), nanos).UTC(),
		Data:      data,
		OrigLen:   int(origLen),
	}, nil
}

// ReadAll reads every remaining packet.
func (r *Reader) ReadAll() ([]Packet, error) {
	var pkts []Packet
	for {
		p, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}

// CaptureReader reads a capture in either on-disk format — classic pcap
// or pcapng, told apart by the leading magic — and hands back each
// frame with its link type.
type CaptureReader struct {
	classic *Reader
	ng      *NGReader
}

// NewCaptureReader detects the format from the first four bytes of r
// and parses the file header.
func NewCaptureReader(r io.Reader) (*CaptureReader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("pcap: read capture header: %w", err)
	}
	if IsPCAPNG(head) {
		ng, err := NewNGReader(br)
		if err != nil {
			return nil, err
		}
		return &CaptureReader{ng: ng}, nil
	}
	classic, err := NewReader(br)
	if err != nil {
		return nil, err
	}
	return &CaptureReader{classic: classic}, nil
}

// LinkType reports the capture's link type: the file header's for
// classic pcap, the first interface's for pcapng (LinkTypeRaw until an
// interface block has been read).
func (c *CaptureReader) LinkType() LinkType {
	if c.ng != nil {
		return c.ng.LinkType()
	}
	return c.classic.LinkType()
}

// ReadPacketInto returns the next frame and its link type, or io.EOF
// at a clean end of file. The frame's Data aliases *buf, as with
// Reader.ReadPacketInto.
func (c *CaptureReader) ReadPacketInto(buf *[]byte) (Packet, LinkType, error) {
	if c.ng != nil {
		return c.ng.ReadPacketInto(buf)
	}
	p, err := c.classic.ReadPacketInto(buf)
	return p, c.classic.linkType, err
}

// ReadAll reads every remaining frame. The link type is the first
// frame's for pcapng (LinkTypeRaw for a file without frames) and the
// file header's for classic pcap.
func (c *CaptureReader) ReadAll() ([]Packet, LinkType, error) {
	if c.ng != nil {
		return c.ng.ReadAll()
	}
	pkts, err := c.classic.ReadAll()
	return pkts, c.classic.linkType, err
}
