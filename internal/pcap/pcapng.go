package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// pcapng support: the next-generation capture format Wireshark writes
// by default. The reader handles Section Header Blocks in either byte
// order, multiple Interface Description Blocks with per-interface
// timestamp resolution, Enhanced and Simple Packet Blocks, and skips
// every other block type. The writer emits a minimal single-interface
// section with microsecond resolution.

// pcapng block type codes.
const (
	blockSHB = 0x0A0D0D0A
	blockIDB = 0x00000001
	blockSPB = 0x00000003
	blockEPB = 0x00000006
)

// byteOrderMagic is the SHB endianness marker.
const byteOrderMagic = 0x1A2B3C4D

// ErrNotPCAPNG is returned when the stream does not start with a
// Section Header Block.
var ErrNotPCAPNG = errors.New("pcap: not a pcapng stream")

// ngInterface carries per-interface decoding state.
type ngInterface struct {
	linkType LinkType
	// tsUnitsPerSec converts raw timestamps to time (default 1e6).
	tsUnitsPerSec uint64
}

// NGReader parses a pcapng stream.
type NGReader struct {
	r          io.Reader
	bo         binary.ByteOrder
	interfaces []ngInterface
	// head and trail receive each block's framing words. Local arrays
	// would escape through io.ReadFull's io.Reader and cost allocations
	// per block.
	head  [8]byte
	trail [4]byte
}

// NewNGReader parses the leading Section Header Block and returns a
// reader for the packet blocks that follow.
func NewNGReader(r io.Reader) (*NGReader, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("pcap: read pcapng header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:4]) != blockSHB {
		return nil, ErrNotPCAPNG
	}
	ng := &NGReader{r: r}
	if err := ng.readSHBBody(head[:]); err != nil {
		return nil, err
	}
	return ng, nil
}

// readSHBBody consumes the remainder of an SHB whose first 8 bytes
// (type + length) are in head, determining byte order.
func (ng *NGReader) readSHBBody(head []byte) error {
	var bom [4]byte
	if _, err := io.ReadFull(ng.r, bom[:]); err != nil {
		return fmt.Errorf("pcap: read byte-order magic: %w", err)
	}
	switch {
	case binary.LittleEndian.Uint32(bom[:]) == byteOrderMagic:
		ng.bo = binary.LittleEndian
	case binary.BigEndian.Uint32(bom[:]) == byteOrderMagic:
		ng.bo = binary.BigEndian
	default:
		return fmt.Errorf("%w: byte-order magic %x", ErrNotPCAPNG, bom)
	}
	total := ng.bo.Uint32(head[4:8])
	if total < 28 || total%4 != 0 {
		return fmt.Errorf("pcap: SHB length %d invalid", total)
	}
	// Remaining SHB: version(4) + section length(8) + options + trailing
	// length(4). We already consumed 12 of total.
	rest := make([]byte, total-12)
	if _, err := io.ReadFull(ng.r, rest); err != nil {
		return fmt.Errorf("pcap: read SHB: %w", err)
	}
	major := ng.bo.Uint16(rest[0:2])
	if major != 1 {
		return fmt.Errorf("pcap: pcapng major version %d unsupported", major)
	}
	// New section: interface list resets.
	ng.interfaces = ng.interfaces[:0]
	return nil
}

// readBlockInto reads one full block into *buf (grown as needed),
// returning the block type and its body (without type/length framing),
// aliasing *buf. SHBs are consumed in place and return a nil body.
func (ng *NGReader) readBlockInto(buf *[]byte) (uint32, []byte, error) {
	head := ng.head[:]
	if _, err := io.ReadFull(ng.r, head); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("pcap: read block header: %w", err)
	}
	typ := ng.bo.Uint32(head[0:4])
	if typ == blockSHB {
		// New section: its body determines (possibly new) byte order.
		if err := ng.readSHBBody(head); err != nil {
			return 0, nil, err
		}
		return blockSHB, nil, nil
	}
	total := ng.bo.Uint32(head[4:8])
	if total < 12 || total%4 != 0 {
		return 0, nil, fmt.Errorf("pcap: block length %d invalid", total)
	}
	need := int(total - 12)
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	body := (*buf)[:need]
	if _, err := io.ReadFull(ng.r, body); err != nil {
		return 0, nil, fmt.Errorf("pcap: read block body: %w", err)
	}
	if _, err := io.ReadFull(ng.r, ng.trail[:]); err != nil {
		return 0, nil, fmt.Errorf("pcap: read block trailer: %w", err)
	}
	if ng.bo.Uint32(ng.trail[:]) != total {
		return 0, nil, fmt.Errorf("pcap: block trailer length mismatch")
	}
	return typ, body, nil
}

// parseIDB registers an interface from an IDB body.
func (ng *NGReader) parseIDB(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("pcap: IDB too short")
	}
	iface := ngInterface{
		linkType:      LinkType(ng.bo.Uint16(body[0:2])),
		tsUnitsPerSec: 1_000_000,
	}
	// Options start at offset 8 (linktype 2 + reserved 2 + snaplen 4).
	opts := body[8:]
	for len(opts) >= 4 {
		code := ng.bo.Uint16(opts[0:2])
		olen := int(ng.bo.Uint16(opts[2:4]))
		padded := (olen + 3) &^ 3
		if len(opts) < 4+padded {
			break
		}
		val := opts[4 : 4+olen]
		if code == 0 { // opt_endofopt
			break
		}
		if code == 9 && olen >= 1 { // if_tsresol
			v := val[0]
			if v&0x80 != 0 {
				iface.tsUnitsPerSec = 1 << (v & 0x7f)
			} else {
				iface.tsUnitsPerSec = pow10(v)
			}
			if iface.tsUnitsPerSec == 0 {
				iface.tsUnitsPerSec = 1_000_000
			}
		}
		opts = opts[4+padded:]
	}
	ng.interfaces = append(ng.interfaces, iface)
	return nil
}

func pow10(n uint8) uint64 {
	v := uint64(1)
	for i := uint8(0); i < n && i < 19; i++ {
		v *= 10
	}
	return v
}

// LinkType reports the first interface's link type (the common
// single-interface case); LinkTypeRaw if none seen yet.
func (ng *NGReader) LinkType() LinkType {
	if len(ng.interfaces) == 0 {
		return LinkTypeRaw
	}
	return ng.interfaces[0].linkType
}

// ReadPacket returns the next packet, skipping non-packet blocks, or
// io.EOF at end of stream. Each call allocates fresh packet storage.
func (ng *NGReader) ReadPacket() (Packet, LinkType, error) {
	var buf []byte
	return ng.ReadPacketInto(&buf)
}

// ReadPacketInto is ReadPacket with caller-managed storage: blocks are
// read into *buf (grown as needed and written back) and the returned
// Packet's Data aliases it, valid until the next read. Reusing one
// buffer across the whole stream is what keeps the streaming analysis
// path allocation-free per record.
func (ng *NGReader) ReadPacketInto(buf *[]byte) (Packet, LinkType, error) {
	for {
		typ, body, err := ng.readBlockInto(buf)
		if err != nil {
			return Packet{}, 0, err
		}
		switch typ {
		case blockSHB:
			continue
		case blockIDB:
			if err := ng.parseIDB(body); err != nil {
				return Packet{}, 0, err
			}
		case blockEPB:
			if len(body) < 20 {
				return Packet{}, 0, fmt.Errorf("pcap: EPB too short")
			}
			ifID := ng.bo.Uint32(body[0:4])
			if int(ifID) >= len(ng.interfaces) {
				return Packet{}, 0, fmt.Errorf("pcap: EPB references unknown interface %d", ifID)
			}
			iface := ng.interfaces[ifID]
			tsRaw := uint64(ng.bo.Uint32(body[4:8]))<<32 | uint64(ng.bo.Uint32(body[8:12]))
			capLen := ng.bo.Uint32(body[12:16])
			origLen := ng.bo.Uint32(body[16:20])
			if uint64(len(body)) < 20+uint64(capLen) {
				return Packet{}, 0, fmt.Errorf("pcap: EPB capture length %d exceeds block", capLen)
			}
			units := iface.tsUnitsPerSec
			secs := tsRaw / units
			frac := tsRaw % units
			nanos := frac * uint64(time.Second) / units
			return Packet{
				Timestamp: time.Unix(int64(secs), int64(nanos)).UTC(),
				Data:      body[20 : 20+capLen],
				OrigLen:   int(origLen),
			}, iface.linkType, nil
		case blockSPB:
			if len(ng.interfaces) == 0 {
				return Packet{}, 0, fmt.Errorf("pcap: SPB before any IDB")
			}
			if len(body) < 4 {
				return Packet{}, 0, fmt.Errorf("pcap: SPB too short")
			}
			origLen := ng.bo.Uint32(body[0:4])
			capLen := uint32(len(body) - 4)
			if origLen < capLen {
				capLen = origLen
			}
			return Packet{Data: body[4 : 4+capLen], OrigLen: int(origLen)}, ng.interfaces[0].linkType, nil
		default:
			// Name resolution, statistics, custom blocks: skip.
		}
	}
}

// ReadAll reads every remaining packet; the returned link type is the
// first interface's.
func (ng *NGReader) ReadAll() ([]Packet, LinkType, error) {
	var pkts []Packet
	lt := LinkTypeRaw
	first := true
	for {
		p, plt, err := ng.ReadPacket()
		if errors.Is(err, io.EOF) {
			return pkts, lt, nil
		}
		if err != nil {
			return pkts, lt, err
		}
		if first {
			lt = plt
			first = false
		}
		pkts = append(pkts, p)
	}
}

// NGWriter emits a minimal single-interface pcapng stream with
// microsecond timestamps.
type NGWriter struct {
	w        io.Writer
	linkType LinkType
	started  bool
}

// NewNGWriter returns a pcapng writer for one interface.
func NewNGWriter(w io.Writer, linkType LinkType) *NGWriter {
	return &NGWriter{w: w, linkType: linkType}
}

func (w *NGWriter) writeBlock(typ uint32, body []byte) error {
	total := uint32(12 + len(body))
	buf := make([]byte, total)
	binary.LittleEndian.PutUint32(buf[0:4], typ)
	binary.LittleEndian.PutUint32(buf[4:8], total)
	copy(buf[8:], body)
	binary.LittleEndian.PutUint32(buf[total-4:], total)
	_, err := w.w.Write(buf)
	return err
}

func (w *NGWriter) start() error {
	if w.started {
		return nil
	}
	// SHB: bom + version 1.0 + section length -1.
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:4], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[4:6], 1)
	binary.LittleEndian.PutUint64(shb[8:16], ^uint64(0))
	if err := w.writeBlock(blockSHB, shb); err != nil {
		return err
	}
	// IDB: linktype + reserved + snaplen (no options: default µs).
	idb := make([]byte, 8)
	binary.LittleEndian.PutUint16(idb[0:2], uint16(w.linkType))
	binary.LittleEndian.PutUint32(idb[4:8], DefaultSnapLen)
	if err := w.writeBlock(blockIDB, idb); err != nil {
		return err
	}
	w.started = true
	return nil
}

// WritePacket appends one Enhanced Packet Block.
func (w *NGWriter) WritePacket(pkt Packet) error {
	if err := w.start(); err != nil {
		return err
	}
	padded := (len(pkt.Data) + 3) &^ 3
	body := make([]byte, 20+padded)
	ts := uint64(pkt.Timestamp.UnixMicro())
	binary.LittleEndian.PutUint32(body[4:8], uint32(ts>>32))
	binary.LittleEndian.PutUint32(body[8:12], uint32(ts))
	binary.LittleEndian.PutUint32(body[12:16], uint32(len(pkt.Data)))
	orig := pkt.OrigLen
	if orig < len(pkt.Data) {
		orig = len(pkt.Data)
	}
	binary.LittleEndian.PutUint32(body[16:20], uint32(orig))
	copy(body[20:], pkt.Data)
	return w.writeBlock(blockEPB, body)
}

// IsPCAPNG peeks at the first four bytes to distinguish pcapng from
// classic pcap.
func IsPCAPNG(head []byte) bool {
	return len(head) >= 4 && binary.LittleEndian.Uint32(head[0:4]) == blockSHB
}
