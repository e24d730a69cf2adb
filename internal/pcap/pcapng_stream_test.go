package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

// Incremental-read tests for the pcapng reader: ReadPacketInto is the
// substrate of the streaming analysis path, so its buffer-reuse
// contract, its behavior on captures truncated mid-block, and its
// handling of Interface Description Blocks appearing between packet
// blocks are pinned here at the record level.

// buildLEBlock assembles a pcapng block little-endian.
func buildLEBlock(typ uint32, body []byte) []byte {
	total := uint32(12 + len(body))
	out := make([]byte, total)
	binary.LittleEndian.PutUint32(out[0:4], typ)
	binary.LittleEndian.PutUint32(out[4:8], total)
	copy(out[8:], body)
	binary.LittleEndian.PutUint32(out[total-4:], total)
	return out
}

func leSHB() []byte {
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:4], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[4:6], 1)
	binary.LittleEndian.PutUint64(shb[8:16], ^uint64(0))
	return buildLEBlock(blockSHB, shb)
}

// leIDB builds an IDB; tsresol < 0 omits the option (default µs).
func leIDB(lt LinkType, tsresol int) []byte {
	body := make([]byte, 8)
	binary.LittleEndian.PutUint16(body[0:2], uint16(lt))
	binary.LittleEndian.PutUint32(body[4:8], DefaultSnapLen)
	if tsresol >= 0 {
		opt := make([]byte, 8)
		binary.LittleEndian.PutUint16(opt[0:2], 9) // if_tsresol
		binary.LittleEndian.PutUint16(opt[2:4], 1)
		opt[4] = byte(tsresol)
		body = append(body, opt...)
	}
	return buildLEBlock(blockIDB, body)
}

// leEPB builds an EPB on the given interface with a raw timestamp.
func leEPB(ifID uint32, tsRaw uint64, data []byte) []byte {
	padded := (len(data) + 3) &^ 3
	body := make([]byte, 20+padded)
	binary.LittleEndian.PutUint32(body[0:4], ifID)
	binary.LittleEndian.PutUint32(body[4:8], uint32(tsRaw>>32))
	binary.LittleEndian.PutUint32(body[8:12], uint32(tsRaw))
	binary.LittleEndian.PutUint32(body[12:16], uint32(len(data)))
	binary.LittleEndian.PutUint32(body[16:20], uint32(len(data)))
	copy(body[20:], data)
	return buildLEBlock(blockEPB, body)
}

// TestNGReadPacketIntoReusesBuffer checks the caller-managed-storage
// contract: the returned Data aliases the caller's buffer, one buffer
// serves the whole stream once grown, and each read overwrites the
// previous record.
func TestNGReadPacketIntoReusesBuffer(t *testing.T) {
	var raw bytes.Buffer
	w := NewNGWriter(&raw, LinkTypeRaw)
	first := bytes.Repeat([]byte{0xAA}, 64)
	second := bytes.Repeat([]byte{0xBB}, 32)
	for i, data := range [][]byte{first, second} {
		if err := w.WritePacket(Packet{Timestamp: time.Unix(int64(1700000000+i), 0).UTC(), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewNGReader(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	p1, _, err := r.ReadPacketInto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Data, first) {
		t.Fatalf("first packet data mismatch")
	}
	if buf == nil {
		t.Fatal("buffer was not written back")
	}
	grownTo := cap(buf)
	p1Alias := p1.Data

	p2, _, err := r.ReadPacketInto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p2.Data, second) {
		t.Fatalf("second packet data mismatch")
	}
	if cap(buf) != grownTo {
		t.Errorf("buffer reallocated for a smaller record: cap %d -> %d", grownTo, cap(buf))
	}
	// The first packet's Data aliased the shared buffer and is now
	// overwritten — the documented "valid until the next read" contract.
	if bytes.Equal(p1Alias, first) {
		t.Error("previous record still intact after the next read; Data is not aliasing the shared buffer")
	}
	if _, _, err := r.ReadPacketInto(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("end = %v, want EOF", err)
	}
}

// TestNGTruncatedMidBlock cuts a valid stream at every interesting
// point inside the final EPB: a cut at a block boundary is a clean EOF,
// while a cut inside the block header, body, or trailer surfaces an
// error instead of silently dropping the record.
func TestNGTruncatedMidBlock(t *testing.T) {
	var full bytes.Buffer
	full.Write(leSHB())
	full.Write(leIDB(LinkTypeRaw, -1))
	full.Write(leEPB(0, 1_700_000_000_000_000, bytes.Repeat([]byte{7}, 40)))
	epbStart := full.Len()
	lastEPB := leEPB(0, 1_700_000_001_000_000, bytes.Repeat([]byte{8}, 40))
	full.Write(lastEPB)

	cuts := []struct {
		name    string
		keep    int // bytes of the last EPB to keep
		wantEOF bool
	}{
		{"at block boundary", 0, true},
		{"inside block header", 5, false},
		{"inside body", 24, false},
		{"inside trailer", len(lastEPB) - 2, false},
	}
	for _, tc := range cuts {
		r, err := NewNGReader(bytes.NewReader(full.Bytes()[:epbStart+tc.keep]))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf []byte
		if _, _, err := r.ReadPacketInto(&buf); err != nil {
			t.Fatalf("%s: first packet: %v", tc.name, err)
		}
		_, _, err = r.ReadPacketInto(&buf)
		if tc.wantEOF {
			if !errors.Is(err, io.EOF) {
				t.Errorf("%s: err = %v, want clean EOF", tc.name, err)
			}
		} else if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: err = %v, want a truncation error", tc.name, err)
		}
	}
}

// TestNGInterfaceInterleaving registers a second interface between
// packet blocks — as multi-interface captures do — and checks each
// packet resolves its own interface's link type and timestamp
// resolution, while LinkType() keeps reporting the first interface.
func TestNGInterfaceInterleaving(t *testing.T) {
	var raw bytes.Buffer
	raw.Write(leSHB())
	raw.Write(leIDB(LinkTypeEthernet, -1)) // if0: Ethernet, µs
	raw.Write(leEPB(0, 2_000_000, []byte{1, 2, 3}))
	raw.Write(leIDB(LinkTypeRaw, 9)) // if1 appears mid-stream: raw IP, ns
	raw.Write(leEPB(1, 1_500_000_000, []byte{4, 5}))
	raw.Write(leEPB(0, 3_000_000, []byte{6}))

	r, err := NewNGReader(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		lt   LinkType
		ts   time.Time
		data []byte
	}{
		{LinkTypeEthernet, time.Unix(2, 0).UTC(), []byte{1, 2, 3}},
		{LinkTypeRaw, time.Unix(1, 500000000).UTC(), []byte{4, 5}},
		{LinkTypeEthernet, time.Unix(3, 0).UTC(), []byte{6}},
	}
	var buf []byte
	for i, w := range want {
		p, lt, err := r.ReadPacketInto(&buf)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if lt != w.lt {
			t.Errorf("packet %d link type = %v, want %v", i, lt, w.lt)
		}
		if !p.Timestamp.Equal(w.ts) {
			t.Errorf("packet %d ts = %v, want %v", i, p.Timestamp, w.ts)
		}
		if !bytes.Equal(p.Data, w.data) {
			t.Errorf("packet %d data = %v, want %v", i, p.Data, w.data)
		}
	}
	if _, _, err := r.ReadPacketInto(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("end = %v, want EOF", err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Errorf("LinkType() = %v, want first interface's %v", r.LinkType(), LinkTypeEthernet)
	}
}

// TestPCAPReadPacketIntoReusesBuffer pins the same contract on the
// classic-pcap reader.
func TestPCAPReadPacketIntoReusesBuffer(t *testing.T) {
	var raw bytes.Buffer
	w := NewWriter(&raw, LinkTypeRaw)
	big := bytes.Repeat([]byte{0xCC}, 128)
	small := []byte{1, 2, 3}
	for i, data := range [][]byte{big, small} {
		if err := w.WritePacket(Packet{Timestamp: time.Unix(int64(1700000000+i), 0).UTC(), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	p1, err := r.ReadPacketInto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Data, big) {
		t.Fatal("first packet data mismatch")
	}
	grownTo := cap(buf)
	p2, err := r.ReadPacketInto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p2.Data, small) || cap(buf) != grownTo {
		t.Errorf("second read: data ok=%v cap %d -> %d", bytes.Equal(p2.Data, small), grownTo, cap(buf))
	}
	if _, err := r.ReadPacketInto(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("end = %v, want EOF", err)
	}
}

// TestReadPacketIntoAllocationFree pins that reading a record into a
// reused buffer allocates nothing, on both readers: the framing words
// a record read needs live on the reader, not in per-call arrays that
// escape through io.ReadFull.
func TestReadPacketIntoAllocationFree(t *testing.T) {
	const runs = 100
	data := bytes.Repeat([]byte{0x45}, 200)
	var classic, ng bytes.Buffer
	cw, nw := NewWriter(&classic, LinkTypeRaw), NewNGWriter(&ng, LinkTypeRaw)
	for i := 0; i <= runs; i++ {
		p := Packet{Timestamp: time.Unix(int64(1700000000+i), 0).UTC(), Data: data}
		if err := cw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		if err := nw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	cr, err := NewReader(bytes.NewReader(classic.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	nr, err := NewNGReader(bytes.NewReader(ng.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := cr.ReadPacketInto(&buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("pcap ReadPacketInto: %.2f allocs per record, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if _, _, err := nr.ReadPacketInto(&buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("pcapng ReadPacketInto: %.2f allocs per record, want 0", n)
	}
}
