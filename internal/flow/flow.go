// Package flow groups captured packets into transport-layer streams.
//
// The paper's filtering pipeline (§3.2) operates on streams: packets are
// grouped by their 5-tuple (source IP, source port, destination IP,
// destination port, transport protocol), with the two directions of a
// conversation belonging to one stream, as in Wireshark's stream
// numbering. The package also maintains the destination-side 3-tuple
// index that the stage-2 "3-tuple timing filter" needs.
package flow

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/layers"
)

// Endpoint is one side of a transport conversation.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

func (e Endpoint) String() string {
	return netip.AddrPortFrom(e.Addr, e.Port).String()
}

// less orders endpoints for canonicalization.
func (e Endpoint) less(o Endpoint) bool {
	if c := e.Addr.Compare(o.Addr); c != 0 {
		return c < 0
	}
	return e.Port < o.Port
}

// Key identifies a bidirectional stream: A and B are the canonical
// (sorted) endpoints.
type Key struct {
	Proto layers.IPProtocol
	A, B  Endpoint
}

func (k Key) String() string {
	return fmt.Sprintf("%s %s <-> %s", k.Proto, k.A, k.B)
}

// KeyFor builds the canonical key for a packet from src to dst.
func KeyFor(proto layers.IPProtocol, src, dst Endpoint) Key {
	if dst.less(src) {
		src, dst = dst, src
	}
	return Key{Proto: proto, A: src, B: dst}
}

// Direction is a packet's orientation relative to the canonical key.
type Direction uint8

// Direction values.
const (
	DirAToB Direction = iota
	DirBToA
)

// Packet is one packet assigned to a stream. Its endpoints are the
// stream key's, in the order Dir gives: A to B for DirAToB.
type Packet struct {
	Timestamp time.Time
	Dir       Direction
	// TCPFlags preserves the TCP flag byte for TCP segments (0 for UDP).
	TCPFlags uint8
	// Payload is the transport payload.
	Payload []byte
}

// Stream is a bidirectional transport conversation.
//
// The summary fields (FirstSeen, LastSeen, Bytes, NPackets, DstTuples)
// are maintained on every add, independently of whether the per-packet
// records are retained: the streaming analyzer drops Packets for
// streams it no longer needs payloads from, and the filter judges the
// stream from the summaries alone.
type Stream struct {
	Key       Key
	Packets   []Packet
	FirstSeen time.Time
	LastSeen  time.Time
	Bytes     int
	// NPackets counts every packet ever added, including ones whose
	// records were not retained.
	NPackets int
	// DstTuples lists the distinct destination 3-tuples of the stream's
	// packets, in first-occurrence order.
	DstTuples []ThreeTuple

	// ttMemo/spMemo memoize the destination 3-tuple and its table span
	// per direction: a stream's destination tuple is constant within a
	// direction, so after the first packet each way the per-packet
	// 3-tuple map lookup and DstTuples scan collapse to one comparison.
	ttMemo [2]ThreeTuple
	spMemo [2]*Span
}

// Span returns the stream's active time span.
func (s *Stream) Span() (first, last time.Time) { return s.FirstSeen, s.LastSeen }

// ThreeTuple is a destination-side (address, port, protocol) triple.
type ThreeTuple struct {
	Proto layers.IPProtocol
	Addr  netip.Addr
	Port  uint16
}

func (t ThreeTuple) String() string {
	return fmt.Sprintf("%s -> %s", t.Proto, netip.AddrPortFrom(t.Addr, t.Port))
}

// Span records the first and last time something was observed.
type Span struct {
	First, Last time.Time
}

// Extend widens the span to include ts.
func (s *Span) Extend(ts time.Time) {
	if s.First.IsZero() || ts.Before(s.First) {
		s.First = ts
	}
	if ts.After(s.Last) {
		s.Last = ts
	}
}

// Table accumulates packets into streams.
type Table struct {
	streams map[Key]*Stream
	order   []Key
	// threeTuples tracks when each destination 3-tuple was observed.
	threeTuples map[ThreeTuple]*Span
}

// NewTable returns an empty stream table.
func NewTable() *Table {
	return &Table{
		streams:     make(map[Key]*Stream),
		threeTuples: make(map[ThreeTuple]*Span),
	}
}

// Add assigns a decoded packet to its stream. Packets without a
// transport layer are ignored and reported as false.
func (t *Table) Add(ts time.Time, pkt *layers.Packet) bool {
	_, ok := t.AddPacket(ts, pkt, true)
	return ok
}

// AddPacket assigns a decoded packet to its stream and returns the
// stream. When keep is false the per-packet record is not appended —
// only the stream and 3-tuple summaries advance — which is how the
// streaming analyzer keeps resident memory independent of stream
// length for streams whose payloads it no longer needs. Packets
// without a transport layer are ignored and reported as (nil, false).
func (t *Table) AddPacket(ts time.Time, pkt *layers.Packet, keep bool) (*Stream, bool) {
	proto, srcPort, dstPort := pkt.Transport()
	if proto == 0 {
		return nil, false
	}
	src := Endpoint{Addr: pkt.Src(), Port: srcPort}
	dst := Endpoint{Addr: pkt.Dst(), Port: dstPort}
	key := KeyFor(proto, src, dst)
	s, ok := t.streams[key]
	if !ok {
		s = &Stream{Key: key, FirstSeen: ts, LastSeen: ts}
		t.streams[key] = s
		t.order = append(t.order, key)
	}
	dir := DirAToB
	if key.A != src {
		dir = DirBToA
	}
	var flags uint8
	if pkt.TCP != nil {
		flags = pkt.TCP.Flags
	}
	t.AddToStream(s, ts, dir, dst, pkt.Payload, flags, keep)
	return s, true
}

// AddToStream appends a packet directly to an already-resolved stream,
// skipping the key canonicalization and stream-map lookup of AddPacket.
// It is the batched analyzer's fast path for runs of packets on the
// same stream: the caller guarantees s came from this table and that
// (dir, dst) are consistent with s.Key.
func (t *Table) AddToStream(s *Stream, ts time.Time, dir Direction, dst Endpoint, payload []byte, tcpFlags uint8, keep bool) {
	if keep {
		s.Packets = append(s.Packets, Packet{
			Timestamp: ts,
			Dir:       dir,
			TCPFlags:  tcpFlags,
			Payload:   payload,
		})
	}
	if ts.Before(s.FirstSeen) {
		s.FirstSeen = ts
	}
	if ts.After(s.LastSeen) {
		s.LastSeen = ts
	}
	s.Bytes += len(payload)
	s.NPackets++

	tt := ThreeTuple{Proto: s.Key.Proto, Addr: dst.Addr, Port: dst.Port}
	if sp := s.spMemo[dir]; sp != nil && s.ttMemo[dir] == tt {
		sp.Extend(ts)
		return
	}
	seen := false
	for _, have := range s.DstTuples {
		if have == tt {
			seen = true
			break
		}
	}
	if !seen {
		s.DstTuples = append(s.DstTuples, tt)
	}
	sp, ok := t.threeTuples[tt]
	if !ok {
		sp = &Span{}
		t.threeTuples[tt] = sp
	}
	sp.Extend(ts)
	s.ttMemo[dir] = tt
	s.spMemo[dir] = sp
}

// AbsorbSpans widens this table's destination-3-tuple spans with every
// span recorded in src, creating entries as needed. It is the first
// half of a cross-table merge: spans union commutatively (Extend is a
// min/max fold), so absorbing shard tables in any order yields exactly
// the span a single table fed every packet would hold.
func (t *Table) AbsorbSpans(src *Table) {
	for tt, sp := range src.threeTuples {
		dst, ok := t.threeTuples[tt]
		if !ok {
			dst = &Span{}
			t.threeTuples[tt] = dst
		}
		dst.Extend(sp.First)
		dst.Extend(sp.Last)
	}
}

// AbsorbStream adopts a stream built by another table, appending it to
// this table's insertion order. The caller controls the order of
// AbsorbStream calls and must replay the original first-seen order
// when the merged table needs to match a serially-built one. A key
// already present is an error: the sharded router guarantees each flow
// is owned by exactly one shard, so a duplicate means misrouting.
//
// The stream's per-direction span memos are re-pointed at this table's
// (absorbed, unioned) spans: the shard-local spans they referenced may
// cover only one shard's packets, and the filter — and any structural
// comparison against a serially-built table — must see the union.
// Call AbsorbSpans for every source table before absorbing streams.
func (t *Table) AbsorbStream(s *Stream) error {
	if _, ok := t.streams[s.Key]; ok {
		return fmt.Errorf("flow: duplicate stream %v in table merge", s.Key)
	}
	t.streams[s.Key] = s
	t.order = append(t.order, s.Key)
	for dir := range s.spMemo {
		if s.spMemo[dir] == nil {
			continue
		}
		if sp, ok := t.threeTuples[s.ttMemo[dir]]; ok {
			s.spMemo[dir] = sp
		}
	}
	return nil
}

// Streams returns all streams in first-seen insertion order.
func (t *Table) Streams() []*Stream {
	out := make([]*Stream, 0, len(t.order))
	for _, k := range t.order {
		out = append(out, t.streams[k])
	}
	return out
}

// Get returns the stream for key, or nil.
func (t *Table) Get(key Key) *Stream { return t.streams[key] }

// Len reports the number of streams.
func (t *Table) Len() int { return len(t.streams) }

// PacketCount reports the total packets across all streams, including
// packets whose records were not retained.
func (t *Table) PacketCount() int {
	n := 0
	for _, s := range t.streams {
		n += s.NPackets
	}
	return n
}

// ThreeTupleSpan returns the observation span for a destination
// 3-tuple, and false if never seen.
func (t *Table) ThreeTupleSpan(tt ThreeTuple) (Span, bool) {
	sp, ok := t.threeTuples[tt]
	if !ok {
		return Span{}, false
	}
	return *sp, true
}

// Counts summarizes a set of streams for reporting.
type Counts struct {
	Streams int
	Packets int
	Bytes   int
}

// Count tallies streams and packets. It uses the NPackets summary, so
// streams whose per-packet records were dropped still count fully.
func Count(streams []*Stream) Counts {
	var c Counts
	c.Streams = len(streams)
	for _, s := range streams {
		c.Packets += s.NPackets
		c.Bytes += s.Bytes
	}
	return c
}
