// Package live moves captures over real sockets: an Exporter replays a
// capture's frames to a UDP endpoint (like a packet broker's
// encapsulated mirror port), and a Collector receives them, rebuilding
// timestamped frames for the analysis pipeline.
//
// Each exported datagram carries one link-layer frame behind a small
// encapsulation header, so the original addresses, ports, and payloads
// survive the trip even though the transport is a plain UDP socket:
//
//	0      4        12      16
//	| "RTCC" | ts µs  | seq   | frame bytes ...
//
// The paper's setup captured on the phone and analyzed offline; this
// package is the online variant — run the collector on the analysis
// host, point an exporter (or a mirror of a real capture) at it, and
// feed each frame straight into the streaming core.Analyzer as it
// arrives (Collector.Stream + ReorderBuffer), or buffer them all with
// Collect for pcap export.
package live

import (
	"container/heap"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// Magic identifies an encapsulated frame datagram.
var Magic = [4]byte{'R', 'T', 'C', 'C'}

// headerLen is the encapsulation header size.
const headerLen = 16

// maxFrame bounds the encapsulated frame size (a full-size UDP payload
// minus the header fits comfortably).
const maxFrame = 64 * 1024

// Encapsulate builds the wire form of one frame.
func Encapsulate(seq uint32, pkt pcap.Packet) []byte {
	buf := make([]byte, headerLen+len(pkt.Data))
	copy(buf[0:4], Magic[:])
	binary.BigEndian.PutUint64(buf[4:12], uint64(pkt.Timestamp.UnixMicro()))
	binary.BigEndian.PutUint32(buf[12:16], seq)
	copy(buf[headerLen:], pkt.Data)
	return buf
}

// Decapsulate parses one encapsulated datagram, copying the frame out
// so the result outlives the receive buffer.
func Decapsulate(b []byte) (seq uint32, pkt pcap.Packet, err error) {
	seq, pkt, err = DecapsulateView(b)
	if err != nil {
		return 0, pcap.Packet{}, err
	}
	data := make([]byte, len(pkt.Data))
	copy(data, pkt.Data)
	pkt.Data = data
	return seq, pkt, nil
}

// DecapsulateView parses one encapsulated datagram without copying:
// the returned packet's Data aliases b and is only valid while b is.
// It is the allocation-free first step the Collector uses to judge a
// frame (decapsulation, sequence accounting) before paying for the
// copy-out — an undecodable datagram never allocates.
func DecapsulateView(b []byte) (seq uint32, pkt pcap.Packet, err error) {
	if len(b) < headerLen {
		return 0, pcap.Packet{}, fmt.Errorf("live: datagram too short (%d bytes)", len(b))
	}
	if [4]byte(b[0:4]) != Magic {
		return 0, pcap.Packet{}, errors.New("live: bad magic")
	}
	ts := time.UnixMicro(int64(binary.BigEndian.Uint64(b[4:12]))).UTC()
	seq = binary.BigEndian.Uint32(b[12:16])
	data := b[headerLen:]
	return seq, pcap.Packet{Timestamp: ts, Data: data, OrigLen: len(data)}, nil
}

// Exporter replays frames to a UDP endpoint.
type Exporter struct {
	conn net.Conn
	seq  uint32
	// Speed divides inter-frame gaps: 0 or 1 replays in real time, 10
	// replays ten times faster, and SpeedInstant disables pacing.
	Speed float64
}

// SpeedInstant disables pacing entirely.
const SpeedInstant = -1

// Dial connects an exporter to addr (host:port).
func Dial(addr string) (*Exporter, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	return &Exporter{conn: conn, Speed: SpeedInstant}, nil
}

// Close releases the socket.
func (e *Exporter) Close() error { return e.conn.Close() }

// Send exports one frame immediately.
func (e *Exporter) Send(pkt pcap.Packet) error {
	if len(pkt.Data) > maxFrame {
		return fmt.Errorf("live: frame of %d bytes exceeds limit", len(pkt.Data))
	}
	e.seq++
	_, err := e.conn.Write(Encapsulate(e.seq, pkt))
	return err
}

// Replay exports every frame, pacing inter-frame gaps by Speed. The
// context cancels a long replay.
func (e *Exporter) Replay(ctx context.Context, frames []pcap.Packet) error {
	var prev time.Time
	for i, f := range frames {
		if e.Speed > 0 && i > 0 {
			gap := f.Timestamp.Sub(prev)
			if gap > 0 {
				scaled := time.Duration(float64(gap) / e.Speed)
				select {
				case <-time.After(scaled):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		prev = f.Timestamp
		if err := e.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// Collector receives encapsulated frames on a UDP socket.
type Collector struct {
	pc net.PacketConn
	// IdleTimeout ends collection after this long without a frame
	// (default 2 s).
	IdleTimeout time.Duration
	// DecodeErrors counts datagrams that could not be decapsulated (bad
	// magic, too short). These are received bytes that carry no frame —
	// the live analogue of CaptureAnalysis.DecodeErrors — and are
	// surfaced rather than silently discarded.
	DecodeErrors int
	// Dropped estimates frames lost in flight, from gaps in the
	// exporter's sequence numbers: a forward jump of k accounts for k-1
	// missing frames, and a late (reordered) arrival of a frame
	// previously counted missing takes one back off.
	Dropped int
	// Reordered counts frames that arrived with a backwards sequence
	// number (UDP reordering on the mirror path).
	Reordered int
	// Metrics, when non-nil, mirrors the counters above as
	// live_frames_received_total, live_decode_errors_total,
	// live_frames_reordered_total, and the live_frames_dropped gauge (a
	// gauge because a late arrival revises the loss estimate down).
	Metrics *metrics.Registry

	lastSeq uint32
	seenAny bool
}

// streamCounters holds the metric handles Stream resolves once per
// call; the zero value (nil registry) is inert.
type streamCounters struct {
	received   *metrics.Counter
	decodeErrs *metrics.Counter
	dropped    *metrics.Gauge
	reordered  *metrics.Counter
}

// SortByTimestamp stable-sorts frames by capture timestamp, restoring
// original capture order after UDP reordering on the mirror path.
func SortByTimestamp(frames []pcap.Packet) {
	sort.SliceStable(frames, func(i, j int) bool {
		return frames[i].Timestamp.Before(frames[j].Timestamp)
	})
}

// Listen binds a collector; addr may use port 0 for an ephemeral port.
func Listen(addr string) (*Collector, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	// Bursty mirrors overflow the default receive buffer long before
	// the collector loop drains it; ask for a few megabytes (best
	// effort — the kernel may clamp it).
	if uc, ok := pc.(*net.UDPConn); ok {
		_ = uc.SetReadBuffer(8 << 20)
	}
	return &Collector{pc: pc, IdleTimeout: 2 * time.Second}, nil
}

// Addr reports the bound address (useful with port 0).
func (c *Collector) Addr() string { return c.pc.LocalAddr().String() }

// Close releases the socket.
func (c *Collector) Close() error { return c.pc.Close() }

// Stream receives frames and hands each one to fn as it arrives, in
// arrival order with its original capture timestamp, until max frames
// have been delivered (0 = unlimited), the idle timeout passes, or the
// context is canceled. Each delivered frame's Data is freshly
// allocated, so fn may retain it — feeding a core.Analyzer (usually
// through a ReorderBuffer, since UDP may reorder the mirror path)
// analyzes the capture without ever buffering it. Returns the delivered
// count; a non-nil error from fn aborts the stream and is returned
// as-is.
func (c *Collector) Stream(ctx context.Context, max int, fn func(pcap.Packet) error) (int, error) {
	idle := c.IdleTimeout
	if idle <= 0 {
		idle = 2 * time.Second
	}
	sc := streamCounters{
		received:   c.Metrics.Counter("live_frames_received_total"),
		decodeErrs: c.Metrics.Counter("live_decode_errors_total"),
		dropped:    c.Metrics.Gauge("live_frames_dropped"),
		reordered:  c.Metrics.Counter("live_frames_reordered_total"),
	}
	count := 0
	buf := make([]byte, maxFrame+headerLen)
	for max == 0 || count < max {
		deadline := time.Now().Add(idle)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		if err := c.pc.SetReadDeadline(deadline); err != nil {
			return count, err
		}
		n, _, err := c.pc.ReadFrom(buf)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return count, nil // idle end
			}
			if ctx.Err() != nil {
				return count, nil
			}
			return count, err
		}
		delivered, err := c.handleDatagram(buf[:n], sc, fn)
		if delivered {
			count++
		}
		if err != nil {
			return count, err
		}
	}
	return count, nil
}

// handleDatagram processes one received datagram: zero-copy
// decapsulation, sequence accounting, and — only for frames that
// decapsulate — the copy-out and delivery to fn. The decode-error path
// never copies the payload.
func (c *Collector) handleDatagram(b []byte, sc streamCounters, fn func(pcap.Packet) error) (delivered bool, err error) {
	seq, pkt, err := DecapsulateView(b)
	if err != nil {
		c.DecodeErrors++
		sc.decodeErrs.Inc()
		return false, nil
	}
	switch {
	case !c.seenAny:
		c.seenAny = true
		c.lastSeq = seq
	case seq > c.lastSeq:
		c.Dropped += int(seq-c.lastSeq) - 1
		c.lastSeq = seq
	default:
		// A backwards (or duplicate-seq) arrival: the frame was
		// counted missing when the gap was observed, so reclaim it.
		c.Reordered++
		sc.reordered.Inc()
		if c.Dropped > 0 {
			c.Dropped--
		}
	}
	sc.dropped.Set(int64(c.Dropped))
	sc.received.Inc()
	data := make([]byte, len(pkt.Data))
	copy(data, pkt.Data)
	pkt.Data = data
	return true, fn(pkt)
}

// Collect receives frames until max frames arrive (0 = unlimited), the
// idle timeout passes, or the context is canceled. Frames are returned
// in arrival order with their original capture timestamps. It is
// Stream buffering into a slice — use Stream to analyze without
// holding the whole capture.
func (c *Collector) Collect(ctx context.Context, max int) ([]pcap.Packet, error) {
	var frames []pcap.Packet
	_, err := c.Stream(ctx, max, func(pkt pcap.Packet) error {
		frames = append(frames, pkt)
		return nil
	})
	return frames, err
}

// ReorderBuffer restores approximate capture order before delivery: it
// holds up to Depth frames in a min-heap keyed by timestamp (insertion
// order breaks ties, matching SortByTimestamp's stable sort) and emits
// the earliest frame once the buffer is full. Any reordering with
// displacement under Depth is corrected exactly; a deeper displacement
// emits frames slightly out of order, which the Analyzer tolerates the
// same way it tolerates an unsorted capture file.
type ReorderBuffer struct {
	depth int
	emit  func(pcap.Packet) error
	h     frameHeap
	n     uint64
}

// NewReorderBuffer returns a buffer of the given depth (≤ 0 selects
// 256) delivering to emit.
func NewReorderBuffer(depth int, emit func(pcap.Packet) error) *ReorderBuffer {
	if depth <= 0 {
		depth = 256
	}
	return &ReorderBuffer{depth: depth, emit: emit}
}

// Push inserts one frame, emitting the earliest buffered frame when
// the buffer is over depth.
func (rb *ReorderBuffer) Push(pkt pcap.Packet) error {
	heap.Push(&rb.h, frameEntry{pkt: pkt, seq: rb.n})
	rb.n++
	if rb.h.Len() > rb.depth {
		return rb.emit(heap.Pop(&rb.h).(frameEntry).pkt)
	}
	return nil
}

// Flush emits every buffered frame in timestamp order.
func (rb *ReorderBuffer) Flush() error {
	for rb.h.Len() > 0 {
		if err := rb.emit(heap.Pop(&rb.h).(frameEntry).pkt); err != nil {
			return err
		}
	}
	return nil
}

// frameEntry orders frames by (timestamp, arrival) in the heap.
type frameEntry struct {
	pkt pcap.Packet
	seq uint64
}

type frameHeap []frameEntry

func (h frameHeap) Len() int { return len(h) }
func (h frameHeap) Less(i, j int) bool {
	if !h[i].pkt.Timestamp.Equal(h[j].pkt.Timestamp) {
		return h[i].pkt.Timestamp.Before(h[j].pkt.Timestamp)
	}
	return h[i].seq < h[j].seq
}
func (h frameHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *frameHeap) Push(x any)   { *h = append(*h, x.(frameEntry)) }
func (h *frameHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
