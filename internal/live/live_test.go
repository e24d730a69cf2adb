package live

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

var t0 = time.Unix(1700000000, 0).UTC()

func TestEncapsulateRoundTrip(t *testing.T) {
	pkt := pcap.Packet{Timestamp: t0.Add(123456 * time.Microsecond), Data: []byte{1, 2, 3, 4}}
	wire := Encapsulate(42, pkt)
	seq, got, err := Decapsulate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || !got.Timestamp.Equal(pkt.Timestamp) || !bytes.Equal(got.Data, pkt.Data) {
		t.Errorf("round trip: seq=%d ts=%v data=%v", seq, got.Timestamp, got.Data)
	}
}

func TestDecapsulateRejects(t *testing.T) {
	if _, _, err := Decapsulate([]byte{1, 2, 3}); err == nil {
		t.Error("short datagram accepted")
	}
	bad := Encapsulate(1, pcap.Packet{Timestamp: t0, Data: []byte{9}})
	bad[0] = 'X'
	if _, _, err := Decapsulate(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

// Full loop over the loopback interface: generate a capture, replay it
// through a real UDP socket pair, collect it, analyze it, and compare
// against direct in-memory analysis.
func TestLoopbackReplayAnalysis(t *testing.T) {
	cap, err := trace.Generate(trace.CaptureConfig{
		App: appsim.Discord, Network: appsim.WiFiRelay, Seed: 8,
		Start: t0, CallDuration: 4 * time.Second, PrePost: 5 * time.Second,
		MediaRate: 10, Background: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := cap.Frames()

	col, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	col.IdleTimeout = time.Second

	exp, err := Dial(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	// Pace the replay 100x faster than real time rather than blasting:
	// even with a large receive buffer, a zero-gap burst can outrun the
	// loopback path.
	exp.Speed = 100

	errc := make(chan error, 1)
	go func() { errc <- exp.Replay(context.Background(), frames) }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, err := col.Collect(ctx, len(frames))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// Loopback UDP may drop under burst; require the vast majority.
	if len(got) < len(frames)*95/100 {
		t.Fatalf("collected %d of %d frames", len(got), len(frames))
	}
	if col.Dropped != 0 {
		t.Errorf("dropped %d datagrams", col.Dropped)
	}

	live, err := core.AnalyzeCapture(core.CaptureInput{
		Label: "live", LinkType: pcap.LinkTypeRaw, Packets: got,
		CallStart: cap.CallStart, CallEnd: cap.CallEnd,
	}, core.Options{SkipFindings: true})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.AnalyzeCapture(core.CaptureInput{
		Label: "direct", LinkType: pcap.LinkTypeRaw, Packets: frames,
		CallStart: cap.CallStart, CallEnd: cap.CallEnd,
	}, core.Options{SkipFindings: true})
	if err != nil {
		t.Fatal(err)
	}
	lc, lt := live.Stats.TypeCompliance(0)
	dc, dt := direct.Stats.TypeCompliance(0)
	if lc != dc || lt != dt {
		t.Errorf("type compliance differs: live %d/%d vs direct %d/%d", lc, lt, dc, dt)
	}
}

func TestReplayPacing(t *testing.T) {
	col, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	exp, err := Dial(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	exp.Speed = 10 // 10x faster than real time

	// Three frames spanning 1 second of capture time -> ~100ms replay.
	frames := []pcap.Packet{
		{Timestamp: t0, Data: []byte{1}},
		{Timestamp: t0.Add(500 * time.Millisecond), Data: []byte{2}},
		{Timestamp: t0.Add(time.Second), Data: []byte{3}},
	}
	begin := time.Now()
	if err := exp.Replay(context.Background(), frames); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(begin)
	if elapsed < 80*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("paced replay took %v, want ≈100ms", elapsed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	col.IdleTimeout = 500 * time.Millisecond
	got, err := col.Collect(ctx, 3)
	if err != nil || len(got) != 3 {
		t.Fatalf("collected %d, err %v", len(got), err)
	}
}

func TestReplayCancel(t *testing.T) {
	col, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	exp, err := Dial(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	exp.Speed = 1 // real time: second frame is an hour away

	frames := []pcap.Packet{
		{Timestamp: t0, Data: []byte{1}},
		{Timestamp: t0.Add(time.Hour), Data: []byte{2}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := exp.Replay(ctx, frames); err == nil {
		t.Error("cancelled replay returned nil")
	}
}

func TestCollectorIdleTimeout(t *testing.T) {
	col, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	col.IdleTimeout = 200 * time.Millisecond
	begin := time.Now()
	got, err := col.Collect(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("frames from silence: %d", len(got))
	}
	if time.Since(begin) > 2*time.Second {
		t.Error("idle timeout did not fire promptly")
	}
}

func TestCollectorCountsJunk(t *testing.T) {
	col, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	col.IdleTimeout = 200 * time.Millisecond

	exp, err := Dial(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	// One junk datagram, one real frame.
	if _, err := exp.conn.Write([]byte("junk datagram without magic")); err != nil {
		t.Fatal(err)
	}
	if err := exp.Send(pcap.Packet{Timestamp: t0, Data: []byte{7}}); err != nil {
		t.Fatal(err)
	}
	got, err := col.Collect(context.Background(), 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d frames, err %v", len(got), err)
	}
	if col.DecodeErrors != 1 {
		t.Errorf("decode errors = %d, want 1", col.DecodeErrors)
	}
	if col.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 (junk is a decode error, not a loss)", col.Dropped)
	}
}
