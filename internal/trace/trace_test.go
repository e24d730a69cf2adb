package trace

import (
	"bytes"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/natsim"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

var t0 = time.Unix(1700000000, 0).UTC()

func testConfig() CaptureConfig {
	return CaptureConfig{
		App:          appsim.WhatsApp,
		Network:      appsim.WiFiRelay,
		Seed:         5,
		Start:        t0,
		CallDuration: 6 * time.Second,
		PrePost:      10 * time.Second,
		MediaRate:    15,
		Background:   true,
	}
}

func TestGenerateCapture(t *testing.T) {
	cap, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.Events) <= cap.RTCEvents {
		t.Errorf("background events missing: total %d, rtc %d", len(cap.Events), cap.RTCEvents)
	}
	if !cap.CallStart.Equal(t0) || !cap.CallEnd.Equal(t0.Add(6*time.Second)) {
		t.Errorf("call window = %v..%v", cap.CallStart, cap.CallEnd)
	}
	for i := 1; i < len(cap.Events); i++ {
		if cap.Events[i].At.Before(cap.Events[i-1].At) {
			t.Fatal("events not sorted")
		}
	}
	// Some events precede the call window (background pre-call phase).
	if !cap.Events[0].At.Before(cap.CallStart) {
		t.Error("no pre-call events")
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := testConfig()
	cfg.CallDuration = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero duration accepted")
	}
	cfg = testConfig()
	cfg.PrePost = -time.Second
	if _, err := Generate(cfg); err == nil {
		t.Error("negative prepost accepted")
	}
}

func TestFramesDecode(t *testing.T) {
	cap, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	frames := cap.Frames()
	if len(frames) != len(cap.Events) {
		t.Fatalf("frames = %d, events = %d", len(frames), len(cap.Events))
	}
	for i, f := range frames {
		pkt, err := layers.Decode(pcap.LinkTypeRaw, f.Data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		ev := cap.Events[i]
		proto, sp, dp := pkt.Transport()
		if proto != ev.Proto || sp != ev.Src.Port() || dp != ev.Dst.Port() {
			t.Fatalf("frame %d transport mismatch", i)
		}
		if !bytes.Equal(pkt.Payload, ev.Payload) {
			t.Fatalf("frame %d payload mismatch", i)
		}
		if pkt.Src() != ev.Src.Addr() || pkt.Dst() != ev.Dst.Addr() {
			t.Fatalf("frame %d address mismatch", i)
		}
	}
}

func TestWritePCAPRoundTrip(t *testing.T) {
	cap, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cap.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != pcap.LinkTypeRaw {
		t.Errorf("link type = %v", r.LinkType())
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != len(cap.Events) {
		t.Fatalf("pcap packets = %d, want %d", len(pkts), len(cap.Events))
	}
	// Timestamps survive with microsecond precision.
	for i := range pkts {
		want := cap.Events[i].At.Truncate(time.Microsecond)
		if !pkts[i].Timestamp.Equal(want) {
			t.Fatalf("packet %d ts = %v, want %v", i, pkts[i].Timestamp, want)
		}
	}
}

func TestMatrix(t *testing.T) {
	configs := Matrix(MatrixOptions{
		Runs:         2,
		CallDuration: 5 * time.Second,
		PrePost:      3 * time.Second,
		Start:        t0,
		BaseSeed:     100,
	})
	if len(configs) != 6*3*2 {
		t.Fatalf("matrix size = %d, want 36", len(configs))
	}
	// Windows must not overlap and seeds must be unique.
	seeds := make(map[uint64]bool)
	for i, c := range configs {
		if seeds[c.Seed] {
			t.Fatalf("duplicate seed %d", c.Seed)
		}
		seeds[c.Seed] = true
		if i > 0 {
			prev := configs[i-1]
			prevEnd := prev.Start.Add(prev.CallDuration + prev.PrePost)
			if c.Start.Add(-c.PrePost).Before(prevEnd) {
				t.Fatalf("capture %d overlaps previous", i)
			}
		}
	}
	// Restricting apps shrinks the matrix.
	small := Matrix(MatrixOptions{
		Runs: 1, CallDuration: time.Second, Start: t0,
		Apps: []appsim.App{appsim.Zoom},
	})
	if len(small) != 3 {
		t.Fatalf("restricted matrix = %d, want 3", len(small))
	}
}

func TestTCPSequenceNumbersAdvance(t *testing.T) {
	cap, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	frames := cap.Frames()
	lastSeq := make(map[string]uint32)
	sawAdvance := false
	for _, f := range frames {
		pkt, err := layers.Decode(pcap.LinkTypeRaw, f.Data)
		if err != nil || pkt.TCP == nil {
			continue
		}
		key := pkt.Src().String() + "->" + pkt.Dst().String()
		if prev, ok := lastSeq[key]; ok && pkt.TCP.Seq > prev {
			sawAdvance = true
		}
		lastSeq[key] = pkt.TCP.Seq
	}
	if !sawAdvance {
		t.Error("TCP sequence numbers never advance")
	}
}

// TestFramesAreDisjoint checks that every frame is capacity-capped, so
// appending to one frame can never overwrite the next one in the
// shared buffer.
func TestFramesAreDisjoint(t *testing.T) {
	c, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	frames := c.Frames()
	want := make([][]byte, len(frames))
	for i, f := range frames {
		if len(f.Data) != cap(f.Data) {
			t.Fatalf("frame %d: len %d, cap %d", i, len(f.Data), cap(f.Data))
		}
		want[i] = bytes.Clone(f.Data)
	}
	for i := range frames {
		_ = append(frames[i].Data, 0xEE)
	}
	for i, f := range frames {
		if !bytes.Equal(f.Data, want[i]) {
			t.Fatalf("frame %d changed after appending to its neighbour", i)
		}
	}
}

// TestMonotonicStartWritesSameBytes generates a capture from a start
// time that carries a monotonic clock reading, as time.Now() returns
// one, and from the same instant without one: the written bytes must
// be equal.
func TestMonotonicStartWritesSameBytes(t *testing.T) {
	now := time.Now()
	var out [2]bytes.Buffer
	for i, start := range []time.Time{now, now.Round(0)} {
		cfg := testConfig()
		cfg.Start = start
		cfg.Impair, _ = natsim.ProfileByName("jitter30")
		c, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WritePCAP(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Error("a start with a monotonic reading writes different bytes")
	}
}
