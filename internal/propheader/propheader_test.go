package propheader

import (
	"strings"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
	"github.com/rtc-compliance/rtcc/internal/trace"
	"time"
)

func TestTooFewSamples(t *testing.T) {
	rep := Infer([]Sample{{Header: []byte{1}}, {Header: []byte{1}}})
	if rep.Samples != 0 || len(rep.Fields) != 0 {
		t.Errorf("rep = %+v", rep)
	}
}

func TestConstantAndDirection(t *testing.T) {
	var samples []Sample
	for i := 0; i < 10; i++ {
		dir := Direction(i % 2)
		flag := byte(0x00)
		if dir == DirBToA {
			flag = 0x04
		}
		samples = append(samples, Sample{
			Header:    []byte{flag, 0x10, 0xAA, byte(i)},
			Dir:       dir,
			Remainder: 100 + i,
		})
	}
	rep := Infer(samples)
	if rep.Fields[0].Kind != KindDirection {
		t.Errorf("offset 0 = %s, want direction", rep.Fields[0].Kind)
	}
	if rep.Fields[0].PerDirection[DirAToB] != 0x00 || rep.Fields[0].PerDirection[DirBToA] != 0x04 {
		t.Errorf("per-direction = %+v", rep.Fields[0].PerDirection)
	}
	if rep.Fields[1].Kind != KindConstant || rep.Fields[1].Value != 0x10 {
		t.Errorf("offset 1 = %+v", rep.Fields[1])
	}
	if rep.Fields[3].Kind != KindCounter {
		t.Errorf("offset 3 = %s, want counter", rep.Fields[3].Kind)
	}
}

func TestLengthField(t *testing.T) {
	// FaceTime-style: magic 0x60 0x00, 16-bit length covering 4 opaque
	// header bytes plus the payload.
	var samples []Sample
	for i := 0; i < 8; i++ {
		payload := 80 + 13*i
		total := 4 + payload
		samples = append(samples, Sample{
			Header: []byte{
				0x60, 0x00,
				byte(total >> 8), byte(total),
				0xde, 0xad, byte(37 * i), byte(91 * i),
			},
			Dir:       DirAToB,
			Remainder: payload,
		})
	}
	rep := Infer(samples)
	if rep.Fields[0].Kind != KindConstant || rep.Fields[0].Value != 0x60 {
		t.Errorf("offset 0 = %+v", rep.Fields[0])
	}
	if rep.Fields[2].Kind != KindLengthHi || rep.Fields[3].Kind != KindLengthLo {
		t.Errorf("offsets 2,3 = %s,%s, want length field", rep.Fields[2].Kind, rep.Fields[3].Kind)
	}
	// With a fixed header length the field is equivalently "covers the
	// rest of the header plus payload" (4 trailing header bytes).
	if !rep.Fields[2].CoversRest && rep.Fields[2].LengthBias != 4 {
		t.Errorf("length field = %+v, want covers-rest or bias 4", rep.Fields[2])
	}
	out := Describe(rep)
	if !strings.Contains(out, "16-bit length") || !strings.Contains(out, "constant") {
		t.Errorf("describe:\n%s", out)
	}
}

func TestConstantRemainderNotALengthField(t *testing.T) {
	// Identical remainders make any constant pair look like a length;
	// the detector must refuse.
	var samples []Sample
	for i := 0; i < 8; i++ {
		samples = append(samples, Sample{
			Header:    []byte{0x00, 0x64, byte(i), byte(i * 3)},
			Remainder: 90,
		})
	}
	rep := Infer(samples)
	for _, f := range rep.Fields {
		if f.Kind == KindLengthHi || f.Kind == KindLengthLo {
			t.Errorf("offset %d misdetected as length field", f.Offset)
		}
	}
}

func TestVariableLengthHeadersUseCommonPrefix(t *testing.T) {
	samples := []Sample{
		{Header: make([]byte, 24), Remainder: 10},
		{Header: make([]byte, 39), Remainder: 11},
		{Header: make([]byte, 30), Remainder: 12},
		{Header: make([]byte, 26), Remainder: 13},
	}
	rep := Infer(samples)
	if rep.MinLen != 24 || rep.MaxLen != 39 {
		t.Errorf("lens = %d..%d", rep.MinLen, rep.MaxLen)
	}
	if len(rep.Fields) != 24 {
		t.Errorf("fields = %d", len(rep.Fields))
	}
}

// End-to-end: run the inference on real synthetic FaceTime relay
// traffic and rediscover the 0x6000 magic and its length field, as
// §5.3 of the paper did by hand.
func TestInferFaceTimeHeader(t *testing.T) {
	samples := harvest(t, appsim.FaceTime, appsim.WiFiRelay)
	if len(samples) < 50 {
		t.Fatalf("samples = %d", len(samples))
	}
	rep := Infer(samples)
	if rep.Fields[0].Kind != KindConstant || rep.Fields[0].Value != 0x60 {
		t.Errorf("offset 0 = %+v, want constant 0x60", rep.Fields[0])
	}
	if rep.Fields[1].Kind != KindConstant || rep.Fields[1].Value != 0x00 {
		t.Errorf("offset 1 = %+v, want constant 0x00", rep.Fields[1])
	}
	if rep.Fields[2].Kind != KindLengthHi || rep.Fields[3].Kind != KindLengthLo {
		t.Errorf("offsets 2,3 = %s,%s, want 16-bit length", rep.Fields[2].Kind, rep.Fields[3].Kind)
	}
	if rep.MinLen < 8 || rep.MaxLen > 19 {
		t.Errorf("header length range %d-%d, want within 8-19", rep.MinLen, rep.MaxLen)
	}
}

// Likewise for Zoom: the direction byte at offset 0 and the constant
// per-stream media ID must surface.
func TestInferZoomHeader(t *testing.T) {
	samples := harvest(t, appsim.Zoom, appsim.WiFiP2P)
	if len(samples) < 50 {
		t.Fatalf("samples = %d", len(samples))
	}
	rep := Infer(samples)
	if rep.Fields[0].Kind != KindDirection {
		t.Errorf("offset 0 = %s, want direction flag", rep.Fields[0].Kind)
	}
	if rep.Fields[1].Kind != KindConstant {
		t.Errorf("offset 1 = %s, want constant", rep.Fields[1].Kind)
	}
	// Media ID bytes 2-5 are constant within one stream.
	for off := 2; off <= 5; off++ {
		if rep.Fields[off].Kind != KindConstant {
			t.Errorf("offset %d = %s, want constant media ID byte", off, rep.Fields[off].Kind)
		}
	}
}

// harvest runs the DPI over one media stream of a generated call and
// returns its proprietary header samples.
func harvest(t *testing.T, app appsim.App, nw appsim.Network) []Sample {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App: app, Network: nw, Seed: 5,
		Start: time.Unix(1700000000, 0).UTC(), CallDuration: 6 * time.Second,
		PrePost: 2 * time.Second, MediaRate: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := flow.NewTable()
	for _, f := range cap.Frames() {
		pkt, err := layers.Decode(pcap.LinkTypeRaw, f.Data)
		if err != nil {
			continue
		}
		table.Add(f.Timestamp, pkt)
	}
	engine := dpi.NewEngine()
	var best []Sample
	for _, s := range table.Streams() {
		if s.Key.Proto != layers.IPProtocolUDP {
			continue
		}
		var samples []Sample
		for i, r := range engine.NewStreamInspector().Finalize(s.Packets) {
			if r.Class != dpi.ClassProprietaryHeader {
				continue
			}
			dir := DirAToB
			if s.Packets[i].Dir == flow.DirBToA {
				dir = DirBToA
			}
			samples = append(samples, Sample{
				Header:    r.ProprietaryHeader,
				Dir:       dir,
				Remainder: len(s.Packets[i].Payload) - len(r.ProprietaryHeader),
			})
		}
		if len(samples) > len(best) {
			best = samples
		}
	}
	return best
}
