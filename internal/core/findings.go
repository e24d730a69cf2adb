package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// Finding is one behavioural observation beyond per-message compliance
// — the §5.3 class of results (filler messages, proprietary keepalives,
// direction flags, SSRC reuse).
type Finding struct {
	App string
	// Kind is a stable identifier for the finding class.
	Kind string
	// Detail is the human-readable description with measured numbers.
	Detail string
	// Count is how many packets/instances supported the finding.
	Count int
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s (%d instances)", f.App, f.Kind, f.Detail, f.Count)
}

// Finding kinds.
const (
	FindingFiller          = "filler-messages"
	FindingKeepalive       = "proprietary-keepalive"
	FindingDoubleRTP       = "multiple-rtp-per-datagram"
	FindingZeroSSRC        = "zero-sender-ssrc"
	FindingDirectionByte   = "direction-correlated-trailer"
	FindingHeaderDirection = "direction-correlated-header"
	FindingSSRCReuse       = "ssrc-reuse-across-calls"
	Finding6000Header      = "length-bearing-0x6000-header"
)

// findingsContext accumulates evidence across the streams of one
// capture.
type findingsContext struct {
	filler      int
	keepalive   int
	doubleRTP   int
	rtpDgrams   int
	zeroSSRC    int
	fbTotal     int
	hdr6000     int
	hdr6000OK   int
	trailerDirs map[flow.Direction]map[byte]int
	headerDirs  map[flow.Direction]map[byte]int
}

// datagram records one RTC datagram's evidence: its DPI result, and
// media, the number of its messages the registry observed as media.
// The evidence is commutative, so the order datagrams and chunks
// arrive in does not change the accumulated totals.
func (f *findingsContext) datagram(rec *flow.Packet, r dpi.Result, media int) {
	payload := rec.Payload
	switch r.Class {
	case dpi.ClassFullyProprietary:
		// Zoom filler: large datagrams of one repeated byte.
		if len(payload) >= 800 && uniformBytes(payload) {
			f.filler++
		}
		// FaceTime keepalive: fixed 36-byte 0xDEADBEEFCAFE frames.
		if len(payload) == 36 && bytes.HasPrefix(payload, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE}) {
			f.keepalive++
		}
	case dpi.ClassProprietaryHeader:
		hdr := r.ProprietaryHeader
		// FaceTime 0x6000 header: 2-byte magic then a length field
		// covering the rest of the datagram.
		if len(hdr) >= 4 && hdr[0] == 0x60 && hdr[1] == 0x00 {
			f.hdr6000++
			declared := int(binary.BigEndian.Uint16(hdr[2:4]))
			if declared == len(payload)-4 {
				f.hdr6000OK++
			}
		}
		// Direction-correlated first header byte (Zoom's 0x00/0x04).
		if len(hdr) > 0 {
			addDir(&f.headerDirs, rec.Dir, hdr[0], 1)
		}
	}
	if media > 0 {
		f.rtpDgrams++
		if media > 1 {
			f.doubleRTP++
		}
	}
}

// message records the findings evidence of one message's observation.
func (f *findingsContext) message(dir flow.Direction, o *proto.Observation) {
	// Direction-correlated trailer byte (Discord).
	if o.HasTrailerByte {
		addDir(&f.trailerDirs, dir, o.TrailerByte, 1)
	}
	f.fbTotal += o.FeedbackMessages
	f.zeroSSRC += o.ZeroSSRCFeedback
}

// addDir counts n sightings of byte v in direction dir.
func addDir(dirs *map[flow.Direction]map[byte]int, dir flow.Direction, v byte, n int) {
	if *dirs == nil {
		*dirs = map[flow.Direction]map[byte]int{}
	}
	m := (*dirs)[dir]
	if m == nil {
		m = map[byte]int{}
		(*dirs)[dir] = m
	}
	m[v] += n
}

// merge folds another context's evidence into f. All evidence is
// commutative (counters and per-direction byte histograms), so the
// merged findings are independent of the order streams were scanned or
// merged in — the property the parallel pipeline relies on.
func (f *findingsContext) merge(o *findingsContext) {
	f.filler += o.filler
	f.keepalive += o.keepalive
	f.doubleRTP += o.doubleRTP
	f.rtpDgrams += o.rtpDgrams
	f.zeroSSRC += o.zeroSSRC
	f.fbTotal += o.fbTotal
	f.hdr6000 += o.hdr6000
	f.hdr6000OK += o.hdr6000OK
	for dir, m := range o.trailerDirs {
		for v, n := range m {
			addDir(&f.trailerDirs, dir, v, n)
		}
	}
	for dir, m := range o.headerDirs {
		for v, n := range m {
			addDir(&f.headerDirs, dir, v, n)
		}
	}
}

func uniformBytes(b []byte) bool {
	for _, x := range b[1:] {
		if x != b[0] {
			return false
		}
	}
	return true
}

// findings renders the accumulated evidence.
func (f *findingsContext) findings() []Finding {
	var out []Finding
	if f.filler > 0 {
		out = append(out, Finding{
			Kind:   FindingFiller,
			Detail: fmt.Sprintf("fully proprietary filler datagrams of one repeated byte (likely bandwidth probing); %d observed", f.filler),
			Count:  f.filler,
		})
	}
	if f.keepalive > 0 {
		out = append(out, Finding{
			Kind:   FindingKeepalive,
			Detail: fmt.Sprintf("36-byte 0xDEADBEEFCAFE datagrams with increasing counters (likely connectivity checks); %d observed", f.keepalive),
			Count:  f.keepalive,
		})
	}
	if f.doubleRTP > 0 {
		out = append(out, Finding{
			Kind: FindingDoubleRTP,
			Detail: fmt.Sprintf("%d of %d RTP datagrams (%.2f%%) carry two RTP messages sharing SSRC and timestamp",
				f.doubleRTP, f.rtpDgrams, 100*float64(f.doubleRTP)/float64(max(1, f.rtpDgrams))),
			Count: f.doubleRTP,
		})
	}
	if f.zeroSSRC > 0 {
		out = append(out, Finding{
			Kind: FindingZeroSSRC,
			Detail: fmt.Sprintf("%d of %d RTCP feedback messages (%.1f%%) use sender SSRC 0",
				f.zeroSSRC, f.fbTotal, 100*float64(f.zeroSSRC)/float64(max(1, f.fbTotal))),
			Count: f.zeroSSRC,
		})
	}
	if f.hdr6000 > 0 {
		out = append(out, Finding{
			Kind: Finding6000Header,
			Detail: fmt.Sprintf("proprietary headers start 0x6000 with a 2-byte length of the remaining bytes (%d of %d match)",
				f.hdr6000OK, f.hdr6000),
			Count: f.hdr6000,
		})
	}
	if fd, ok := directionCorrelation(f.trailerDirs); ok {
		fd.Kind = FindingDirectionByte
		fd.Detail = "RTCP trailer byte perfectly correlates with packet direction: " + fd.Detail
		out = append(out, fd)
	}
	if fd, ok := directionCorrelation(f.headerDirs); ok {
		fd.Kind = FindingHeaderDirection
		fd.Detail = "proprietary header first byte correlates with packet direction: " + fd.Detail
		out = append(out, fd)
	}
	return out
}

// directionCorrelation reports whether each direction used a single,
// distinct byte value.
func directionCorrelation(dirs map[flow.Direction]map[byte]int) (Finding, bool) {
	if len(dirs) < 2 {
		return Finding{}, false
	}
	values := make(map[flow.Direction]byte)
	total := 0
	for dir, m := range dirs {
		if len(m) != 1 {
			return Finding{}, false
		}
		for v, n := range m {
			values[dir] = v
			total += n
		}
	}
	if values[flow.DirAToB] == values[flow.DirBToA] {
		return Finding{}, false
	}
	return Finding{
		Detail: fmt.Sprintf("0x%02x one way, 0x%02x the other", values[flow.DirAToB], values[flow.DirBToA]),
		Count:  total,
	}, true
}

// detectSSRCReuse looks for SSRC values repeated across different calls
// of the same app and network configuration (the Zoom finding: SSRCs
// are deterministic per configuration, violating RFC 3550's randomness
// expectation).
func detectSSRCReuse(sets map[string][]map[uint32]bool) []Finding {
	var out []Finding
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		calls := sets[key]
		if len(calls) < 2 {
			continue
		}
		// Intersect all calls' SSRC sets.
		inter := make(map[uint32]bool)
		for ssrc := range calls[0] {
			inter[ssrc] = true
		}
		for _, s := range calls[1:] {
			for ssrc := range inter {
				if !s[ssrc] {
					delete(inter, ssrc)
				}
			}
		}
		if len(inter) == 0 {
			continue
		}
		ssrcs := make([]uint32, 0, len(inter))
		for s := range inter {
			ssrcs = append(ssrcs, s)
		}
		sort.Slice(ssrcs, func(i, j int) bool { return ssrcs[i] < ssrcs[j] })
		var app string
		for i, c := range key {
			if c == '/' {
				app = key[:i]
				break
			}
		}
		out = append(out, Finding{
			App:  app,
			Kind: FindingSSRCReuse,
			Detail: fmt.Sprintf("%d SSRC values identical across %d calls (%s): %#x...; RFC 3550 expects random per-session SSRCs",
				len(inter), len(calls), key, ssrcs[0]),
			Count: len(inter),
		})
	}
	return out
}

// dedupFindings merges findings with the same app and kind, keeping the
// first detail and summing counts.
func dedupFindings(in []Finding) []Finding {
	type key struct{ app, kind string }
	seen := make(map[key]int) // index into out
	var out []Finding
	for _, f := range in {
		k := key{f.App, f.Kind}
		if idx, ok := seen[k]; ok {
			out[idx].Count += f.Count
			continue
		}
		seen[k] = len(out)
		out = append(out, f)
	}
	return out
}
