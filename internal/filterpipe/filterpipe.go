// Package filterpipe implements the paper's two-stage unrelated-traffic
// filter (§3.2).
//
// Stage 1 removes streams whose active timespan is not fully enclosed in
// the call window expanded by a small slack (§3.2.1). Stage 2 removes
// intra-call background activity with four protocol-aware heuristics
// (§3.2.2): destination 3-tuple timing, TLS SNI blocklisting, local-IP
// exclusion, and well-known-port exclusion. Everything that survives is
// the RTC traffic handed to the DPI and compliance stages, and per-stage
// accounting reproduces Table 1.
package filterpipe

import (
	"net/netip"
	"strings"
	"time"

	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
)

// DefaultWindowSlack is the call-window expansion of §3.2.1 ("2 seconds
// before and after the call").
const DefaultWindowSlack = 2 * time.Second

// DefaultSNIBlocklist is the known-non-RTC domain list. The paper built
// its list from 7.5 hours of idle-phone traffic; ours is seeded with the
// paper's examples plus the domains the background generator emits.
var DefaultSNIBlocklist = []string{
	"oauth2.googleapis.com",
	"web.facebook.com",
	"api.apple-cloudkit.com",
	"mesu.apple.com",
	"adservice.example-tracker.com",
	"itunes.apple.com",
}

// nonRTCPorts is the port-based exclusion set, following the paper's
// examples (DNS 53, DHCP 67/547, SSDP 1900) extended with the standard
// local-service ports from the IANA registry.
var nonRTCPorts = map[uint16]bool{
	53:   true, // DNS
	67:   true, // DHCP
	68:   true, // DHCP client
	123:  true, // NTP
	137:  true, // NetBIOS
	138:  true,
	139:  true,
	161:  true, // SNMP
	547:  true, // DHCPv6
	1900: true, // SSDP
	5353: true, // mDNS
	5355: true, // LLMNR
}

// Rule names a filtering heuristic for reporting.
type Rule string

// Filtering rules.
const (
	RuleTimespan   Rule = "timespan"
	RuleThreeTuple Rule = "3-tuple timing"
	RuleSNI        Rule = "TLS SNI"
	RuleLocalIP    Rule = "local IP"
	RulePort       Rule = "port-based"
)

// Removal records why a stream was removed.
type Removal struct {
	Stage  int // 1 or 2
	Rule   Rule
	Detail string
}

// Config parameterizes one filtering run.
type Config struct {
	// CallStart and CallEnd delimit the annotated call window, which
	// the filter expands by DefaultWindowSlack on both sides.
	CallStart, CallEnd time.Time
	// Metrics, when non-nil, receives per-stage accounting: input
	// packets/streams, removals labelled by stage and rule, and RTC
	// survivors. Recording happens once per run from the already
	// computed Result, so it costs nothing per packet.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives per-stream filter decisions
	// (admitted / filtered with stage and rule). Like Metrics, the
	// events are emitted once per run from the computed Result, in
	// deterministic stream order.
	Trace *obs.Pipeline
}

// Result is the outcome of a filtering run.
type Result struct {
	// RTC holds the surviving streams, in insertion order.
	RTC []*flow.Stream
	// Removed maps each removed stream to its reason.
	Removed map[flow.Key]Removal
	// RemovedStreams lists removed streams in insertion order.
	RemovedStreams []*flow.Stream

	// Accounting for Table 1, split by transport.
	RawUDP, RawTCP       flow.Counts
	Stage1UDP, Stage1TCP flow.Counts
	Stage2UDP, Stage2TCP flow.Counts
	RTCUDP, RTCTCP       flow.Counts
}

// Run applies both filter stages to the streams of table.
func Run(table *flow.Table, cfg Config) *Result {
	return RunWithSNI(table, cfg, streamSNI)
}

// RunWithSNI is Run with the TLS SNI extraction pluggable. The batch
// path scans each TCP stream's buffered segments (streamSNI); the
// streaming analyzer extracts the SNI incrementally at feed time —
// same packet order, so the same first ClientHello wins — and supplies
// a lookup here so Close can reuse this exact assembly code and stay
// byte-identical to the batch result without retaining TCP payloads.
func RunWithSNI(table *flow.Table, cfg Config, sni func(*flow.Stream) (string, bool)) *Result {
	res := &Result{Removed: make(map[flow.Key]Removal)}
	streams := table.Streams()
	ev := NewEvidence(table)
	ev.SetWindow(cfg.CallStart, cfg.CallEnd)
	for _, s := range streams {
		// A stream's first packet is its earliest, so this marks
		// exactly the pairs some packet saw before the call.
		ev.Observe(s.FirstSeen, s.Key)
	}

	var stage1, stage2 []*flow.Stream
	for _, s := range streams {
		var name string
		if s.Key.Proto == layers.IPProtocolTCP {
			name, _ = sni(s)
		}
		rule, tt := ev.Check(s, name)
		switch rule {
		case "":
			res.RTC = append(res.RTC, s)
			continue
		case RuleTimespan:
			stage1 = append(stage1, s)
		default:
			stage2 = append(stage2, s)
		}
		res.Removed[s.Key] = removal(rule, tt, name)
	}
	tally(&res.RawUDP, &res.RawTCP, streams)
	tally(&res.Stage1UDP, &res.Stage1TCP, stage1)
	tally(&res.Stage2UDP, &res.Stage2TCP, stage2)
	tally(&res.RTCUDP, &res.RTCTCP, res.RTC)
	res.RemovedStreams = append(stage1, stage2...)
	record(cfg.Metrics, res)
	emitTrace(cfg.Trace, res)
	return res
}

// removal spells out a failed rule for the result and the trace.
func removal(rule Rule, tt flow.ThreeTuple, sni string) Removal {
	switch rule {
	case RuleTimespan:
		return Removal{Stage: 1, Rule: rule, Detail: "stream span not enclosed in the expanded call window"}
	case RuleThreeTuple:
		return Removal{Stage: 2, Rule: rule, Detail: "destination 3-tuple " + tt.String() + " active outside the call window"}
	case RuleSNI:
		return Removal{Stage: 2, Rule: rule, Detail: "SNI " + sni + " is blocklisted"}
	case RuleLocalIP:
		return Removal{Stage: 2, Rule: rule, Detail: "local address pair also active pre-call"}
	}
	return Removal{Stage: 2, Rule: RulePort, Detail: "well-known non-RTC port"}
}

// Evidence is what the §3.2 rules judge a stream against: the call
// window expanded by DefaultWindowSlack, the destination 3-tuple spans
// of the stream table, and the address pairs active before the call.
// RunWithSNI builds it from a finished table; the streaming analyzer
// grows it packet by packet and asks the same Check during feed. Every
// piece only grows as packets arrive, and no rule can stop firing on
// grown evidence, so a rule Check reports on partial evidence still
// fails the stream on the full evidence.
type Evidence struct {
	table *flow.Table
	// windowKnown is false until SetWindow: the window of an
	// unannotated capture is its span, known only at Close, and until
	// then Check decides just the window-free rules (SNI and port).
	windowKnown      bool
	callStart        time.Time
	winStart, winEnd time.Time
	preCall          map[[2]netip.Addr]bool
}

// NewEvidence returns empty evidence over table's 3-tuple spans, with
// the call window not yet known.
func NewEvidence(table *flow.Table) *Evidence {
	return &Evidence{table: table, preCall: make(map[[2]netip.Addr]bool)}
}

// SetWindow fixes the annotated call window; the rules expand it by
// DefaultWindowSlack on both sides.
func (e *Evidence) SetWindow(callStart, callEnd time.Time) {
	e.windowKnown = true
	e.callStart = callStart
	e.winStart = callStart.Add(-DefaultWindowSlack)
	e.winEnd = callEnd.Add(DefaultWindowSlack)
}

// Observe records a packet at ts on the stream keyed k: a packet before
// the call marks the stream's address pair as active pre-call, the
// local-IP rule's evidence. A no-op while the window is unknown.
func (e *Evidence) Observe(ts time.Time, k flow.Key) {
	if e.windowKnown && ts.Before(e.callStart) {
		e.preCall[pairKey(k.A.Addr, k.B.Addr)] = true
	}
}

// Check returns the first §3.2 rule stream s fails on the evidence so
// far, in the paper's order — timespan (stage 1), then 3-tuple timing,
// TLS SNI, local IP and port (stage 2) — or "" when it fails none. For
// RuleThreeTuple it also returns the offending destination 3-tuple. sni
// is the stream's first TLS ClientHello SNI, "" when none was seen.
func (e *Evidence) Check(s *flow.Stream, sni string) (Rule, flow.ThreeTuple) {
	if e.windowKnown {
		if s.FirstSeen.Before(e.winStart) || s.LastSeen.After(e.winEnd) {
			return RuleTimespan, flow.ThreeTuple{}
		}
		// Persistent services rebind source ports but keep their
		// destination 3-tuple. DstTuples is in first-occurrence order,
		// so the first match is the tuple the first matching packet
		// would have reported.
		for _, tt := range s.DstTuples {
			if sp, ok := e.table.ThreeTupleSpan(tt); ok &&
				(sp.First.Before(e.winStart) || sp.Last.After(e.winEnd)) {
				return RuleThreeTuple, tt
			}
		}
	}
	if sni != "" && s.Key.Proto == layers.IPProtocolTCP && MatchesBlocklist(sni, DefaultSNIBlocklist) {
		return RuleSNI, flow.ThreeTuple{}
	}
	// Link-local, unique-local or private endpoints whose pair was also
	// active pre-call: LAN management chatter, not P2P media.
	if (isLocalScope(s.Key.A.Addr) || isLocalScope(s.Key.B.Addr)) &&
		e.preCall[pairKey(s.Key.A.Addr, s.Key.B.Addr)] {
		return RuleLocalIP, flow.ThreeTuple{}
	}
	if nonRTCPorts[s.Key.A.Port] || nonRTCPorts[s.Key.B.Port] {
		return RulePort, flow.ThreeTuple{}
	}
	return "", flow.ThreeTuple{}
}

// emitTrace emits the per-stream filter verdicts of a completed run:
// admissions in survivor order, then removals in stage order — the
// same deterministic order Result records them in.
func emitTrace(p *obs.Pipeline, res *Result) {
	if p == nil {
		return
	}
	for _, s := range res.RTC {
		p.StreamAdmitted(s.Key.String())
	}
	for _, s := range res.RemovedStreams {
		rm := res.Removed[s.Key]
		p.StreamFiltered(s.Key.String(), rm.Stage, string(rm.Rule), rm.Detail)
	}
}

// ruleSlug maps a filtering rule to its metric label value.
func ruleSlug(r Rule) string {
	switch r {
	case RuleTimespan:
		return "timespan"
	case RuleThreeTuple:
		return "three_tuple"
	case RuleSNI:
		return "sni"
	case RuleLocalIP:
		return "local_ip"
	case RulePort:
		return "port"
	}
	return "unknown"
}

// record folds a completed filtering run into the registry.
func record(reg *metrics.Registry, res *Result) {
	if reg == nil {
		return
	}
	add := func(name string, c flow.Counts, labels ...metrics.Label) {
		reg.Counter(name+"_streams_total", labels...).Add(uint64(c.Streams))
		reg.Counter(name+"_packets_total", labels...).Add(uint64(c.Packets))
		reg.Counter(name+"_bytes_total", labels...).Add(uint64(c.Bytes))
	}
	add("filter_in", res.RawUDP, metrics.L("transport", "udp"))
	add("filter_in", res.RawTCP, metrics.L("transport", "tcp"))
	add("filter_rtc", res.RTCUDP, metrics.L("transport", "udp"))
	add("filter_rtc", res.RTCTCP, metrics.L("transport", "tcp"))
	for _, s := range res.RemovedStreams {
		rm := res.Removed[s.Key]
		stage := "1"
		if rm.Stage == 2 {
			stage = "2"
		}
		labels := []metrics.Label{
			metrics.L("stage", stage),
			metrics.L("rule", ruleSlug(rm.Rule)),
		}
		reg.Counter("filter_removed_streams_total", labels...).Inc()
		reg.Counter("filter_removed_packets_total", labels...).Add(uint64(s.NPackets))
		reg.Counter("filter_removed_bytes_total", labels...).Add(uint64(s.Bytes))
	}
}

func tally(udp, tcp *flow.Counts, streams []*flow.Stream) {
	var u, t []*flow.Stream
	for _, s := range streams {
		if s.Key.Proto == layers.IPProtocolTCP {
			t = append(t, s)
		} else {
			u = append(u, s)
		}
	}
	*udp = flow.Count(u)
	*tcp = flow.Count(t)
}

// pairKey returns the canonical (sorted) form of an unordered address
// pair, the key of the pre-call pair set.
func pairKey(a, b netip.Addr) [2]netip.Addr {
	if b.Compare(a) < 0 {
		a, b = b, a
	}
	return [2]netip.Addr{a, b}
}

// streamSNI extracts the SNI from the first ClientHello found in the
// stream's segments.
func streamSNI(s *flow.Stream) (string, bool) {
	for _, p := range s.Packets {
		if len(p.Payload) == 0 {
			continue
		}
		if sni, err := tlsinspect.SNI(p.Payload); err == nil {
			return sni, true
		}
	}
	return "", false
}

// MatchesBlocklist reports whether sni matches a blocklist entry
// exactly or as a parent domain.
func MatchesBlocklist(sni string, blocklist []string) bool {
	for _, d := range blocklist {
		if sni == d || strings.HasSuffix(sni, "."+d) {
			return true
		}
	}
	return false
}

// isLocalScope reports whether an address is IPv6 link-local
// (fe80::/10), unique-local (fc00::/7), IPv4 private, or multicast —
// the scopes §3.2.2's local-IP rule targets.
func isLocalScope(a netip.Addr) bool {
	return a.IsLinkLocalUnicast() || a.IsLinkLocalMulticast() || a.IsMulticast() ||
		a.IsPrivate()
}
