// Package interop turns compliance measurements into the
// interoperability assessment of the paper's discussion (§6).
//
// The EU Digital Markets Act requires large RTC platforms to support
// cross-application calls by 2028. The paper argues compliance is the
// practical path there, and that today's deviations mean "each
// application would need to implement bespoke parsers to handle the
// protocol quirks of every other application". This package quantifies
// that: from an application's measured statistics it derives the set of
// adaptation shims a standards-only peer would need to process its
// traffic, and scores pairwise integration effort.
package interop

import (
	"fmt"
	"sort"
	"strings"

	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/report"
)

// ShimKind classifies an adaptation a receiving implementation needs.
type ShimKind string

// Shim kinds, roughly ordered by engineering weight.
const (
	// ShimHeaderStripper removes a proprietary encapsulation before the
	// standard message (Zoom's SFU header, FaceTime's 0x6000 framing).
	ShimHeaderStripper ShimKind = "proprietary-header-stripper"
	// ShimProprietaryProtocol handles datagrams with no standard
	// message at all (Zoom filler, FaceTime keepalives).
	ShimProprietaryProtocol ShimKind = "fully-proprietary-protocol"
	// ShimTypeRegistry accepts undefined message types (WhatsApp's
	// 0x0800 family).
	ShimTypeRegistry ShimKind = "undefined-type-registry"
	// ShimAttributeTolerance ignores or interprets undefined attributes
	// and extension profiles.
	ShimAttributeTolerance ShimKind = "undefined-attribute-tolerance"
	// ShimValueNormalization fixes up malformed values in defined
	// attributes (bad address families, misplaced attributes).
	ShimValueNormalization ShimKind = "attribute-value-normalization"
	// ShimBehavioralAdapter reworks semantic deviations (keepalive via
	// Binding Requests, Allocate ping-pong, missing SRTCP auth tags,
	// proprietary trailers).
	ShimBehavioralAdapter ShimKind = "behavioral-adapter"
)

// shimWeights approximate relative engineering cost.
var shimWeights = map[ShimKind]float64{
	ShimHeaderStripper:      3,
	ShimProprietaryProtocol: 4,
	ShimTypeRegistry:        2,
	ShimAttributeTolerance:  1,
	ShimValueNormalization:  1.5,
	ShimBehavioralAdapter:   3.5,
}

// Shim is one adaptation requirement with supporting evidence.
type Shim struct {
	Kind ShimKind
	// Evidence lists the message types (or datagram classes) that
	// demand it.
	Evidence []string
	// AffectedShare is the fraction of the app's message units needing
	// this shim.
	AffectedShare float64
}

// Weight returns the shim's effort contribution.
func (s Shim) Weight() float64 {
	return shimWeights[s.Kind] * (0.5 + s.AffectedShare)
}

// Profile is one application's interoperability profile.
type Profile struct {
	App string
	// SpecParseable is the fraction of datagrams a standards-only
	// parser recognizes (standard class).
	SpecParseable float64
	// MessageCompliance is the volume-based compliance ratio.
	MessageCompliance float64
	// Shims lists required adaptations, heaviest first.
	Shims []Shim
}

// EffortScore sums shim weights — the bespoke-parser burden a peer
// takes on to interoperate with this app.
func (p Profile) EffortScore() float64 {
	total := 0.0
	for _, s := range p.Shims {
		total += s.Weight()
	}
	return total
}

// OutOfTheBox is the probability that a random message unit from this
// app is processable by a pure-RFC peer: parseable and compliant.
func (p Profile) OutOfTheBox() float64 {
	return p.SpecParseable * p.MessageCompliance
}

// BuildProfile derives a profile from measured statistics.
func BuildProfile(stats *report.AppStats) Profile {
	prof := Profile{App: stats.App}
	totalDgrams := 0
	for _, n := range stats.Datagrams {
		totalDgrams += n
	}
	if totalDgrams > 0 {
		prof.SpecParseable = float64(stats.Datagrams[dpi.ClassStandard]) / float64(totalDgrams)
	}
	if r, ok := stats.VolumeCompliance(); ok {
		prof.MessageCompliance = r
	}

	units := stats.MessageUnits()
	evid := map[ShimKind][]string{}
	affected := map[ShimKind]int{}

	if n := stats.Datagrams[dpi.ClassProprietaryHeader]; n > 0 {
		evid[ShimHeaderStripper] = append(evid[ShimHeaderStripper], "proprietary-header datagrams")
		affected[ShimHeaderStripper] += n
	}
	if n := stats.Datagrams[dpi.ClassFullyProprietary]; n > 0 {
		evid[ShimProprietaryProtocol] = append(evid[ShimProprietaryProtocol], "fully-proprietary datagrams")
		affected[ShimProprietaryProtocol] += n
	}
	for key, ts := range stats.Types {
		if ts.Compliant() {
			continue
		}
		kind := classify(ts)
		evid[kind] = append(evid[kind], key.String())
		affected[kind] += ts.NonCompliant
	}

	for kind, ev := range evid {
		sort.Strings(ev)
		share := 0.0
		if units > 0 {
			share = float64(affected[kind]) / float64(units)
		}
		prof.Shims = append(prof.Shims, Shim{Kind: kind, Evidence: ev, AffectedShare: share})
	}
	sort.Slice(prof.Shims, func(i, j int) bool {
		if prof.Shims[i].Weight() != prof.Shims[j].Weight() {
			return prof.Shims[i].Weight() > prof.Shims[j].Weight()
		}
		return prof.Shims[i].Kind < prof.Shims[j].Kind
	})
	return prof
}

// classify maps a non-compliant type's dominant criterion to a shim.
func classify(ts *report.TypeStat) ShimKind {
	// Infer the criterion from the most frequent reason's phrasing
	// (reasons are produced by the compliance package).
	best := ts.TopReason()
	switch {
	case strings.Contains(best, "message type"), strings.Contains(best, "packet type"):
		return ShimTypeRegistry
	case strings.Contains(best, "is not defined"), strings.Contains(best, "is not assigned"),
		strings.Contains(best, "profile"), strings.Contains(best, "reserved ID"):
		return ShimAttributeTolerance
	case strings.Contains(best, "invalid"), strings.Contains(best, "not permitted"),
		strings.Contains(best, "request-only"), strings.Contains(best, "address family"),
		strings.Contains(best, "overrun"):
		return ShimValueNormalization
	default:
		return ShimBehavioralAdapter
	}
}

// Assessment scores one directed or mutual pairing.
type Assessment struct {
	A, B string
	// OutOfTheBox is the joint probability both directions process
	// without adaptation.
	OutOfTheBox float64
	// Effort is the combined shim burden of supporting each other.
	Effort float64
	// Shims is the union of both sides' requirements.
	Shims []ShimKind
}

// Pairwise assesses mutual interoperability between two profiles.
func Pairwise(a, b Profile) Assessment {
	kinds := map[ShimKind]bool{}
	for _, s := range a.Shims {
		kinds[s.Kind] = true
	}
	for _, s := range b.Shims {
		kinds[s.Kind] = true
	}
	var union []ShimKind
	for k := range kinds {
		union = append(union, k)
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	return Assessment{
		A:           a.App,
		B:           b.App,
		OutOfTheBox: a.OutOfTheBox() * b.OutOfTheBox(),
		Effort:      a.EffortScore() + b.EffortScore(),
		Shims:       union,
	}
}

// Matrix assesses every ordered pair from an aggregate, in app order.
func Matrix(g *report.Aggregate) []Assessment {
	apps := g.Apps()
	profiles := make([]Profile, len(apps))
	for i, s := range apps {
		profiles[i] = BuildProfile(s)
	}
	var out []Assessment
	for i := range profiles {
		for j := range profiles {
			if i == j {
				continue
			}
			out = append(out, Pairwise(profiles[i], profiles[j]))
		}
	}
	return out
}

// Describe renders a profile as text.
func Describe(p Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.1f%% spec-parseable, %.1f%% message compliance, effort score %.1f\n",
		p.App, 100*p.SpecParseable, 100*p.MessageCompliance, p.EffortScore())
	for _, s := range p.Shims {
		fmt.Fprintf(&b, "  needs %-32s (%.1f%% of traffic; e.g. %s)\n",
			string(s.Kind), 100*s.AffectedShare, strings.Join(firstN(s.Evidence, 3), ", "))
	}
	return b.String()
}

func firstN(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// criterionOf maps a single violation reason to the shim the classifier
// would choose (test helper).
func criterionOf(reason string) ShimKind {
	return classify(&report.TypeStat{NonCompliant: 1, Reasons: map[string]int{reason: 1}})
}
