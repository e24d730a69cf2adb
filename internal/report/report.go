// Package report aggregates per-message compliance verdicts into the
// paper's two metrics and renders every table and figure of the
// evaluation section as text.
//
// The volume-based metric (§5.1.1) is the fraction of compliant
// messages over all extracted messages. The message-type-based metric
// (§5.1.2) treats each distinct message type as the unit and marks it
// compliant only if every observed instance conforms. Fully proprietary
// datagrams count as message units for the distribution tables (Table
// 2, Figure 3) but are excluded from the compliance ratios, as the
// paper does — they are not protocol messages.
package report

import (
	"fmt"
	"sort"
	"strings"

	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// TypeStat tracks one message type under the type-based metric.
type TypeStat struct {
	Total        int
	NonCompliant int
	// Reasons tallies distinct violation reasons.
	Reasons map[string]int
}

// Compliant reports whether the type passes the message-type metric.
func (t *TypeStat) Compliant() bool { return t.NonCompliant == 0 }

// TopReason returns the type's most frequent violation reason, ties
// going to the lexically smallest, or "" when it has none: the one
// reason a summary names for the type, the same on every run.
func (t *TypeStat) TopReason() string {
	best, bestN := "", 0
	for r, n := range t.Reasons {
		if n > bestN || (n == bestN && r < best) {
			best, bestN = r, n
		}
	}
	return best
}

// ProtoStat tracks one protocol family under the volume metric.
type ProtoStat struct {
	Messages  int
	Compliant int
	Bytes     int
}

// AppStats aggregates everything measured for one application.
type AppStats struct {
	App string
	// ByProtocol holds volume-metric counters per protocol family.
	ByProtocol map[dpi.Protocol]*ProtoStat
	// Types holds type-metric counters keyed by protocol family + label.
	Types map[compliance.TypeKey]*TypeStat
	// Datagrams counts DPI classifications.
	Datagrams map[dpi.Class]int
	// Violations tallies criterion → count.
	Violations map[compliance.Criterion]int
}

// NewAppStats returns empty statistics for an app.
func NewAppStats(app string) *AppStats {
	return &AppStats{
		App:        app,
		ByProtocol: make(map[dpi.Protocol]*ProtoStat),
		Types:      make(map[compliance.TypeKey]*TypeStat),
		Datagrams:  make(map[dpi.Class]int),
		Violations: make(map[compliance.Criterion]int),
	}
}

// AddChecked folds one compliance verdict into the statistics.
func (a *AppStats) AddChecked(c compliance.Checked) {
	fam := c.Protocol.Family()
	ps := a.ByProtocol[fam]
	if ps == nil {
		ps = &ProtoStat{}
		a.ByProtocol[fam] = ps
	}
	ps.Messages++
	ps.Bytes += c.Bytes
	if c.Verdict.Compliant {
		ps.Compliant++
	} else {
		a.Violations[c.Verdict.Failed]++
	}
	ts := a.Types[c.Type]
	if ts == nil {
		ts = &TypeStat{Reasons: make(map[string]int)}
		a.Types[c.Type] = ts
	}
	ts.Total++
	if !c.Verdict.Compliant {
		ts.NonCompliant++
		ts.Reasons[c.Verdict.Reason]++
	}
}

// AddDatagram records a DPI classification.
func (a *AppStats) AddDatagram(class dpi.Class) { a.Datagrams[class]++ }

// MessageUnits counts message units for distribution tables: extracted
// messages plus fully proprietary datagrams.
func (a *AppStats) MessageUnits() int {
	n := a.Datagrams[dpi.ClassFullyProprietary]
	for _, ps := range a.ByProtocol {
		n += ps.Messages
	}
	return n
}

// VolumeCompliance returns the volume-based compliance ratio over
// extracted messages (fully proprietary datagrams excluded), and false
// when no messages were extracted.
func (a *AppStats) VolumeCompliance() (float64, bool) {
	var total, compliant int
	for _, ps := range a.ByProtocol {
		total += ps.Messages
		compliant += ps.Compliant
	}
	if total == 0 {
		return 0, false
	}
	return float64(compliant) / float64(total), true
}

// TypeCompliance returns compliant and total type counts for a protocol
// family (dpi.ProtoUnknown aggregates all families).
func (a *AppStats) TypeCompliance(fam dpi.Protocol) (compliant, total int) {
	for key, ts := range a.Types {
		if fam != dpi.ProtoUnknown && key.Protocol != fam {
			continue
		}
		total++
		if ts.Compliant() {
			compliant++
		}
	}
	return compliant, total
}

// TypesOf lists the observed type labels for a family, split by
// compliance, each sorted.
func (a *AppStats) TypesOf(fam dpi.Protocol) (compliant, nonCompliant []string) {
	for key, ts := range a.Types {
		if key.Protocol != fam {
			continue
		}
		if ts.Compliant() {
			compliant = append(compliant, key.Label)
		} else {
			nonCompliant = append(nonCompliant, key.Label)
		}
	}
	sort.Strings(compliant)
	sort.Strings(nonCompliant)
	return compliant, nonCompliant
}

// Aggregate holds statistics for every application plus the
// protocol-centric rollup. Its renderers derive the protocol columns
// from the registry it was built with, so a newly registered protocol
// appears in every table without renderer edits.
type Aggregate struct {
	order []string
	apps  map[string]*AppStats
	reg   *proto.Registry
}

// NewAggregate returns an empty aggregate rendering against the default
// protocol registry.
func NewAggregate() *Aggregate { return NewAggregateWith(nil) }

// NewAggregateWith returns an empty aggregate rendering against the
// given registry (nil selects the default registry).
func NewAggregateWith(reg *proto.Registry) *Aggregate {
	return &Aggregate{apps: make(map[string]*AppStats), reg: reg}
}

func (g *Aggregate) registry() *proto.Registry {
	if g.reg != nil {
		return g.reg
	}
	return proto.Default()
}

// FamilyName returns the display name for a protocol-family column.
// Families observed in the data but not registered render a stable
// placeholder instead of dropping the data silently.
func (g *Aggregate) FamilyName(fam dpi.Protocol) string {
	if m, ok := g.registry().Meta(fam); ok {
		return m.Name
	}
	return fmt.Sprintf("protocol %d", fam)
}

// Families lists every candidate protocol-family column: the registered
// families in report order, followed by any family observed in app data
// without a registration, sorted by ID for stability.
func (g *Aggregate) Families() []dpi.Protocol {
	fams := g.registry().Families()
	seen := make(map[dpi.Protocol]bool, len(fams))
	for _, f := range fams {
		seen[f] = true
	}
	var extra []dpi.Protocol
	for _, app := range g.Apps() {
		for fam := range app.ByProtocol {
			if !seen[fam] {
				seen[fam] = true
				extra = append(extra, fam)
			}
		}
		for key := range app.Types {
			if !seen[key.Protocol] {
				seen[key.Protocol] = true
				extra = append(extra, key.Protocol)
			}
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	return append(fams, extra...)
}

// ActiveFamilies lists the families with any observed data — the
// columns the tables render. A registered protocol that never appears
// in a capture set (DTLS in a capture matrix without DTLS traffic) is
// omitted rather than rendered as an all-N/A column.
func (g *Aggregate) ActiveFamilies() []dpi.Protocol {
	var out []dpi.Protocol
	for _, fam := range g.Families() {
		active := false
		for _, app := range g.Apps() {
			if ps := app.ByProtocol[fam]; ps != nil && ps.Messages > 0 {
				active = true
				break
			}
			if _, tot := app.TypeCompliance(fam); tot > 0 {
				active = true
				break
			}
		}
		if active {
			out = append(out, fam)
		}
	}
	return out
}

// App returns (creating if needed) the statistics for an app.
func (g *Aggregate) App(app string) *AppStats {
	s, ok := g.apps[app]
	if !ok {
		s = NewAppStats(app)
		g.apps[app] = s
		g.order = append(g.order, app)
	}
	return s
}

// Apps lists the apps in first-seen order.
func (g *Aggregate) Apps() []*AppStats {
	out := make([]*AppStats, 0, len(g.order))
	for _, name := range g.order {
		out = append(out, g.apps[name])
	}
	return out
}

// ProtocolRollup merges every app's counters for one protocol family,
// used by the protocol-centric halves of Figures 4 and 5 and the bottom
// row of Table 3. Message types used by multiple applications count
// once per application, as the paper specifies.
func (g *Aggregate) ProtocolRollup(fam dpi.Protocol) (vol ProtoStat, typesCompliant, typesTotal int) {
	for _, app := range g.Apps() {
		if ps := app.ByProtocol[fam]; ps != nil {
			vol.Messages += ps.Messages
			vol.Compliant += ps.Compliant
			vol.Bytes += ps.Bytes
		}
		c, t := app.TypeCompliance(fam)
		typesCompliant += c
		typesTotal += t
	}
	return vol, typesCompliant, typesTotal
}

// table is a minimal text-table builder with right-padded columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func pct(num, den int) string {
	if den == 0 {
		return "N/A"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

func ratio(c, t int) string {
	if t == 0 {
		return "N/A"
	}
	return fmt.Sprintf("%d/%d", c, t)
}
