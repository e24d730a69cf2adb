package proto

import (
	"fmt"
	"sort"
)

// Registry holds a set of protocol handlers and the derived lookup
// structures the engines iterate. Registration happens at init time
// (drivers self-register into the default registry) or explicitly via
// NewRegistry + Register; a registry is read-only once in use.
type Registry struct {
	handlers  [MaxIDs]Handler
	metas     [MaxIDs]*Meta
	accepters [MaxIDs]Accepter
	observers [MaxIDs]Observer
	ids       []ID
	probers   []Prober
	// table and pass1Table index probers by the first payload byte
	// (RFC 7983-style demultiplexing): entry b lists, in precedence
	// order, the probers whose First fingerprint admits byte b. The
	// scan loops consult them so each offset only tries probers whose
	// wire format can start there.
	table      [256][]Prober
	pass1Table [256][]Prober
	// pass1Plan is pass 1's scan plan, built from the pass-1 probers'
	// gates; pass2Plan is pass 2's, built from every prober's Needs.
	pass1Plan ScanPlan
	pass2Plan ScanPlan
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that drivers self-register
// into. Engines use it when no explicit registry is configured.
func Default() *Registry { return defaultRegistry }

// Register adds a handler to the default registry; drivers call it from
// init. It panics on an invalid or duplicate registration.
func Register(h Handler) { defaultRegistry.Register(h) }

// Register adds a handler to the registry. It panics on a duplicate or
// out-of-range ID — registration errors are programming errors.
func (r *Registry) Register(h Handler) {
	m := h.Meta()
	if m.ID == Unknown || int(m.ID) >= MaxIDs {
		panic(fmt.Sprintf("proto: handler %q has invalid ID %d", m.Name, m.ID))
	}
	if r.handlers[m.ID] != nil {
		panic(fmt.Sprintf("proto: duplicate registration for ID %d (%q)", m.ID, m.Name))
	}
	if m.Family == Unknown {
		m.Family = m.ID
	}
	r.handlers[m.ID] = h
	r.metas[m.ID] = &m
	if a, ok := h.(Accepter); ok {
		r.accepters[m.ID] = a
	}
	if o, ok := h.(Observer); ok {
		r.observers[m.ID] = o
	}
	r.ids = append(r.ids, m.ID)
	for _, p := range h.Probers() {
		for _, g := range []Gate{p.Gate, p.Needs.Gate} {
			if g.Want&^g.Mask != 0 {
				panic(fmt.Sprintf("proto: handler %q declares a gate that admits nothing (%#x/%#x)", m.Name, g.Mask, g.Want))
			}
		}
		p.ID = m.ID
		r.probers = append(r.probers, p)
	}
	sort.SliceStable(r.probers, func(i, j int) bool {
		return r.probers[i].Precedence < r.probers[j].Precedence
	})
	r.rebuildTables()
}

// rebuildTables derives the first-byte dispatch tables and both scan
// plans from the sorted prober list.
func (r *Registry) rebuildTables() {
	for b := 0; b < 256; b++ {
		r.table[b] = nil
		r.pass1Table[b] = nil
		for _, p := range r.probers {
			if p.First != nil && !p.First(byte(b)) {
				continue
			}
			r.table[b] = append(r.table[b], p)
			if p.Pass1 && p.Probe != nil {
				r.pass1Table[b] = append(r.pass1Table[b], p)
			}
		}
	}
	var gates, needs []Needs
	for _, p := range r.probers {
		if p.Pass1 && p.Probe != nil {
			gates = append(gates, Needs{Gate: p.Gate})
		}
		needs = append(needs, p.Needs)
	}
	r.pass1Plan = newScanPlan(gates)
	r.pass2Plan = newScanPlan(needs)
}

// Handler returns the handler registered for an ID (nil when absent).
func (r *Registry) Handler(id ID) Handler {
	if int(id) >= MaxIDs {
		return nil
	}
	return r.handlers[id]
}

// Accepter returns the handler's post-match hook (nil when the handler
// does not implement one, or is absent).
func (r *Registry) Accepter(id ID) Accepter {
	if int(id) >= MaxIDs {
		return nil
	}
	return r.accepters[id]
}

// Meta returns the metadata registered for an ID.
func (r *Registry) Meta(id ID) (Meta, bool) {
	if int(id) >= MaxIDs || r.metas[id] == nil {
		return Meta{}, false
	}
	return *r.metas[id], true
}

// Metas lists registered protocol metadata sorted by report order, then
// ID — a stable enumeration independent of registration order.
func (r *Registry) Metas() []Meta {
	out := make([]Meta, 0, len(r.ids))
	for _, id := range r.ids {
		out = append(out, *r.metas[id])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Families lists the distinct reporting families in report order — the
// protocol column order of the paper's tables.
func (r *Registry) Families() []ID {
	var out []ID
	seen := [MaxIDs]bool{}
	for _, m := range r.Metas() {
		if !seen[m.Family] {
			seen[m.Family] = true
			out = append(out, m.Family)
		}
	}
	return out
}

// Probers lists every registered prober sorted by demultiplexing
// precedence. Callers must not mutate the returned slice.
func (r *Registry) Probers() []Prober { return r.probers }

// ProbersFor lists, in precedence order, the probers whose wire-format
// fingerprint admits a candidate starting with byte b. Callers must not
// mutate the returned slice.
func (r *Registry) ProbersFor(b byte) []Prober { return r.table[b] }

// Pass1ProbersFor is ProbersFor restricted to the stream-level pass-1
// probers.
func (r *Registry) Pass1ProbersFor(b byte) []Prober { return r.pass1Table[b] }

// Pass1Plan returns pass 1's scan plan: pass 1 need only visit the
// offsets its walks return.
func (r *Registry) Pass1Plan() *ScanPlan { return &r.pass1Plan }

// Pass2Plan returns pass 2's scan plan: pass 2 need only visit the
// offsets its walks return.
func (r *Registry) Pass2Plan() *ScanPlan { return &r.pass2Plan }

// Without returns a copy of the registry with the given protocols
// removed — the extensibility proof harness builds the engine against a
// registry without DTLS to show no engine code depends on it.
func (r *Registry) Without(ids ...ID) *Registry {
	drop := [MaxIDs]bool{}
	for _, id := range ids {
		if int(id) < MaxIDs {
			drop[id] = true
		}
	}
	out := NewRegistry()
	for _, id := range r.ids {
		if !drop[id] {
			out.Register(r.handlers[id])
		}
	}
	return out
}
