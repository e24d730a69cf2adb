package proto

import (
	"fmt"
	"sort"
)

// Registry holds a set of protocol handlers and the per-pass scan
// plans the engines iterate. Registration happens at init time
// (drivers self-register into the default registry) or explicitly via
// NewRegistry + Register; a registry is read-only once in use.
type Registry struct {
	handlers  [MaxIDs]Handler
	metas     [MaxIDs]*Meta
	accepters [MaxIDs]Accepter
	observers [MaxIDs]Observer
	ids       []ID
	probers   []Prober
	// pass1Plan is pass 1's scan plan, over the probers with a Probe;
	// pass2Plan is pass 2's, over those with a Validate.
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
		if g := p.Gate; g.Want&^g.Mask != 0 {
			panic(fmt.Sprintf("proto: handler %q declares a gate that admits nothing (%#x/%#x)", m.Name, g.Mask, g.Want))
		}
		p.ID = m.ID
		r.probers = append(r.probers, p)
	}
	sort.SliceStable(r.probers, func(i, j int) bool {
		return r.probers[i].Precedence < r.probers[j].Precedence
	})
	var pass1, pass2 []Prober
	for _, p := range r.probers {
		if p.Probe != nil {
			pass1 = append(pass1, p)
		}
		if p.Validate != nil {
			pass2 = append(pass2, p)
		}
	}
	r.pass1Plan = newScanPlan(pass1)
	r.pass2Plan = newScanPlan(pass2)
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

// Pass1Plan returns pass 1's scan plan: its probers, and walks that
// visit only the offsets where one of them could act.
func (r *Registry) Pass1Plan() *ScanPlan { return &r.pass1Plan }

// Pass2Plan returns pass 2's scan plan: its probers, and walks that
// visit only the offsets where one of them could match.
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
