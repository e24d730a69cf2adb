package proto

import (
	"testing"
	"time"
)

// fakeHandler is a minimal registrable handler for registry mechanics
// tests, independent of the real drivers.
type fakeHandler struct {
	meta    Meta
	probers []Prober
}

func (h fakeHandler) Meta() Meta        { return h.meta }
func (h fakeHandler) Probers() []Prober { return h.probers }
func (h fakeHandler) Comply(dst []Checked, _ Message, _ time.Time, _ *Session) []Checked {
	return dst
}

func noopValidate(Candidate, *StreamState, *Message) bool { return false }

func TestRegisterSortsProbersAndFillsIDs(t *testing.T) {
	r := NewRegistry()
	r.Register(fakeHandler{
		meta: Meta{ID: RTP, Name: "b", Order: 2},
		probers: []Prober{
			{Precedence: 60, Validate: noopValidate},
		},
	})
	r.Register(fakeHandler{
		meta: Meta{ID: STUN, Name: "a", Order: 1},
		probers: []Prober{
			{Precedence: 50, Validate: noopValidate},
			{Precedence: 10, Validate: noopValidate},
		},
	})
	ps := r.Probers()
	if len(ps) != 3 {
		t.Fatalf("probers = %d, want 3", len(ps))
	}
	wantPrec := []int{10, 50, 60}
	wantID := []ID{STUN, STUN, RTP}
	for i := range ps {
		if ps[i].Precedence != wantPrec[i] || ps[i].ID != wantID[i] {
			t.Errorf("prober %d = id %d prec %d, want id %d prec %d",
				i, ps[i].ID, ps[i].Precedence, wantID[i], wantPrec[i])
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Register(fakeHandler{meta: Meta{ID: RTP, Name: "rtp"}})
	mustPanic("duplicate ID", func() {
		r.Register(fakeHandler{meta: Meta{ID: RTP, Name: "again"}})
	})
	mustPanic("unknown ID", func() {
		r.Register(fakeHandler{meta: Meta{ID: Unknown, Name: "zero"}})
	})
	mustPanic("out-of-range ID", func() {
		r.Register(fakeHandler{meta: Meta{ID: MaxIDs, Name: "high"}})
	})
}

func TestFamilyDefaultsToSelf(t *testing.T) {
	r := NewRegistry()
	r.Register(fakeHandler{meta: Meta{ID: QUIC, Name: "quic"}})
	m, ok := r.Meta(QUIC)
	if !ok || m.Family != QUIC {
		t.Errorf("family = %v, want %v", m.Family, QUIC)
	}
}

func TestMetasSortByOrderThenID(t *testing.T) {
	r := NewRegistry()
	r.Register(fakeHandler{meta: Meta{ID: DTLS, Name: "d", Order: 5}})
	r.Register(fakeHandler{meta: Meta{ID: ChannelData, Name: "cd", Family: STUN, Order: 1}})
	r.Register(fakeHandler{meta: Meta{ID: STUN, Name: "s", Order: 1}})
	r.Register(fakeHandler{meta: Meta{ID: RTP, Name: "r", Order: 2}})
	var got []ID
	for _, m := range r.Metas() {
		got = append(got, m.ID)
	}
	want := []ID{STUN, ChannelData, RTP, DTLS}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("metas order = %v, want %v", got, want)
		}
	}
	fams := r.Families()
	wantFams := []ID{STUN, RTP, DTLS}
	if len(fams) != len(wantFams) {
		t.Fatalf("families = %v, want %v", fams, wantFams)
	}
	for i := range wantFams {
		if fams[i] != wantFams[i] {
			t.Fatalf("families = %v, want %v", fams, wantFams)
		}
	}
}

func TestFirstByteTables(t *testing.T) {
	r := NewRegistry()
	r.Register(fakeHandler{
		meta: Meta{ID: STUN, Name: "gated"},
		probers: []Prober{{
			Precedence: 10,
			Pass1:      true,
			First:      func(b byte) bool { return b < 0x40 },
			Probe:      ConsumeProbe(noopValidate),
			Validate:   noopValidate,
		}},
	})
	r.Register(fakeHandler{
		meta: Meta{ID: RTP, Name: "ungated"},
		probers: []Prober{{
			Precedence: 60,
			Validate:   noopValidate,
		}},
	})
	// A nil First admits every byte; a gate restricts its prober to its
	// slice of the first-byte space.
	if got := len(r.ProbersFor(0x00)); got != 2 {
		t.Errorf("ProbersFor(0x00) = %d probers, want 2", got)
	}
	if got := r.ProbersFor(0x80); len(got) != 1 || got[0].ID != RTP {
		t.Errorf("ProbersFor(0x80) = %v, want just the ungated prober", got)
	}
	// Pass-1 tables only list probers with Pass1 set and a Probe.
	if got := len(r.Pass1ProbersFor(0x00)); got != 1 {
		t.Errorf("Pass1ProbersFor(0x00) = %d probers, want 1", got)
	}
	if got := len(r.Pass1ProbersFor(0x80)); got != 0 {
		t.Errorf("Pass1ProbersFor(0x80) = %d probers, want 0", got)
	}
	// Admitted probers keep precedence order.
	ps := r.ProbersFor(0x10)
	if len(ps) != 2 || ps[0].Precedence != 10 || ps[1].Precedence != 60 {
		t.Errorf("ProbersFor(0x10) out of precedence order: %v", ps)
	}
}

func TestWithoutDropsHandlerAndRebuildsTables(t *testing.T) {
	r := NewRegistry()
	r.Register(fakeHandler{
		meta:    Meta{ID: STUN, Name: "s", Order: 1},
		probers: []Prober{{Precedence: 10, Validate: noopValidate}},
	})
	r.Register(fakeHandler{
		meta:    Meta{ID: DTLS, Name: "d", Order: 5},
		probers: []Prober{{Precedence: 45, First: func(b byte) bool { return b >= 20 && b <= 63 }, Validate: noopValidate}},
	})
	sub := r.Without(DTLS)
	if sub.Handler(DTLS) != nil {
		t.Error("Without kept the dropped handler")
	}
	if sub.Handler(STUN) == nil {
		t.Error("Without dropped a kept handler")
	}
	for _, p := range sub.ProbersFor(22) {
		if p.ID == DTLS {
			t.Error("Without left the dropped protocol in the first-byte table")
		}
	}
	// The original registry is untouched.
	if r.Handler(DTLS) == nil || len(r.ProbersFor(22)) != 2 {
		t.Error("Without mutated the source registry")
	}
}

func TestIDStringFallback(t *testing.T) {
	if got := ID(MaxIDs - 1).String(); got != "unknown" {
		t.Errorf("unregistered ID String() = %q, want %q", got, "unknown")
	}
	if got := ID(MaxIDs - 1).Family(); got != ID(MaxIDs-1) {
		t.Errorf("unregistered ID Family() = %v, want itself", got)
	}
}
