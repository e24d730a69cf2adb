package natsim

import (
	"math/rand/v2"
	"net/netip"
	"time"

	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/metrics"
)

// Profile is one composable network-impairment profile. Each knob is
// independent; the zero Profile is a transparent pass-through. Impair
// applies the active knobs to a datagram sequence deterministically:
// the same (seed, input) pair always yields the same output, byte for
// byte, which is what lets the differential test matrix pin compliance
// verdicts under impairment.
//
// Impairment models the UDP media path between the device and its
// peer. TCP segments (signaling, background bulk) pass through
// untouched: their transport retransmits below the capture point, so
// loss and reordering there are invisible to an on-device capture.
type Profile struct {
	// Name labels the profile in metrics, fixtures, and manifests.
	Name string

	// Loss is the i.i.d. drop probability in [0, 1) applied in the
	// Gilbert–Elliott good state (or always, when the chain is off).
	Loss float64

	// GoodBad, BadGood, and BadLoss parameterize Gilbert–Elliott burst
	// loss: a two-state chain advances once per UDP datagram, entering
	// the bad state with probability GoodBad and leaving it with
	// probability BadGood; datagrams seen in the bad state drop with
	// probability BadLoss. The chain is enabled when either transition
	// probability is positive.
	GoodBad float64
	BadGood float64
	BadLoss float64

	// Jitter adds an independent uniform queueing delay in [0, Jitter)
	// to each UDP datagram. Reordering is bounded by construction: a
	// datagram can only be overtaken by datagrams sent within Jitter
	// of it.
	Jitter time.Duration

	// Reorder is the probability a datagram takes a late spike on top
	// of its jitter — an extra delay in [1ms, 1ms+ReorderDelay) —
	// displacing it past several successors.
	Reorder float64
	// ReorderDelay bounds the spike; zero selects 8ms.
	ReorderDelay time.Duration

	// Dup is the probability a datagram is delivered twice; the copy
	// shares the original payload bytes and arrives DupDelay later.
	Dup float64
	// DupDelay delays the duplicate; zero selects 2ms.
	DupDelay time.Duration

	// Rebind schedules this many mid-call NAT rebinding events, spread
	// evenly across the input's time span. At each event the NAT in
	// front of RebindAddr allocates fresh external ports, so every UDP
	// flow touching that address continues on a new 5-tuple — the
	// mid-call stream split real mobile networks produce.
	Rebind int
	// RebindAddr is the client whose mapping rebinds. The zero Addr
	// auto-selects the dominant UDP source address (the device).
	RebindAddr netip.Addr
}

// Active reports whether any impairment knob is set.
func (p Profile) Active() bool {
	return p.Loss > 0 || p.GoodBad > 0 || p.BadGood > 0 ||
		p.Jitter > 0 || p.Reorder > 0 || p.Dup > 0 || p.Rebind > 0
}

// Label returns the profile's metrics/fixture label.
func (p Profile) Label() string {
	if p.Name != "" {
		return p.Name
	}
	return "custom"
}

// gilbert reports whether the burst-loss chain is enabled.
func (p Profile) gilbert() bool { return p.GoodBad > 0 || p.BadGood > 0 }

// ImpairStats is the accounting of one Impair run. Out is always
// In - Dropped + Duplicated.
type ImpairStats struct {
	In, Out    int
	Dropped    int
	Duplicated int
	// Reordered counts output datagrams delivered after a datagram
	// that followed them in the input (inversions witnessed left to
	// right).
	Reordered int
	// Rebound counts datagrams whose 5-tuple was rewritten by a NAT
	// rebinding event.
	Rebound int
}

// Publish folds the accounting into per-profile impairment counters.
// A nil registry is a no-op, matching the pipeline's metrics contract.
func (s ImpairStats) Publish(reg *metrics.Registry, profile string) {
	if reg == nil {
		return
	}
	l := metrics.L("profile", profile)
	reg.Counter("natsim_impair_in_total", l).Add(uint64(s.In))
	reg.Counter("natsim_impair_out_total", l).Add(uint64(s.Out))
	reg.Counter("natsim_impair_dropped_total", l).Add(uint64(s.Dropped))
	reg.Counter("natsim_impair_duplicated_total", l).Add(uint64(s.Duplicated))
	reg.Counter("natsim_impair_reordered_total", l).Add(uint64(s.Reordered))
	reg.Counter("natsim_impair_rebound_total", l).Add(uint64(s.Rebound))
}

// Impair applies the profile to a datagram sequence. See
// ImpairWithStats.
func (p Profile) Impair(seed uint64, in []Datagram) []Datagram {
	out, _ := p.ImpairWithStats(seed, in)
	return out
}

// ImpairWithStats applies the profile to a datagram sequence and
// reports the accounting. The input is not modified; output datagrams
// reference the input payload slices — the stage drops, delays,
// duplicates, and re-addresses datagrams but never fabricates or edits
// payload bytes (FuzzImpair enforces this). Output is sorted by
// delivery time, stably, so equal timestamps keep input order and the
// whole transform is a pure function of (profile, seed, input).
func (p Profile) ImpairWithStats(seed uint64, in []Datagram) ([]Datagram, ImpairStats) {
	st := ImpairStats{In: len(in)}
	if len(in) == 0 {
		return nil, st
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x696d70616972)) // "impair"

	rebinds, rebindAddr := p.rebindSchedule(in)

	// out[j] came from in[src[j]].
	out := make([]Datagram, 0, len(in)+len(in)/16)
	src := make([]int, 0, cap(out))
	good := true
	for i, d := range in {
		if d.Proto != layers.IPProtocolUDP {
			out, src = append(out, d), append(src, i)
			continue
		}
		if p.gilbert() {
			if good {
				good = rng.Float64() >= p.GoodBad
			} else {
				good = rng.Float64() < p.BadGood
			}
		}
		lossP := p.Loss
		if p.gilbert() && !good {
			lossP = p.BadLoss
		}
		if lossP > 0 && rng.Float64() < lossP {
			st.Dropped++
			continue
		}
		if epoch := epochAt(rebinds, d.At); epoch > 0 {
			rebound := false
			if d.Src.Addr() == rebindAddr {
				d.Src = netip.AddrPortFrom(d.Src.Addr(), reboundPort(seed, epoch, d.Src.Port()))
				rebound = true
			}
			if d.Dst.Addr() == rebindAddr {
				d.Dst = netip.AddrPortFrom(d.Dst.Addr(), reboundPort(seed, epoch, d.Dst.Port()))
				rebound = true
			}
			if rebound {
				st.Rebound++
			}
		}
		if p.Jitter > 0 {
			d.At = d.At.Add(time.Duration(rng.Int64N(int64(p.Jitter))))
		}
		if p.Reorder > 0 && rng.Float64() < p.Reorder {
			spike := p.ReorderDelay
			if spike <= 0 {
				spike = 8 * time.Millisecond
			}
			d.At = d.At.Add(time.Millisecond + time.Duration(rng.Int64N(int64(spike))))
		}
		out, src = append(out, d), append(src, i)
		if p.Dup > 0 && rng.Float64() < p.Dup {
			dup := d
			delay := p.DupDelay
			if delay <= 0 {
				delay = 2 * time.Millisecond
			}
			dup.At = dup.At.Add(delay)
			out, src = append(out, dup), append(src, i)
			st.Duplicated++
		}
	}

	sortByTime(out, src)
	maxIdx := -1
	for _, idx := range src {
		if idx < maxIdx {
			st.Reordered++
		} else {
			maxIdx = idx
		}
	}
	st.Out = len(out)
	return out, st
}

// rebindSchedule spreads the configured rebind events across the
// input's time span and resolves the rebinding address.
func (p Profile) rebindSchedule(in []Datagram) ([]time.Time, netip.Addr) {
	if p.Rebind <= 0 {
		return nil, netip.Addr{}
	}
	first, last := in[0].At, in[0].At
	for _, d := range in {
		if d.At.Before(first) {
			first = d.At
		}
		if d.At.After(last) {
			last = d.At
		}
	}
	span := last.Sub(first)
	times := make([]time.Time, 0, p.Rebind)
	for i := 0; i < p.Rebind; i++ {
		times = append(times, first.Add(span*time.Duration(i+1)/time.Duration(p.Rebind+1)))
	}
	addr := p.RebindAddr
	if !addr.IsValid() {
		addr = dominantUDPSource(in)
	}
	return times, addr
}

// epochAt counts the rebind events at or before t.
func epochAt(rebinds []time.Time, t time.Time) int {
	epoch := 0
	for _, rt := range rebinds {
		if !t.Before(rt) {
			epoch++
		}
	}
	return epoch
}

// reboundPort derives the fresh external port a NAT allocates for one
// internal port after the given rebind epoch. The FNV-style mix makes
// the mapping deterministic and independent of the order flows are
// encountered; the 20000–39999 range stays clear of the simulators'
// media, relay, and ephemeral port choices.
func reboundPort(seed uint64, epoch int, port uint16) uint16 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{seed, uint64(epoch), uint64(port)} {
		h ^= v
		h *= 1099511628211
	}
	return uint16(20000 + h%20000)
}

// dominantUDPSource returns the most frequent UDP source address —
// the capture device, in an on-device capture. Ties break toward the
// lower address so the choice never depends on map iteration order.
func dominantUDPSource(in []Datagram) netip.Addr {
	counts := make(map[netip.Addr]int)
	var best netip.Addr
	bestN := 0
	for _, d := range in {
		if d.Proto != layers.IPProtocolUDP {
			continue
		}
		a := d.Src.Addr()
		counts[a]++
		if counts[a] > bestN || (counts[a] == bestN && best.IsValid() && a.Compare(best) < 0) {
			best, bestN = a, counts[a]
		}
	}
	return best
}

// StandardProfiles lists the named impairment profiles the matrix
// suites and rtcgen -impair use: a clean reference plus five adverse
// profiles covering every knob.
func StandardProfiles() []Profile {
	return []Profile{
		{Name: "clean"},
		{Name: "loss2", Loss: 0.02},
		// ≈9% of time in the bad state at 50% drop ≈ 5% burst loss.
		{Name: "burst5", GoodBad: 0.03, BadGood: 0.3, BadLoss: 0.5},
		{Name: "jitter30", Jitter: 30 * time.Millisecond, Reorder: 0.05},
		{Name: "dup3", Dup: 0.03, Jitter: 2 * time.Millisecond},
		{Name: "rebind2", Rebind: 2, Jitter: time.Millisecond},
	}
}

// AdverseProfiles lists the standard profiles that actually impair
// (everything but clean).
func AdverseProfiles() []Profile {
	all := StandardProfiles()
	out := all[:0]
	for _, p := range all {
		if p.Active() {
			out = append(out, p)
		}
	}
	return out
}

// ProfileByName resolves a standard profile by name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range StandardProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
