package natsim

import (
	"cmp"
	"net/netip"
	"slices"
	"time"

	"github.com/rtc-compliance/rtcc/internal/layers"
)

// Datagram is one packet as observed on a device interface: the wire
// unit the app simulators emit and the impairment stage permutes. It
// lives here (rather than in internal/appsim, which re-exports it as
// appsim.Dgram) so the network-impairment layer can transform traffic
// without depending on the application emulators above it.
type Datagram struct {
	At  time.Time
	Src netip.AddrPort
	Dst netip.AddrPort
	// Proto is UDP or TCP.
	Proto layers.IPProtocol
	// Payload is the transport payload.
	Payload []byte
	// TCPFlags is used for TCP segments.
	TCPFlags uint8
}

// SortByTime orders ds by At, stably: it yields what sort.SliceStable
// with At.Before yields. It sorts the datagrams' indexes rather than
// the datagrams and then moves each datagram once; an already-ordered
// slice is left untouched.
func SortByTime(ds []Datagram) { sortByTime(ds, nil) }

// sortByTime is SortByTime, applying the same permutation to tags when
// tags is non-nil (len(tags) == len(ds)).
func sortByTime(ds []Datagram, tags []int) {
	ordered := true
	for i := 1; i < len(ds) && ordered; i++ {
		ordered = !ds[i].At.Before(ds[i-1].At)
	}
	if ordered {
		return
	}
	// order[i] is the input index of the datagram that belongs at i.
	// Compare orders times as Before does, and the index breaks ties,
	// so no two entries compare equal and any sort yields the stable
	// order.
	order := make([]int32, len(ds))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := ds[a].At.Compare(ds[b].At); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Follow each cycle of the permutation once, marking visited
	// entries.
	for i := range order {
		if order[i] < 0 || int(order[i]) == i {
			continue
		}
		d := ds[i]
		var tag int
		if tags != nil {
			tag = tags[i]
		}
		j := i
		for {
			k := int(order[j])
			order[j] = -1
			if k == i {
				ds[j] = d
				if tags != nil {
					tags[j] = tag
				}
				break
			}
			ds[j] = ds[k]
			if tags != nil {
				tags[j] = tags[k]
			}
			j = k
		}
	}
}
