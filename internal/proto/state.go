package proto

import "encoding/binary"

// StreamState carries per-stream validation state across the datagrams
// of one transport stream during pass 2. The exported fields are the
// cross-protocol evidence the paper's heuristics share between
// protocols; everything protocol-private lives in a per-ID slot.
type StreamState struct {
	// SawSTUN records that the stream carried STUN. The ChannelData
	// prober consults it: TURN ChannelData only ever flows on a socket
	// that previously carried the STUN allocation handshake.
	SawSTUN bool
	// ValidatedSSRC, when non-nil, restricts media acceptance to SSRCs
	// that survived the stream-level pass-1 validation. Nil means
	// permissive single-datagram mode. The RTCP prober cross-validates
	// unassigned packet types against it.
	ValidatedSSRC map[uint32]bool
	// Epoch counts pass-2 calls: the stream inspector bumps it at the
	// start of every pass-2 run, a Feed's or a Finalize's. Drivers that
	// arena-allocate per-message state (the RTP driver's packet slab)
	// key their recycling on it — everything extracted in epoch N is
	// dead once epoch N+1 begins, because the pipeline consumes each
	// call's results before its next call (DESIGN.md §14).
	Epoch uint64

	// words caches ValidatedWords: the validated SSRCs as of epoch
	// wordsEpoch, when the set held wordsLen entries.
	words      [][4]byte
	wordsEpoch uint64
	wordsLen   int

	slots [MaxIDs]any
}

// maxAnchorWords bounds how many validated SSRCs the scans search for
// word by word. A larger set falls back to the lane of the prober that
// declared the anchor, which keeps every scan exact at any set size.
const maxAnchorWords = 8

// ValidatedWords returns the validated SSRCs as big-endian words,
// derived once per Epoch (and again if the set's size changed), and
// false when there are more than the scans search for word by word.
// Within one epoch ValidatedSSRC may only grow; pass 1 writes it
// before the epoch's pass 2 reads it.
func (s *StreamState) ValidatedWords() ([][4]byte, bool) {
	if n := len(s.ValidatedSSRC); s.wordsEpoch != s.Epoch || s.wordsLen != n {
		s.wordsEpoch, s.wordsLen = s.Epoch, n
		s.words = s.words[:0]
		for ssrc, ok := range s.ValidatedSSRC {
			if !ok {
				continue
			}
			if len(s.words) > maxAnchorWords {
				break
			}
			var w [4]byte
			binary.BigEndian.PutUint32(w[:], ssrc)
			s.words = append(s.words, w)
		}
	}
	return s.words, len(s.words) <= maxAnchorWords
}

// Slot returns the protocol's private per-stream state (nil until the
// protocol's driver stores one with SetSlot).
func (s *StreamState) Slot(id ID) any { return s.slots[id] }

// SetSlot stores a protocol's private per-stream state.
func (s *StreamState) SetSlot(id ID, v any) { s.slots[id] = v }

// ScanState is the pass-1 state of one stream: a scratch StreamState
// for the structural matchers (kept permissive — its ValidatedSSRC
// stays nil) plus the cross-protocol validation evidence under
// construction. The engine hands ValidatedSSRC (the same map object,
// so evidence accumulated after a chunked finalization stays visible)
// to the pass-2 StreamState at each pass-2 call.
type ScanState struct {
	Scratch StreamState
	// ValidatedSSRC accumulates per-SSRC validation evidence written by
	// weak-signature probers during pass 1. It only gains entries, and
	// each entry is true: an SSRC, once validated, stays validated. So
	// pass-2 results computed while it held n entries equal the results
	// computed against the set at a chunk's end if and only if it still
	// holds n, which is what lets the stream inspector run pass 2 as
	// datagrams arrive and keep the results whenever the size held.
	ValidatedSSRC map[uint32]bool

	// msg receives ConsumeProbe's structural matches; held here so the
	// probe path never allocates or zeroes a Message per offset.
	msg   Message
	slots [MaxIDs]any
}

// NewScanState returns pass-1 state with an empty validated set.
func NewScanState() *ScanState {
	return &ScanState{ValidatedSSRC: make(map[uint32]bool)}
}

// Slot returns the protocol's private pass-1 state.
func (s *ScanState) Slot(id ID) any { return s.slots[id] }

// SetSlot stores a protocol's private pass-1 state.
func (s *ScanState) SetSlot(id ID, v any) { s.slots[id] = v }
