package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/flow"
)

// The golden differential suite pins the analysis output of the
// pre-registry engine: the fixtures under testdata/golden were generated
// by the hardcoded-dispatch pipeline before the protocol registry
// existed, and every analysis mode — batch, streaming with 1 and N
// workers, and idle-eviction — must keep reproducing them byte for
// byte. Regenerate (only for a deliberate, reviewed behaviour change)
// with:
//
//	RTCC_UPDATE_GOLDEN=1 go test ./internal/core -run TestGoldenMatrix
var goldenSeeds = []uint64{3, 17}

var goldenNetworks = []appsim.Network{appsim.WiFiP2P, appsim.WiFiRelay, appsim.Cellular}

// goldenAnalysis is the deterministic, version-stable serialization of a
// CaptureAnalysis. Maps keyed by structs or integers are flattened to
// string-keyed maps (encoding/json sorts those) or sorted slices.
type goldenAnalysis struct {
	Label        string             `json:"label"`
	Bytes        int                `json:"bytes"`
	DecodeErrors int                `json:"decode_errors"`
	Filter       goldenFilter       `json:"filter"`
	Datagrams    map[string]int     `json:"datagrams"`
	Protocols    map[string]*gProto `json:"protocols"`
	Types        []gType            `json:"types"`
	Violations   map[string]int     `json:"violations"`
	Findings     []gFinding         `json:"findings"`
	SSRCs        []uint32           `json:"ssrcs"`
}

type goldenFilter struct {
	RawUDP    gCounts `json:"raw_udp"`
	RawTCP    gCounts `json:"raw_tcp"`
	Stage1UDP gCounts `json:"stage1_udp"`
	Stage1TCP gCounts `json:"stage1_tcp"`
	Stage2UDP gCounts `json:"stage2_udp"`
	Stage2TCP gCounts `json:"stage2_tcp"`
	RTCUDP    gCounts `json:"rtc_udp"`
	RTCTCP    gCounts `json:"rtc_tcp"`
	Removed   int     `json:"removed"`
}

type gCounts struct {
	Streams, Packets, Bytes int
}

type gProto struct {
	Messages, Compliant, Bytes int
}

type gType struct {
	Proto        string         `json:"proto"`
	Label        string         `json:"label"`
	Total        int            `json:"total"`
	NonCompliant int            `json:"non_compliant"`
	Reasons      map[string]int `json:"reasons,omitempty"`
}

type gFinding struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	Count  int    `json:"count"`
}

func toCounts(c flow.Counts) gCounts { return gCounts{c.Streams, c.Packets, c.Bytes} }

// encodeGolden flattens one analysis into canonical JSON.
func encodeGolden(ca *CaptureAnalysis) []byte {
	g := goldenAnalysis{
		Label:        ca.Label,
		Bytes:        ca.Bytes,
		DecodeErrors: ca.DecodeErrors,
		Datagrams:    map[string]int{},
		Protocols:    map[string]*gProto{},
		Violations:   map[string]int{},
	}
	f := ca.Filter
	g.Filter = goldenFilter{
		RawUDP: toCounts(f.RawUDP), RawTCP: toCounts(f.RawTCP),
		Stage1UDP: toCounts(f.Stage1UDP), Stage1TCP: toCounts(f.Stage1TCP),
		Stage2UDP: toCounts(f.Stage2UDP), Stage2TCP: toCounts(f.Stage2TCP),
		RTCUDP: toCounts(f.RTCUDP), RTCTCP: toCounts(f.RTCTCP),
		Removed: len(f.Removed),
	}
	for class, n := range ca.Stats.Datagrams {
		g.Datagrams[class.String()] = n
	}
	for fam, ps := range ca.Stats.ByProtocol {
		g.Protocols[fam.String()] = &gProto{ps.Messages, ps.Compliant, ps.Bytes}
	}
	for key, ts := range ca.Stats.Types {
		gt := gType{
			Proto: key.Protocol.String(), Label: key.Label,
			Total: ts.Total, NonCompliant: ts.NonCompliant,
		}
		if len(ts.Reasons) > 0 {
			gt.Reasons = ts.Reasons
		}
		g.Types = append(g.Types, gt)
	}
	sort.Slice(g.Types, func(i, j int) bool {
		if g.Types[i].Proto != g.Types[j].Proto {
			return g.Types[i].Proto < g.Types[j].Proto
		}
		return g.Types[i].Label < g.Types[j].Label
	})
	for crit, n := range ca.Stats.Violations {
		g.Violations[crit.String()] = n
	}
	for _, fi := range ca.Findings {
		g.Findings = append(g.Findings, gFinding{fi.Kind, fi.Detail, fi.Count})
	}
	for ssrc := range ca.RTPSSRCs {
		g.SSRCs = append(g.SSRCs, ssrc)
	}
	sort.Slice(g.SSRCs, func(i, j int) bool { return g.SSRCs[i] < g.SSRCs[j] })
	out, err := json.MarshalIndent(&g, "", " ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

func goldenPath(app appsim.App, network appsim.Network, seed uint64) string {
	return filepath.Join("testdata", "golden",
		fmt.Sprintf("%s_%s_%d.json", app, network, seed))
}

// TestGoldenMatrix checks every analysis mode against the pre-refactor
// fixtures over the app × network × seed matrix.
func TestGoldenMatrix(t *testing.T) {
	update := os.Getenv("RTCC_UPDATE_GOLDEN") != ""
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	apps := appsim.Apps
	if testing.Short() {
		apps = apps[:2]
	}
	for _, app := range apps {
		for _, network := range goldenNetworks {
			for _, seed := range goldenSeeds {
				name := fmt.Sprintf("%s/%s/%d", app, network, seed)
				t.Run(name, func(t *testing.T) {
					cap := streamingCapture(t, app, network, seed)
					path := goldenPath(app, network, seed)

					batch, err := BatchAnalyzeCapture(cap.Input(), Options{})
					if err != nil {
						t.Fatal(err)
					}
					got := encodeGolden(batch)
					if update {
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing fixture (run with RTCC_UPDATE_GOLDEN=1): %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("batch output diverged from golden fixture %s:\ngot:\n%s", path, diffHint(want, got))
					}

					// The remaining modes must match the same fixture.
					for _, mode := range []struct {
						name string
						run  func() (*CaptureAnalysis, error)
					}{
						{"streaming", func() (*CaptureAnalysis, error) {
							return AnalyzeCapture(cap.Input(), Options{})
						}},
						{"sharded-8", func() (*CaptureAnalysis, error) {
							return analyzeSharded(cap.Input(), Options{}, 8)
						}},
						{"evict-idle", func() (*CaptureAnalysis, error) {
							raw := capturePCAPBytes(t, cap)
							return AnalyzePCAP(bytes.NewReader(raw), string(cap.Config.App),
								cap.CallStart, cap.CallEnd, Options{EvictIdle: 500 * time.Millisecond})
						}},
						{"pooled-batched", func() (*CaptureAnalysis, error) {
							// The single-pass reader: batched FeedBatch over
							// pooled buffers, with poison-on-release armed so
							// any use of a released payload corrupts the
							// output instead of passing silently.
							defer bufpool.EnablePoison(bufpool.EnablePoison(true))
							raw := capturePCAPBytes(t, cap)
							return AnalyzePCAP(bytes.NewReader(raw), string(cap.Config.App),
								cap.CallStart, cap.CallEnd, Options{})
						}},
					} {
						ca, err := mode.run()
						if err != nil {
							t.Fatalf("%s: %v", mode.name, err)
						}
						if enc := encodeGolden(ca); !bytes.Equal(enc, want) {
							t.Errorf("%s output diverged from golden fixture %s:\n%s", mode.name, path, diffHint(want, enc))
						}
					}
				})
			}
		}
	}
}

// diffHint returns the first differing line of two fixture encodings.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}
