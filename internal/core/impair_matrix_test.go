package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/natsim"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// The impairment differential matrix answers "are compliance verdicts
// stable under adverse networks?" for every app × impairment profile ×
// seed cell:
//
//   - batch and streaming analyzers must agree byte-for-byte on
//     impaired traffic, exactly as they do on clean traffic;
//   - verdict-stability invariants must hold against the same app's
//     clean analysis (no protocol families or criterion 1-4 violation
//     classes appearing out of thin air);
//   - the full impaired analysis is pinned by golden fixtures under
//     testdata/impair, so any legitimate drift (duplication tripping
//     SRTCP replay checks, loss shifting type mixes) is explicit in
//     review diffs and documented in EXPERIMENTS.md §"Impairment".
//
// Regenerate fixtures (deliberate, reviewed changes only) with:
//
//	RTCC_UPDATE_GOLDEN=1 go test ./internal/core -run TestImpairMatrixDifferential
var impairSeeds = []uint64{3, 17, 42, 101}

// impairFixtureSeeds is the subset pinned by golden fixtures (matching
// goldenSeeds, so clean and impaired fixtures cover the same calls).
var impairFixtureSeeds = []uint64{3, 17}

// impairCapture generates one (possibly impaired) capture with
// frame-granular video bursting — the traffic shape that stresses the
// filter and the cross-message checks hardest.
func impairCapture(t testing.TB, app appsim.App, p natsim.Profile, seed uint64) *trace.Capture {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App: app, Network: appsim.WiFiRelay, Seed: seed,
		Start: t0, CallDuration: 2 * time.Second, PrePost: 3 * time.Second,
		MediaRate: 10, Background: false, Burst: true, Impair: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

func impairFixturePath(app appsim.App, profile string, seed uint64) string {
	return filepath.Join("testdata", "impair",
		fmt.Sprintf("%s_%s_%d.json", strings.ReplaceAll(string(app), " ", ""), profile, seed))
}

// critSet collects the distinct criteria violated in an analysis.
func critSet(ca *CaptureAnalysis) map[compliance.Criterion]bool {
	out := make(map[compliance.Criterion]bool)
	for crit, n := range ca.Stats.Violations {
		if n > 0 {
			out[crit] = true
		}
	}
	return out
}

// TestImpairMatrixDifferential sweeps 6 apps × 6 profiles (clean + 5
// adverse) × 4 seeds. -short reduces to the CI smoke matrix of 2 apps
// × 3 profiles × 2 seeds.
func TestImpairMatrixDifferential(t *testing.T) {
	update := os.Getenv("RTCC_UPDATE_GOLDEN") != ""
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "impair"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	apps := appsim.Apps
	profiles := natsim.StandardProfiles()
	seeds := impairSeeds
	if testing.Short() {
		apps = apps[:2]
		profiles = profiles[:3] // clean, loss2, burst5
		seeds = seeds[:2]
	}
	for _, app := range apps {
		for _, seed := range seeds {
			// Clean baseline for the stability invariants, analyzed once.
			cleanCA, err := BatchAnalyzeCapture(impairCapture(t, app, natsim.Profile{}, seed).Input(), Options{})
			if err != nil {
				t.Fatalf("%s seed %d clean: %v", app, seed, err)
			}
			cleanCrits := critSet(cleanCA)
			for _, p := range profiles {
				p := p
				t.Run(fmt.Sprintf("%s/%s/%d", app, p.Name, seed), func(t *testing.T) {
					capt := impairCapture(t, app, p, seed)
					in := capt.Input()
					batch, err := BatchAnalyzeCapture(in, Options{})
					if err != nil {
						t.Fatal(err)
					}
					got := encodeGolden(batch)

					// Batch and streaming must agree on impaired traffic,
					// serial and sharded.
					for _, shards := range []int{1, 8} {
						streaming, err := analyzeSharded(in, Options{}, shards)
						if err != nil {
							t.Fatalf("shards=%d: %v", shards, err)
						}
						if enc := encodeGolden(streaming); !bytes.Equal(enc, got) {
							t.Fatalf("streaming (shards=%d) diverged from batch on impaired traffic:\n%s",
								shards, diffHint(got, enc))
						}
					}

					// The pooled, batched single-pass reader must agree
					// byte-for-byte on impaired traffic too; poison armed
					// so a use-after-release shows up as divergence.
					func() {
						defer bufpool.EnablePoison(bufpool.EnablePoison(true))
						raw := capturePCAPBytes(t, capt)
						pooled, err := AnalyzePCAP(bytes.NewReader(raw), in.Label,
							in.CallStart, in.CallEnd, Options{})
						if err != nil {
							t.Fatalf("pooled-batched: %v", err)
						}
						if enc := encodeGolden(pooled); !bytes.Equal(enc, got) {
							t.Fatalf("pooled-batched reader diverged from batch on impaired traffic:\n%s",
								diffHint(got, enc))
						}
					}()

					// Stability invariant 1: impairment never conjures a
					// protocol family the clean call did not carry.
					for fam := range batch.Stats.ByProtocol {
						if _, ok := cleanCA.Stats.ByProtocol[fam]; !ok {
							t.Errorf("family %s appeared only under impairment", fam)
						}
					}
					// Stability invariant 2: dropping, delaying, duplicating,
					// or re-addressing datagrams can break cross-message
					// (criterion 5) expectations — legitimate drift — but must
					// never create a new class of per-message violation
					// (criteria 1-4): those judge bytes the generator emitted,
					// which impairment never edits.
					for crit := range critSet(batch) {
						if crit != compliance.CritSemantics && !cleanCrits[crit] {
							t.Errorf("criterion %v violations appeared only under impairment", crit)
						}
					}
					// Stability invariant 3: the call must remain analyzable —
					// the RTP volume can shrink under loss but not collapse.
					if clean := cleanCA.Stats.ByProtocol[dpi.ProtoRTP]; clean != nil {
						imp := batch.Stats.ByProtocol[dpi.ProtoRTP]
						if imp == nil || imp.Messages < clean.Messages/3 {
							t.Errorf("RTP volume collapsed under impairment: clean %d, impaired %v",
								clean.Messages, imp)
						}
					}

					// Pin the full analysis for the fixture seeds.
					pinned := false
					for _, fs := range impairFixtureSeeds {
						if fs == seed {
							pinned = true
						}
					}
					if !pinned {
						return
					}
					path := impairFixturePath(app, p.Name, seed)
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
						t.Fatalf("impaired analysis diverged from fixture %s:\n%s", path, diffHint(want, got))
					}
				})
			}
		}
	}
}

// TestImpairRaceHammer extends the PR 5 determinism harness to
// impaired traffic: 16 goroutines analyze the same impaired capture
// concurrently — each with its own JSONL trace sink, all sharing one
// metrics registry — and every result and exported trace must be
// byte-identical to the serial reference. A final run pushes the same
// input through 16 shards merged on 16 goroutines. Run under -race.
func TestImpairRaceHammer(t *testing.T) {
	seeds := determinismSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	profile, _ := natsim.ProfileByName("jitter30")
	for _, seed := range seeds {
		in := impairCapture(t, appsim.GoogleMeet, profile, seed).Input()

		ref, err := AnalyzeCapture(in, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		refTrace := impairTraceJSONL(t, in, nil)
		if len(refTrace) == 0 {
			t.Fatalf("seed %d: empty reference trace", seed)
		}

		const goroutines = 16
		reg := metrics.NewRegistry()
		var wg sync.WaitGroup
		analyses := make([]*CaptureAnalysis, goroutines)
		traces := make([][]byte, goroutines)
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var buf bytes.Buffer
				w := obs.NewJSONLWriter(&buf)
				ca, err := AnalyzeCapture(in, Options{Metrics: reg, Tracer: w})
				if err != nil {
					errs[g] = err
					return
				}
				if err := w.Flush(); err != nil {
					errs[g] = err
					return
				}
				analyses[g] = ca
				traces[g] = buf.Bytes()
			}(g)
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			if errs[g] != nil {
				t.Fatalf("seed %d goroutine %d: %v", seed, g, errs[g])
			}
			if !reflect.DeepEqual(analyses[g], ref) {
				t.Errorf("seed %d goroutine %d: analysis differs from serial reference", seed, g)
			}
			if !bytes.Equal(traces[g], refTrace) {
				t.Errorf("seed %d goroutine %d: trace export differs from serial reference", seed, g)
			}
		}

		// Shared fold: 16 shards, merged on 16 goroutines.
		sharded, err := analyzeSharded(in, Options{Metrics: reg}, goroutines)
		if err != nil {
			t.Fatalf("seed %d sharded: %v", seed, err)
		}
		if !reflect.DeepEqual(sharded, ref) {
			t.Errorf("seed %d: 16-shard fold differs from serial reference", seed)
		}
	}
}

func impairTraceJSONL(t *testing.T, in CaptureInput, reg *metrics.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	if _, err := AnalyzeCapture(in, Options{Metrics: reg, Tracer: w}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunMatrixPublishesImpairStats checks the pipeline surfaces
// per-profile impairment accounting in the metrics registry.
func TestRunMatrixPublishesImpairStats(t *testing.T) {
	p, _ := natsim.ProfileByName("loss2")
	reg := metrics.NewRegistry()
	_, err := RunMatrix(trace.MatrixOptions{
		Runs: 1, CallDuration: time.Second, PrePost: time.Second,
		MediaRate: 8, Start: t0, BaseSeed: 5,
		Apps: []appsim.App{appsim.Discord}, Impair: p,
	}, Options{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	l := metrics.L("profile", "loss2")
	if got := reg.Counter("natsim_impair_in_total", l).Value(); got == 0 {
		t.Fatal("no impairment input accounting published")
	}
	if got := reg.Counter("natsim_impair_dropped_total", l).Value(); got == 0 {
		t.Fatal("2% loss over a full matrix dropped nothing")
	}
}
