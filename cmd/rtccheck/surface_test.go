package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/cmdutil"
)

var update = flag.Bool("update", false, "rewrite the golden flag-surface file")

// TestFlagSurface pins the CLI flag surface: a renamed flag, changed
// default, or dropped flag fails here instead of breaking users. Run
// with -update after an intentional change.
func TestFlagSurface(t *testing.T) {
	got := cmdutil.FlagSurface(newFlags().fs)
	golden := filepath.Join("testdata", "flags.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("flag surface changed (run with -update if intentional)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestProtocolsGolden pins `rtccheck -protocols`: one row per
// registered protocol with its family, its pass-2 probers' precedences,
// fuzz target and fingerprint. Run with -update after an intentional
// change.
func TestProtocolsGolden(t *testing.T) {
	var b strings.Builder
	printProtocols(&b)
	got := b.String()
	golden := filepath.Join("testdata", "protocols.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("-protocols output changed (run with -update if intentional)\ngot:\n%s\nwant:\n%s", got, want)
	}
}
