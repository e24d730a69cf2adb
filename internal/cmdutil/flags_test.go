package cmdutil

import (
	"flag"
	"strings"
	"testing"
)

func TestExplicit(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	WorkersFlag(fs)
	ShardsFlag(fs)
	MetricsAddrFlag(fs)
	if err := fs.Parse([]string{"-shards", "4"}); err != nil {
		t.Fatal(err)
	}
	set := Explicit(fs)
	if !set["shards"] {
		t.Fatal("shards was set explicitly")
	}
	if set["workers"] || set["metrics-addr"] {
		t.Fatalf("defaulted flags must not report explicit: %v", set)
	}
}

func TestFlagSurfaceSortedAndComplete(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ShardsFlag(fs)
	ConfigFlag(fs)
	VersionFlag(fs)
	got := FlagSurface(fs)
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), got)
	}
	for i, prefix := range []string{"config\t", "shards\t", "version\t"} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Fatalf("line %d = %q, want prefix %q (sorted by name)", i, lines[i], prefix)
		}
	}
	if !strings.Contains(lines[1], `"0"`) {
		t.Fatalf("shards line must carry its default: %q", lines[1])
	}
}
