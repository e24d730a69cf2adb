package cmdutil

import (
	"flag"
	"fmt"
	"sort"
	"strings"
)

// The flag helpers below register the knobs shared across the cmd/
// binaries — one canonical name, default, and help string per knob, so
// a new shared flag (or a wording fix) lands here once instead of in
// six main.go files. Binaries register only the helpers they support;
// the per-binary golden flag-surface tests pin the result.

// WorkersFlag registers -workers.
func WorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "analysis worker count (0 = one per CPU, 1 = serial)")
}

// ShardsFlag registers -shards.
func ShardsFlag(fs *flag.FlagSet) *int {
	return fs.Int("shards", 0, "analysis shard count (0 = one per CPU, 1 = serial)")
}

// MetricsAddrFlag registers -metrics-addr.
func MetricsAddrFlag(fs *flag.FlagSet) *string {
	return fs.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address")
}

// TraceOutFlag registers -trace-out. note, when non-empty, extends the
// help text with a binary-specific requirement.
func TraceOutFlag(fs *flag.FlagSet, note string) *string {
	usage := "export the decision trace as JSONL (one event per line) to this file"
	if note != "" {
		usage += " " + note
	}
	return fs.String("trace-out", "", usage)
}

// VersionFlag registers -version.
func VersionFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print version and exit")
}

// ConfigFlag registers -config, the declarative pipeline config file.
func ConfigFlag(fs *flag.FlagSet) *string {
	return fs.String("config", "", "pipeline config file (JSON or YAML); explicitly-set flags override its keys")
}

// Explicit reports which flags were set on the command line — the
// predicate behind defaults < config file < explicit flags precedence.
// Call after fs.Parse.
func Explicit(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// FlagSurface renders the flag set as one "name\tdefault\tusage" line
// per flag, sorted by name — the stable text the golden surface tests
// compare, so an accidental rename, default change, or deletion fails
// a test instead of breaking users.
func FlagSurface(fs *flag.FlagSet) string {
	var lines []string
	fs.VisitAll(func(f *flag.Flag) {
		lines = append(lines, fmt.Sprintf("%s\t%q\t%s", f.Name, f.DefValue, f.Usage))
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
