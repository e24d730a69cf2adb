// Command rtccheck analyzes a pcap capture of an RTC call: it filters
// unrelated traffic, extracts protocol messages with the
// offset-shifting DPI, evaluates the five-criterion compliance model,
// and prints the results.
//
// Usage:
//
//	rtccheck -pcap traces/000_zoom_wi-fi-p2p.pcap \
//	    -start 2026-07-06T12:00:00Z -end 2026-07-06T12:00:30Z
//	rtccheck -pcap call.pcap            # call window = capture span
//	rtccheck -manifest traces/manifest.json   # analyze a whole directory
//	rtccheck -manifest traces/manifest.json -trace-out trace.jsonl
//	rtccheck -pcap call.pcap -explain "Zoom//0x0c01"
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	rtcc "github.com/rtc-compliance/rtcc"
	"github.com/rtc-compliance/rtcc/internal/cmdutil"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
	"github.com/rtc-compliance/rtcc/internal/propheader"
	"github.com/rtc-compliance/rtcc/internal/proto"
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
	"github.com/rtc-compliance/rtcc/internal/report"
)

// cliFlags is rtccheck's flag surface, registered on an explicit
// FlagSet so the golden surface test can pin it.
type cliFlags struct {
	fs *flag.FlagSet

	pcapPath, manifest         *string
	startStr, endStr, label    *string
	kOffset, shards            *int
	findings, verbose          *bool
	inferHdr, jsonOut          *bool
	metAddr, traceOut, explain *string
	configPath                 *string
	listProt, version          *bool
}

func newFlags() *cliFlags {
	fs := flag.NewFlagSet("rtccheck", flag.ExitOnError)
	c := &cliFlags{fs: fs}
	c.pcapPath = fs.String("pcap", "", "pcap file to analyze")
	c.manifest = fs.String("manifest", "", "manifest.json from rtcgen: analyze every capture it lists")
	c.startStr = fs.String("start", "", "call window start (RFC 3339); default: capture start")
	c.endStr = fs.String("end", "", "call window end (RFC 3339); default: capture end")
	c.label = fs.String("label", "", "application label for the report")
	c.kOffset = fs.Int("k", 200, "DPI maximum candidate-extraction offset")
	c.shards = cmdutil.ShardsFlag(fs)
	c.findings = fs.Bool("findings", true, "report behavioural findings")
	c.verbose = fs.Bool("v", false, "print per-type detail")
	c.inferHdr = fs.Bool("infer-headers", false, "infer the structure of proprietary headers per stream")
	c.jsonOut = fs.Bool("json", false, "emit machine-readable JSON instead of text")
	c.metAddr = cmdutil.MetricsAddrFlag(fs)
	c.listProt = fs.Bool("protocols", false, "list the registered wire protocols and exit")
	c.traceOut = cmdutil.TraceOutFlag(fs, "")
	c.explain = fs.String("explain", "", `trace the run and explain decisions matching "<app>/<stream>/<msgtype>" (each part an optional substring)`)
	c.configPath = cmdutil.ConfigFlag(fs)
	c.version = cmdutil.VersionFlag(fs)
	return c
}

// apply copies flag values onto cfg. With only == nil every flag
// applies (the defaults layer); otherwise just the explicitly-set ones
// (the precedence layer re-applied over a config file).
func (c *cliFlags) apply(cfg *pipeline.Config, only map[string]bool) {
	set := func(name string) bool { return only == nil || only[name] }
	if set("pcap") && *c.pcapPath != "" {
		cfg.Source.Kind = pipeline.SourcePCAP
		cfg.Source.Path = *c.pcapPath
	}
	if set("label") && (only != nil || *c.label != "") {
		cfg.Source.Label = *c.label
	}
	if set("start") && (only != nil || *c.startStr != "") {
		cfg.Source.Start = *c.startStr
	}
	if set("end") && (only != nil || *c.endStr != "") {
		cfg.Source.End = *c.endStr
	}
	if set("k") {
		cfg.Analysis.MaxOffset = *c.kOffset
	}
	if set("shards") {
		cfg.Exec.Shards = *c.shards
	}
	if set("findings") {
		v := *c.findings
		cfg.Analysis.Findings = &v
	}
	if set("json") && (only != nil || *c.jsonOut) {
		if *c.jsonOut {
			cfg.Sinks.Report = "json"
		} else {
			cfg.Sinks.Report = "text"
		}
	}
	if set("metrics-addr") && (only != nil || *c.metAddr != "") {
		cfg.Sinks.MetricsAddr = *c.metAddr
	}
	if set("trace-out") && (only != nil || *c.traceOut != "") {
		cfg.Sinks.TraceOut = *c.traceOut
	}
	if set("explain") && (only != nil || *c.explain != "") {
		cfg.Sinks.Explain = *c.explain
	}
}

// pipelineConfig assembles the declarative config with the standard
// precedence: flag defaults, then the -config file, then explicitly
// set flags.
func (c *cliFlags) pipelineConfig() (pipeline.Config, error) {
	var cfg pipeline.Config
	c.apply(&cfg, nil)
	if *c.configPath != "" {
		if err := pipeline.LoadFile(&cfg, *c.configPath); err != nil {
			return cfg, err
		}
		c.apply(&cfg, cmdutil.Explicit(c.fs))
	}
	return cfg, nil
}

func main() {
	c := newFlags()
	c.fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	if *c.version {
		cmdutil.PrintVersion(os.Stdout, "rtccheck")
		return
	}
	if *c.listProt {
		printProtocols(os.Stdout)
		return
	}
	cfg, err := c.pipelineConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtccheck:", err)
		os.Exit(2)
	}
	hasPCAP := cfg.Source.Kind == pipeline.SourcePCAP && cfg.Source.Path != ""
	if hasPCAP == (*c.manifest != "") {
		fmt.Fprintln(os.Stderr, "rtccheck: exactly one capture source is required: -pcap (or a config file source) or -manifest")
		os.Exit(2)
	}
	if !hasPCAP {
		// The manifest drives source selection per entry; the config
		// still validates the execution and sink sections.
		cfg.Source.Kind = pipeline.SourcePCAP
		cfg.Source.Path = *c.manifest
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rtccheck:", err)
		os.Exit(2)
	}
	reg, stopMetrics, err := cmdutil.ServeMetrics("rtccheck", cfg.Sinks.MetricsAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtccheck:", err)
		os.Exit(1)
	}
	defer stopMetrics()

	runner, err := pipeline.NewRunner(cfg, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtccheck:", err)
		os.Exit(1)
	}

	if *c.manifest != "" {
		err = runManifest(os.Stdout, *c.manifest, c, runner)
	} else {
		err = runOne(os.Stdout, c, cfg, runner)
	}
	if err == nil {
		err = runner.FlushTrace(os.Stderr)
	}
	if err == nil && cfg.Sinks.Explain != "" {
		fmt.Print(rtcc.ExplainTrace(runner.ExplainEvents(), cfg.Sinks.Explain))
	}
	if cerr := runner.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtccheck:", err)
		os.Exit(1)
	}
}

// printProtocols renders the registered protocol listing backing
// `make proto-list`: one row per handler with its reporting family,
// the demultiplexing precedences of its pass-2 probers, wire
// fingerprint, and fuzz target.
func printProtocols(w io.Writer) {
	reg := proto.Default()
	precs := make(map[proto.ID][]int)
	for _, p := range reg.Pass2Plan().Probers() {
		precs[p.ID] = append(precs[p.ID], p.Precedence)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tNAME\tFAMILY\tPRECEDENCE\tFUZZ\tFINGERPRINT")
	for _, m := range reg.Metas() {
		fam, _ := reg.Meta(m.Family)
		ps := ""
		for i, p := range precs[m.ID] {
			if i > 0 {
				ps += ","
			}
			ps += fmt.Sprint(p)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\n", m.ID, m.Name, fam.Name, ps, m.Fuzz, m.Fingerprint)
	}
	tw.Flush()
}

func runOne(w io.Writer, c *cliFlags, cfg pipeline.Config, runner *pipeline.Runner) error {
	start, end, err := cfg.Source.Window()
	if err != nil {
		return err
	}
	f, err := os.Open(cfg.Source.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	ca, err := runner.AnalyzeReader(f, cfg.Source.EffectiveLabel(), start, end)
	if err != nil {
		return err
	}
	return c.report(w, cfg, ca, cfg.Source.Path)
}

// report writes one capture's report in the form cfg.Sinks.Report
// selects (JSON, text, or none), then, under -infer-headers, the
// inferred structure of its proprietary headers, re-read from the
// capture file at path. Every capture goes through here, alone or
// from a manifest.
func (c *cliFlags) report(w io.Writer, cfg pipeline.Config, ca *rtcc.CaptureAnalysis, path string) error {
	switch cfg.Sinks.Report {
	case "json":
		if err := printJSON(w, ca); err != nil {
			return err
		}
	case "none":
	default:
		printAnalysis(w, ca, *c.verbose)
	}
	if *c.inferHdr {
		return printHeaderInference(w, path, ca, cfg.Analysis.MaxOffset)
	}
	return nil
}

// jsonReport is the machine-readable analysis result for one capture,
// intended for deployment-diagnostics tooling.
type jsonReport struct {
	Label        string `json:"label"`
	DecodeErrors int    `json:"decode_errors"`
	Streams      struct {
		RawUDP int `json:"raw_udp"`
		RawTCP int `json:"raw_tcp"`
		Stage1 int `json:"removed_stage1"`
		Stage2 int `json:"removed_stage2"`
		RTCUDP int `json:"rtc_udp"`
		RTCTCP int `json:"rtc_tcp"`
	} `json:"streams"`
	Datagrams map[string]int `json:"datagrams"`
	Protocols map[string]struct {
		Messages  int     `json:"messages"`
		Compliant int     `json:"compliant"`
		Ratio     float64 `json:"ratio"`
	} `json:"protocols"`
	VolumeCompliance *float64      `json:"volume_compliance,omitempty"`
	Types            []jsonType    `json:"message_types"`
	Findings         []jsonFinding `json:"findings,omitempty"`
}

type jsonType struct {
	Protocol     string `json:"protocol"`
	Label        string `json:"label"`
	Messages     int    `json:"messages"`
	NonCompliant int    `json:"non_compliant"`
	Reason       string `json:"reason,omitempty"`
}

type jsonFinding struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	Count  int    `json:"count"`
}

func printJSON(w io.Writer, ca *rtcc.CaptureAnalysis) error {
	var rep jsonReport
	rep.Label = ca.Label
	rep.DecodeErrors = ca.DecodeErrors
	f := ca.Filter
	rep.Streams.RawUDP = f.RawUDP.Streams
	rep.Streams.RawTCP = f.RawTCP.Streams
	rep.Streams.Stage1 = f.Stage1UDP.Streams + f.Stage1TCP.Streams
	rep.Streams.Stage2 = f.Stage2UDP.Streams + f.Stage2TCP.Streams
	rep.Streams.RTCUDP = f.RTCUDP.Streams
	rep.Streams.RTCTCP = f.RTCTCP.Streams
	rep.Datagrams = map[string]int{}
	for class, n := range ca.Stats.Datagrams {
		rep.Datagrams[class.String()] = n
	}
	rep.Protocols = map[string]struct {
		Messages  int     `json:"messages"`
		Compliant int     `json:"compliant"`
		Ratio     float64 `json:"ratio"`
	}{}
	for fam, ps := range ca.Stats.ByProtocol {
		entry := rep.Protocols[fam.String()]
		entry.Messages = ps.Messages
		entry.Compliant = ps.Compliant
		if ps.Messages > 0 {
			entry.Ratio = float64(ps.Compliant) / float64(ps.Messages)
		}
		rep.Protocols[fam.String()] = entry
	}
	if r, ok := ca.Stats.VolumeCompliance(); ok {
		rep.VolumeCompliance = &r
	}
	for key, ts := range ca.Stats.Types {
		rep.Types = append(rep.Types, jsonType{
			Protocol:     key.Protocol.String(),
			Label:        key.Label,
			Messages:     ts.Total,
			NonCompliant: ts.NonCompliant,
			Reason:       ts.TopReason(),
		})
	}
	sort.Slice(rep.Types, func(i, j int) bool {
		if rep.Types[i].Protocol != rep.Types[j].Protocol {
			return rep.Types[i].Protocol < rep.Types[j].Protocol
		}
		return rep.Types[i].Label < rep.Types[j].Label
	})
	for _, fd := range ca.Findings {
		rep.Findings = append(rep.Findings, jsonFinding{Kind: fd.Kind, Detail: fd.Detail, Count: fd.Count})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// printHeaderInference re-reads the capture at path for the records of
// ca's final-RTC UDP streams (an analysis result holds none), re-runs
// the DPI per stream to collect the proprietary header regions, and
// prints the inferred structure of each stream with enough samples.
func printHeaderInference(w io.Writer, path string, ca *rtcc.CaptureAnalysis, k int) error {
	table, err := readRTCStreams(path, ca)
	if err != nil {
		return err
	}
	engine := &dpi.Engine{MaxOffset: k}
	for _, rtc := range ca.Filter.RTC {
		if rtc.Key.Proto != layers.IPProtocolUDP {
			continue
		}
		s := table.Get(rtc.Key)
		if s == nil { // the file changed since the analysis read it
			continue
		}
		var samples []propheader.Sample
		for i, r := range engine.NewStreamInspector().Finalize(s.Packets) {
			if r.Class != dpi.ClassProprietaryHeader {
				continue
			}
			dir := propheader.DirAToB
			if s.Packets[i].Dir == flow.DirBToA {
				dir = propheader.DirBToA
			}
			samples = append(samples, propheader.Sample{
				Header:    r.ProprietaryHeader,
				Dir:       dir,
				Remainder: len(s.Packets[i].Payload) - len(r.ProprietaryHeader),
			})
		}
		if len(samples) < 8 {
			continue
		}
		fmt.Fprintf(w, "proprietary header structure on %v:\n%s", s.Key, propheader.Describe(propheader.Infer(samples)))
	}
	return nil
}

// readRTCStreams reads the capture at path into a stream table holding
// the records of ca's final-RTC UDP streams and no others.
func readRTCStreams(path string, ca *rtcc.CaptureAnalysis) (*flow.Table, error) {
	want := make(map[flow.Key]bool)
	for _, s := range ca.Filter.RTC {
		if s.Key.Proto == layers.IPProtocolUDP {
			want[s.Key] = true
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr, err := pcap.NewCaptureReader(f)
	if err != nil {
		return nil, err
	}
	table := flow.NewTable()
	var frame []byte
	var pkt layers.Packet
	for {
		fr, lt, err := cr.ReadPacketInto(&frame)
		if err == io.EOF {
			return table, nil
		}
		if err != nil {
			return nil, err
		}
		if layers.DecodeInto(&pkt, lt, fr.Data) != nil {
			continue
		}
		proto, sp, dp := pkt.Transport()
		if !want[flow.KeyFor(proto, flow.Endpoint{Addr: pkt.Src(), Port: sp}, flow.Endpoint{Addr: pkt.Dst(), Port: dp})] {
			continue
		}
		pkt.Payload = bytes.Clone(pkt.Payload) // the next read reuses frame
		table.Add(fr.Timestamp, &pkt)
	}
}

type manifestEntry struct {
	File      string    `json:"file"`
	App       string    `json:"app"`
	CallStart time.Time `json:"call_start"`
	CallEnd   time.Time `json:"call_end"`
}

// runManifest analyzes every capture the manifest at path lists and
// writes each one's report. A text report opens with a header naming
// the capture and ends with a blank line; a JSON report is one object
// per capture, named by its label.
func runManifest(w io.Writer, path string, c *cliFlags, runner *pipeline.Runner) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []manifestEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("parse manifest: %w", err)
	}
	dir := filepath.Dir(path)
	cfg := runner.Config()
	text := cfg.Sinks.Report != "json" && cfg.Sinks.Report != "none"
	for _, e := range entries {
		ca, err := analyzeEntry(dir, e, runner)
		if err != nil {
			return fmt.Errorf("%s: %w", e.File, err)
		}
		ca.Stats.App = e.App
		if text {
			fmt.Fprintf(w, "=== %s (%s) ===\n", e.File, e.App)
		}
		if err := c.report(w, cfg, ca, filepath.Join(dir, e.File)); err != nil {
			return fmt.Errorf("%s: %w", e.File, err)
		}
		if text {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// analyzeEntry analyzes one manifest capture under a label that leads
// with the app name (so -explain "Zoom" queries match) but stays
// unique per entry: span IDs are hashed from the label, and a manifest
// analyzes many captures of the same app into one trace export —
// reusing the bare app name would collide their spans and restart
// sequence numbers mid-file.
func analyzeEntry(dir string, e manifestEntry, runner *pipeline.Runner) (*rtcc.CaptureAnalysis, error) {
	f, err := os.Open(filepath.Join(dir, e.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	label := e.File
	if e.App != "" {
		label = e.App + " (" + e.File + ")"
	}
	return runner.AnalyzeReader(f, label, e.CallStart, e.CallEnd)
}

func printAnalysis(w io.Writer, ca *rtcc.CaptureAnalysis, verbose bool) {
	f := ca.Filter
	decoded := f.RawUDP.Packets + f.RawTCP.Packets
	datagrams := 0
	for _, n := range ca.Stats.Datagrams {
		datagrams += n
	}
	messages, compliant := 0, 0
	for _, ps := range ca.Stats.ByProtocol {
		messages += ps.Messages
		compliant += ps.Compliant
	}
	fmt.Fprintf(w, "pipeline: %d frames in (%d decode errors) -> %d packets -> dropped %d stage1 + %d stage2 -> %d RTC packets -> %d datagrams -> %d messages (%d compliant)\n",
		decoded+ca.DecodeErrors, ca.DecodeErrors, decoded,
		f.Stage1UDP.Packets+f.Stage1TCP.Packets,
		f.Stage2UDP.Packets+f.Stage2TCP.Packets,
		f.RTCUDP.Packets+f.RTCTCP.Packets,
		datagrams, messages, compliant)
	fmt.Fprintf(w, "streams: raw %d UDP / %d TCP; removed stage1 %d, stage2 %d; RTC %d UDP / %d TCP\n",
		f.RawUDP.Streams, f.RawTCP.Streams,
		f.Stage1UDP.Streams+f.Stage1TCP.Streams,
		f.Stage2UDP.Streams+f.Stage2TCP.Streams,
		f.RTCUDP.Streams, f.RTCTCP.Streams)
	if ca.DecodeErrors > 0 {
		fmt.Fprintf(w, "decode errors: %d undecodable frames dropped\n", ca.DecodeErrors)
	}

	total := 0
	for _, n := range ca.Stats.Datagrams {
		total += n
	}
	fmt.Fprintf(w, "datagrams: %d total; %d standard, %d proprietary-header, %d fully-proprietary\n",
		total,
		ca.Stats.Datagrams[dpi.ClassStandard],
		ca.Stats.Datagrams[dpi.ClassProprietaryHeader],
		ca.Stats.Datagrams[dpi.ClassFullyProprietary])

	for _, fam := range proto.Default().Families() {
		ps := ca.Stats.ByProtocol[fam]
		if ps == nil || ps.Messages == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %7d messages, %6.2f%% compliant\n",
			fam, ps.Messages, 100*float64(ps.Compliant)/float64(ps.Messages))
	}
	if r, ok := ca.Stats.VolumeCompliance(); ok {
		fmt.Fprintf(w, "overall volume compliance: %.2f%%\n", 100*r)
	}
	c, t := ca.Stats.TypeCompliance(dpi.ProtoUnknown)
	fmt.Fprintf(w, "message types: %d/%d compliant\n", c, t)

	if verbose {
		type row struct {
			key  string
			stat *report.TypeStat
		}
		var rows []row
		for key, ts := range ca.Stats.Types {
			rows = append(rows, row{key.String(), ts})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
		for _, r := range rows {
			status := "compliant"
			if !r.stat.Compliant() {
				status = "NON-COMPLIANT: " + r.stat.TopReason()
			}
			fmt.Fprintf(w, "  %-28s %6d msgs  %s\n", r.key, r.stat.Total, status)
		}
	}
	for _, fd := range ca.Findings {
		fmt.Fprintf(w, "finding: %s: %s\n", fd.Kind, fd.Detail)
	}
}
