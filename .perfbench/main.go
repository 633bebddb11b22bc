// Command perfbench is the repository benchmark: it boots the production
// annotadb.Server behind the production internal/httpapi handler on a
// loopback listener, drives one of four seeded serving workloads against
// it from a single process, checks that every answer is correct, and
// prints its metrics. With -trace 1 it also records spans at the client,
// the handler and direct calls into each layer, and prints the per-layer
// breakdown instead of the end-to-end metrics. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root (results go to <root>/.bench_build/results)")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, report, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(cfg, report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write report:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness checks failed:", strings.Join(report.Failures, "; "))
		os.Exit(1)
	}
}

// runMeta identifies what was measured and on what.
type runMeta struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Workload   spec   `json:"workload"`
}

func meta(cfg config, s spec) runMeta {
	m := runMeta{
		Commit:     "unknown (not a git checkout)",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Workload:   s,
	}
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	m.SourceHash = sourceHash(cfg.root)
	return m
}

// sourceHash digests the Go sources of the module under test, so a result
// names the code it measured even in a checkout without git metadata.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if in, err := os.Open(f); err == nil {
			_, _ = io.Copy(h, in)
			in.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeReport(cfg config, r *report) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// writeSamples stores the raw request samples as CSV, for analysis beyond
// the reported quantiles.
func writeSamples(cfg config, samples []sample) error {
	name := fmt.Sprintf("%s-seed%d-trace%d-samples.csv", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	var b strings.Builder
	b.WriteString("class,conn,measured,status,due_ns,send_ns,done_ns\n")
	for _, s := range samples {
		fmt.Fprintf(&b, "%s,%d,%v,%d,%d,%d,%d\n", classNames[s.cls], s.conn, s.measured, s.status, s.due, s.send, s.done)
	}
	return os.WriteFile(filepath.Join(cfg.root, ".bench_build", "results", name), []byte(b.String()), 0o644)
}
