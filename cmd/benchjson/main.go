// Command benchjson runs the module's microbenchmarks and records them as
// a machine-readable JSON snapshot — the benchmark-trajectory format
// EXPERIMENTS.md tracks across commits.
//
//	benchjson -bench . -pkg ./internal/sketch,./internal/metrics
//
// writes BENCH_<yyyy-mm-dd>.json with one entry per benchmark: iterations,
// ns/op, and (with -benchmem, on by default) B/op and allocs/op. An
// existing `go test -bench` log can be converted instead of re-running:
//
//	go test -bench . -benchmem ./... | benchjson -in -
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ntpddos/internal/buildinfo"
)

// Result is one benchmark measurement.
type Result struct {
	Package     string  `json:"package,omitempty"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

// Snapshot is the file-level envelope.
type Snapshot struct {
	Date    string   `json:"date"`
	GoOS    string   `json:"goos"`
	GoArch  string   `json:"goarch"`
	Go      string   `json:"go"`
	Command string   `json:"command,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	var (
		bench = flag.String("bench", ".", "benchmark pattern passed to go test -bench")
		pkgs  = flag.String("pkg", "./...", "comma-separated package patterns to benchmark")
		in    = flag.String("in", "", "parse this existing bench log instead of running go test (- = stdin)")
		out   = flag.String("out", "", "output path (default BENCH_<date>.json)")
		mem   = flag.Bool("benchmem", true, "pass -benchmem (B/op and allocs/op)")
	)
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("benchjson", *showVersion)

	snap := Snapshot{
		Date:   time.Now().UTC().Format("2006-01-02"),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		Go:     runtime.Version(),
	}

	var src io.Reader
	switch {
	case *in == "-":
		src = os.Stdin
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		defer f.Close()
		src = f
	default:
		args := []string{"test", "-run", "^$", "-bench", *bench}
		if *mem {
			args = append(args, "-benchmem")
		}
		args = append(args, strings.Split(*pkgs, ",")...)
		snap.Command = "go " + strings.Join(args, " ")
		fmt.Fprintf(os.Stderr, "benchjson: %s\n", snap.Command)
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		outPipe, err := cmd.StdoutPipe()
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		if err := cmd.Start(); err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		defer func() {
			if err := cmd.Wait(); err != nil {
				log.Fatalf("benchjson: go test: %v", err)
			}
		}()
		src = outPipe
	}

	results, err := Parse(src, os.Stderr)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	if len(results) == 0 {
		log.Fatal("benchjson: no benchmark lines found")
	}
	snap.Results = results

	path := *out
	if path == "" {
		path = "BENCH_" + snap.Date + ".json"
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), path)
}

// Parse reads `go test -bench` output and extracts every benchmark line,
// tracking the `pkg:` context lines go test emits between packages. Echo,
// when non-nil, receives the raw input unchanged (so the human-readable
// log still appears on a terminal).
func Parse(r io.Reader, echo io.Writer) ([]Result, error) {
	var results []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseLine(line)
		if !ok {
			continue
		}
		res.Package = pkg
		results = append(results, res)
	}
	return results, sc.Err()
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkCMSAdd-8  12345678  95.2 ns/op  16 B/op  1 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	var res Result
	res.Name = fields[0]
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Procs = procs
			res.Name = res.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = iters
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = val
			seen = true
		case "B/op":
			res.BytesPerOp = int64(val)
		case "allocs/op":
			res.AllocsPerOp = int64(val)
		case "MB/s":
			res.MBPerSec = val
		}
	}
	return res, seen
}
