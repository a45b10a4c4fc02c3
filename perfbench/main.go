// Command perfbench is the repository benchmark: it runs one named
// workload under a seed, checks every output against a pinned oracle, and
// prints every metric by name and unit. See README.md in this directory.
//
//	perfbench --workload detailed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run is split into an untraced
// and a traced half and the metrics are the per-layer ones.
//
// perfbench --pin rewrites oracle.json (the canonical-output digests and
// hwmodel reference cycles of every cell a seed can draw).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: detailed | detailed-sharded | sweep")
	seed := fs.Uint64("seed", 1, "workload seed (inputs and op order)")
	seconds := fs.Float64("seconds", 10, "measured run length in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	root := fs.String("root", ".", "repository checkout the benchmark runs in")
	pin := fs.Bool("pin", false, "recompute perfbench/oracle.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	benchDir := filepath.Join(absRoot, "perfbench")
	oraclePath := filepath.Join(benchDir, "oracle.json")
	if *pin {
		o, err := pinOracle(defaultSizing())
		if err == nil {
			err = o.save(oraclePath)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: pin:", err)
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	o, err := loadOracle(oraclePath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	outDir := filepath.Join(absRoot, ".bench_build", "out")
	runDir := filepath.Join(absRoot, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	defer os.RemoveAll(runDir)

	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		root:     absRoot,
		runDir:   runDir,
		outDir:   outDir,
		sizing:   defaultSizing(),
		oracle:   o,
		log:      stderr,
	}
	rep, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := hostRecord(absRoot, *seed)
	if err := writeRecord(outDir, cfg, host, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Fprintln(stdout, string(hostLine))
	line, err := json.Marshal(rep.output())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
