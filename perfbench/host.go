package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host identifies the machine and code a result came from, so results
// from hosts of different classes (1 core vs several) are never compared
// as like with like.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
}

func hostRecord(root string, seed uint64) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     vcsRevision(),
		SourceHash: sourceHash(root),
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the commit the binary was built from, when it was built
// inside a git checkout ("none" otherwise).
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, modified := "none", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}

// sourceHash digests the module's Go sources and go.mod (paths and
// contents, in path order), identifying the code where no VCS data
// exists. Build outputs and the benchmark's own directory are excluded.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeRecord stores the full run record (host, settings, metrics) next to
// the span and profile files.
func writeRecord(outDir string, cfg runConfig, h host, rep *report) error {
	rec := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.dur.Seconds(),
		"traced":   cfg.traced,
		"host":     h,
		"result":   rep.output(),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.traced))
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
