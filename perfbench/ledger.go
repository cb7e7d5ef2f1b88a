package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance keys every result: results taken under a different
// GOMAXPROCS, shard width or program are not comparable.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Traced       bool   `json:"traced"`
	Hours        int64  `json:"hours"`
	Shards       int    `json:"shards"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func newProvenance(w *workloadSpec, seed int64, traced bool) provenance {
	return provenance{
		Workload: w.name, Seed: seed, Traced: traced, Hours: w.hours, Shards: w.shards,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: gitCommit("."), SourceDigest: sourceDigest("."),
	}
}

// gitCommit reads HEAD from a .git directory without running git; a
// checkout that is not a repository reports "unknown" and is identified
// by its source digest instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources, go.mod files and
// scenario specs, so a result names the exact program it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json":
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type ledgerEntry struct {
	Provenance provenance `json:"provenance"`
	Result     *result    `json:"result"`
}

func appendLedger(path string, p provenance, res *result) error {
	b, err := json.Marshal(ledgerEntry{p, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLedger(path string) ([]ledgerEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []ledgerEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e ledgerEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if e.Result != nil {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

// compare prints, per workload and metric, the median of each ledger's
// results and their ratio. It refuses, with exit code 3, to compare
// results taken at different GOMAXPROCS or shard widths.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl NEW.jsonl")
		return 2
	}
	var sides [2][]ledgerEntry
	for i, p := range args {
		var err error
		if sides[i], err = readLedger(p); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	type key struct {
		workload string
		traced   bool
	}
	type env struct{ procs, shards int }
	envs := map[key]env{}
	vals := [2]map[key]map[string][]float64{{}, {}}
	for i, entries := range sides {
		for _, e := range entries {
			k := key{e.Provenance.Workload, e.Provenance.Traced}
			en := env{e.Provenance.GOMAXPROCS, e.Provenance.Shards}
			if seen, ok := envs[k]; ok && seen != en {
				fmt.Fprintf(stderr, "perfbench: refusing to compare %s results taken at GOMAXPROCS=%d/shards=%d and GOMAXPROCS=%d/shards=%d\n",
					k.workload, seen.procs, seen.shards, en.procs, en.shards)
				return 3
			}
			envs[k] = en
			if vals[i][k] == nil {
				vals[i][k] = map[string][]float64{}
			}
			for name, m := range e.Result.Metrics {
				vals[i][k][name] = append(vals[i][k][name], m.Value)
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if vals[1][k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].traced
	})
	for _, k := range keys {
		fmt.Fprintf(stdout, "%s (traced=%v, GOMAXPROCS=%d)\n", k.workload, k.traced, envs[k].procs)
		var names []string
		for name := range vals[0][k] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			base, cur := median(vals[0][k][name]), median(vals[1][k][name])
			ratio := 0.0
			if base != 0 {
				ratio = cur / base
			}
			fmt.Fprintf(stdout, "  %-36s %14.6g %14.6g  x%.3f\n", name, base, cur, ratio)
		}
	}
	return 0
}
