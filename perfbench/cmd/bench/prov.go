package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance is recorded with every result.
type provenance struct {
	Rev                string  `json:"rev"`
	GoVersion          string  `json:"go_version"`
	CPUModel           string  `json:"cpu_model"`
	NProc              int     `json:"nproc"`
	ServerGOMAXPROCS   int     `json:"server_gomaxprocs"`
	GeneratorGOMAXPROC int     `json:"generator_gomaxprocs"`
	Workload           string  `json:"workload"`
	Seed               uint64  `json:"seed"`
	Clients            int     `json:"clients"`
	RunSeconds         float64 `json:"run_seconds"`
	// GeneratorCPUShare is the generator's CPU time over the timed
	// window divided by the window's length: how much of a CPU the load
	// itself took from the host.
	GeneratorCPUShare float64 `json:"generator_cpu_share"`
}

// revision is the git revision of root, or, in a checkout that is not a
// git repository, "tree:" and a hash of its Go sources and module files.
func revision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		name := d.Name()
		if d.IsDir() || !(strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil)[:10])
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
