package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// heapSampler polls the live heap (bytes marked live by the last GC) every
// few milliseconds and keeps the peak since the last stepPeak call.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	last uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		v := s[0].Value.Uint64()
		h.mu.Lock()
		h.last = v
		if v > h.peak {
			h.peak = v
		}
		h.mu.Unlock()
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stepPeak returns the peak since the previous call and restarts the
// window at the latest sample.
func (h *heapSampler) stepPeak() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = h.last
	return p
}

// stop ends the sampler and waits for it to exit.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// fingerprint describes the host and the code a result came from.
// Results whose fingerprints differ in anything but the seed are not
// directly comparable (the compare subcommand flags them).
func fingerprint(root string, w *Workload, seed int64, workers int) map[string]any {
	return map[string]any{
		"git_revision": gitRevision(root),
		"source_hash":  sourceHash(root),
		"go_version":   runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"pool_workers": workers,
		"cpu_model":    cpuModel(),
		"seed":         seed,
		"workload":     w.Name,
		"params":       w.Params,
	}
}

// gitRevision resolves HEAD from the .git directory when there is one
// (a plain source checkout has none; source_hash identifies it then).
func gitRevision(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[1] == ref {
			return fields[0]
		}
	}
	return "unknown"
}

// sourceHash is a SHA-256 over the program's Go sources and go.mod
// (paths and contents, in path order), skipping the benchmark's own
// directory and build outputs: it names the code under test.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				if p != root {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
		io.WriteString(h, "\x00")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the processor name (Linux); "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
