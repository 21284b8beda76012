package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// hostKeys are the fingerprint fields that must agree for two result sets
// to be comparable; the code identity (git_revision, source_hash) and the
// seed are expected to differ. Workload parameters must agree per workload.
var hostKeys = []string{"go_version", "goos", "goarch", "nproc", "gomaxprocs", "pool_workers", "cpu_model"}

// savedRecord is the part of a results/*.json record compare reads.
type savedRecord struct {
	Workload    string         `json:"workload"`
	Traced      bool           `json:"traced"`
	Fingerprint map[string]any `json:"fingerprint"`
	Result      result         `json:"result"`
}

func loadRecords(dir string) ([]savedRecord, error) {
	var out []savedRecord
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".json") {
			return err
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r savedRecord
		if json.Unmarshal(raw, &r) == nil && r.Workload != "" {
			out = append(out, r)
		}
		return nil
	})
	return out, err
}

// fingerprintClash lists the host fields, and the workloads' parameters,
// on which the records disagree.
func fingerprintClash(recs []savedRecord) []string {
	distinct := map[string]map[string]bool{}
	note := func(key string, v any) {
		raw, _ := json.Marshal(v)
		if distinct[key] == nil {
			distinct[key] = map[string]bool{}
		}
		distinct[key][string(raw)] = true
	}
	for _, r := range recs {
		for _, k := range hostKeys {
			note(k, r.Fingerprint[k])
		}
		note(r.Workload+" params", r.Fingerprint["params"])
	}
	var clash []string
	for _, key := range sortedKeys(distinct) {
		if vals := distinct[key]; len(vals) > 1 {
			clash = append(clash, fmt.Sprintf("%s: %s", key, strings.Join(sortedKeys(vals), " | ")))
		}
	}
	return clash
}

// compareMain prints, per workload and metric, the median of each result
// set and the change, and flags any difference in host fingerprint.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base-results-dir> <new-results-dir>")
		return 2
	}
	base, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	head, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if clash := fingerprintClash(append(append([]savedRecord(nil), base...), head...)); len(clash) > 0 {
		fmt.Println("WARNING: results come from different host fingerprints; they are not directly comparable:")
		for _, c := range clash {
			fmt.Println("  " + c)
		}
	}
	type key struct {
		workload string
		traced   bool
	}
	values := func(recs []savedRecord) map[key]map[string][]float64 {
		out := map[key]map[string][]float64{}
		for _, r := range recs {
			k := key{r.Workload, r.Traced}
			if out[k] == nil {
				out[k] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				out[k][name] = append(out[k][name], m.Value)
			}
		}
		return out
	}
	bv, hv := values(base), values(head)
	var keys []key
	for k := range hv {
		if bv[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].traced && keys[j].traced
	})
	fmt.Printf("%-16s %-28s %5s %14s %14s %9s\n", "workload", "metric", "runs", "base median", "new median", "change")
	for _, k := range keys {
		for _, name := range sortedKeys(hv[k]) {
			b, h := bv[k][name], hv[k][name]
			if len(b) == 0 {
				continue
			}
			mb, mh := median(b), median(h)
			fmt.Printf("%-16s %-28s %2d/%-2d %14.6g %14.6g %+8.2f%%\n",
				k.workload, name, len(b), len(h), mb, mh, 100*ratio(mh-mb, mb))
		}
	}
	return 0
}
