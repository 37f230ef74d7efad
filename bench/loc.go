package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// countLines counts the lines of non-test Go files under root/internal,
// per top-level package (sim's shard.go and sharded.go count as
// "shard"), and under root/bench as "bench", plus their "total".
func countLines(root string) (map[string]int, error) {
	counts := map[string]int{}
	add := func(dir string, pkgOf func(rel string) string) error {
		return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") ||
				strings.Contains(filepath.ToSlash(p), "/testdata/") {
				return err
			}
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(dir, p)
			if err != nil {
				return err
			}
			n := bytes.Count(data, []byte("\n"))
			counts[pkgOf(filepath.ToSlash(rel))] += n
			counts["total"] += n
			return nil
		})
	}
	err := add(filepath.Join(root, "internal"), func(rel string) string {
		pkg, file, _ := strings.Cut(rel, "/")
		if pkg == "sim" && (file == "shard.go" || file == "sharded.go") {
			return "shard"
		}
		return pkg
	})
	if err != nil {
		return nil, err
	}
	return counts, add(filepath.Join(root, "bench"), func(string) string { return "bench" })
}
