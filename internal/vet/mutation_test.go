package vet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A mutation deletes the nth line containing pattern from file (paths
// relative to the repository root), reloads pkgs and expects dodo-vet
// to object: any finding when rule is empty — the non-zero-exit shape —
// or at least one finding of the named rule.
type mutation struct {
	name    string
	pkgs    []string
	file    string
	pattern string
	nth     int
	rule    string
}

// runMutations copies the repository to a temp dir and applies and
// reverts each mutation in turn, so the working tree is never touched.
// The unmutated copy must be clean for every package set involved.
func runMutations(t *testing.T, muts []mutation) {
	if testing.Short() {
		t.Skip("copies the repository and reloads it per mutation")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyTree(t, root, tmp)

	load := func(pkgs []string) []Finding {
		passes, skipped, err := LoadPackages(tmp, pkgs...)
		if err != nil {
			t.Fatalf("loading mutated tree: %v", err)
		}
		if len(skipped) > 0 {
			t.Fatalf("mutated tree did not compile: %v", skipped)
		}
		return Check(passes, All())
	}
	clean := make(map[string]bool)
	for _, m := range muts {
		key := strings.Join(m.pkgs, " ")
		if clean[key] {
			continue
		}
		clean[key] = true
		if fs := load(m.pkgs); len(fs) != 0 {
			t.Fatalf("baseline tree not clean for %s: %v", key, fs)
		}
	}

	for _, m := range muts {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(tmp, m.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			mutated, ok := deleteNthMatch(string(orig), m.pattern, m.nth)
			if !ok {
				t.Fatalf("pattern %q (occurrence %d) not found in %s — site moved, update the mutation table", m.pattern, m.nth, m.file)
			}
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, f := range load(m.pkgs) {
				if m.rule == "" || f.Analyzer == m.rule {
					return
				}
			}
			t.Fatalf("deleting %q (occurrence %d) in %s produced no %s finding: the analyzer would miss this", m.pattern, m.nth, m.file, m.rule)
		})
	}
}

// TestResourceLifecycleMutations pins the analyzer's real-world firing
// power: deleting any single release call from internal/region — the
// package whose eviction/clone/prefetch machinery motivated the pass —
// must produce at least one resource-lifecycle finding. The sites span
// two files and every tracked kind the package uses: dodofd clone error
// paths, the worker-pool WaitGroup handoff, and lock brackets.
func TestResourceLifecycleMutations(t *testing.T) {
	region := func(name, file, pattern string, nth int) mutation {
		return mutation{name, []string{"./internal/region"}, "internal/region/" + file, pattern, nth, "resource-lifecycle"}
	}
	runMutations(t, []mutation{
		region("cloneRemote disk-read error path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 1),
		region("cloneRemote stale-data abort drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 2),
		region("cloneRemote push error path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 3),
		region("cloneRemote closed-region path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 4),
		region("cloneRemote raced-copy path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 5),
		region("Stats drops its deferred Unlock", "cache.go", "defer c.mu.Unlock()", 1),
		region("prefetchWorker drops its deferred Done", "prefetch.go", "defer c.prefetchWG.Done()", 1),
		region("finishPrefetchJob drops its Unlock", "prefetch.go", "c.mu.Unlock()", 1),
	})
}

// TestLockDeletionMutations is the guarded-by acceptance shape kept as
// a test: deleting any single .Lock() statement from the two daemons
// whose state sits under one ranked mutex must make dodo-vet exit
// non-zero. The counts are pinned so a new Lock site joins the table.
func TestLockDeletionMutations(t *testing.T) {
	var muts []mutation
	for _, d := range []struct {
		pkg, file string
		locks     int
	}{
		{"./internal/manager", "internal/manager/manager.go", 22},
		{"./internal/imd", "internal/imd/imd.go", 25},
	} {
		src, err := os.ReadFile(filepath.Join("../..", d.file))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), ".Lock()"); n != d.locks {
			t.Fatalf("%s has %d .Lock() sites, the table says %d — update it", d.file, n, d.locks)
		}
		for nth := 1; nth <= d.locks; nth++ {
			muts = append(muts, mutation{fmt.Sprintf("%s Lock %d", filepath.Base(d.file), nth), []string{d.pkg}, d.file, ".Lock()", nth, ""})
		}
	}
	runMutations(t, muts)
}

// TestFrameReleaseMutations: deleting a pooled-frame release on the
// data plane must be reported as a leaked dodo:acquires(frame) by
// resource-lifecycle. internal/wire is loaded alongside because the
// annotations live on GetFrame/PutFrame. Three PutFrame sites are not
// rows because the pass cannot see them go: bulk/endpoint.go Notify and
// bulk/transfer.go sendData name the frame in their return expression
// (`return ep.tr.Send(to, frame)`), which the pass reads as handing it
// to the caller, and core/client.go finishRemoteLeg releases a
// parameter, which only its dodo:releases annotation vouches for.
func TestFrameReleaseMutations(t *testing.T) {
	frame := func(pkg, file, pattern string, nth int) mutation {
		return mutation{fmt.Sprintf("%s PutFrame %d", file, nth), []string{"./internal/wire", "./internal/" + pkg},
			"internal/" + file, pattern, nth, "resource-lifecycle"}
	}
	runMutations(t, []mutation{
		frame("transport", "transport/udp.go", "wire.PutFrame(frame)", 1),
		frame("core", "core/client.go", "wire.PutFrame(priv)", 2),
		frame("core", "core/client.go", "wire.PutFrame(priv)", 3),
		frame("imd", "imd/imd.go", "wire.PutFrame(snap)", 1),
	})
}

// deleteNthMatch removes the nth line containing pattern, reporting
// whether it was found.
func deleteNthMatch(src, pattern string, nth int) (string, bool) {
	lines := strings.Split(src, "\n")
	seen := 0
	for i, l := range lines {
		if strings.Contains(l, pattern) {
			seen++
			if seen == nth {
				return strings.Join(append(lines[:i:i], lines[i+1:]...), "\n"), true
			}
		}
	}
	return src, false
}

// copyTree mirrors src into dst, skipping VCS metadata.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
