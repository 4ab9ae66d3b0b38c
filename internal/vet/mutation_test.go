package vet

import (
	"fmt"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A mutation deletes the nth line containing pattern from file (paths
// relative to the repository root), re-checks pkgs and expects dodo-vet
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

// mutationTree is a copy of the repository, so the working tree is
// never touched, loaded once per package set. A mutation is checked in
// memory: the one file it changes is parsed again and its package
// type-checked again against the export data of that load — a row
// deletes one statement inside a body, so no package's API changes —
// and the other packages are the loaded ones.
type mutationTree struct {
	root  string
	loads map[string][]*Pass
}

// sharedTree is the one copy the mutation tests share, made on first
// use; TestMain removes it. Sharing it lets go build every package of
// the copy once.
var sharedTree *mutationTree

func TestMain(m *testing.M) {
	code := m.Run()
	if sharedTree != nil {
		os.RemoveAll(sharedTree.root)
	}
	os.Exit(code)
}

// mutations returns the shared tree, copying the repository on first
// use.
func mutations(t *testing.T) *mutationTree {
	if testing.Short() {
		t.Skip("copies and loads the repository")
	}
	if sharedTree == nil {
		root, err := filepath.Abs("../..")
		if err != nil {
			t.Fatal(err)
		}
		tmp, err := os.MkdirTemp("", "dodo-vet-mutations")
		if err != nil {
			t.Fatal(err)
		}
		sharedTree = &mutationTree{root: tmp, loads: make(map[string][]*Pass)}
		copyTree(t, root, tmp)
	}
	return sharedTree
}

// load loads pkgs from the copy the first time it is asked for them;
// the unmutated packages must be clean.
func (tr *mutationTree) load(t *testing.T, pkgs []string) []*Pass {
	key := strings.Join(pkgs, " ")
	if passes, ok := tr.loads[key]; ok {
		return passes
	}
	passes := tr.loadFull(t, pkgs)
	if fs := Check(passes, All()); len(fs) != 0 {
		t.Fatalf("baseline tree not clean for %s: %v", key, fs)
	}
	tr.loads[key] = passes
	return passes
}

func (tr *mutationTree) loadFull(t *testing.T, pkgs []string) []*Pass {
	passes, skipped, err := LoadPackages(tr.root, pkgs...)
	if err != nil {
		t.Fatalf("loading %v: %v", pkgs, err)
	}
	if len(skipped) > 0 {
		t.Fatalf("tree did not compile: %v", skipped)
	}
	return passes
}

// mutated returns the path of m's file and its text with m applied; a
// row with no pattern leaves it as it is.
func (tr *mutationTree) mutated(t *testing.T, m mutation) (string, string) {
	path := filepath.Join(tr.root, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.pattern == "" {
		return path, string(orig)
	}
	src, ok := deleteNthMatch(string(orig), m.pattern, m.nth)
	if !ok {
		t.Fatalf("pattern %q (occurrence %d) not found in %s — site moved, update the mutation table", m.pattern, m.nth, m.file)
	}
	return path, src
}

// check returns the findings on m's packages with m applied in memory.
func (tr *mutationTree) check(t *testing.T, m mutation) []Finding {
	path, src := tr.mutated(t, m)
	passes := append([]*Pass(nil), tr.load(t, m.pkgs)...)
	for i, p := range passes {
		for j, f := range p.Files {
			if p.Fset.Position(f.Pos()).Filename != path {
				continue
			}
			mf, err := parser.ParseFile(p.Fset, path, src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files := append(append(p.Files[:j:j], mf), p.Files[j+1:]...)
			if passes[i], err = typeCheck(p.Fset, p.imp, p.Pkg.Path(), files); err != nil {
				t.Fatalf("mutated %s does not type-check: %v", m.file, err)
			}
			return Check(passes, All())
		}
	}
	t.Fatalf("%s is in none of %v", m.file, m.pkgs)
	return nil
}

// reload returns the findings of a full load of the copy with m
// written to disk, and puts the file back.
func (tr *mutationTree) reload(t *testing.T, m mutation) []Finding {
	path, src := tr.mutated(t, m)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return Check(tr.loadFull(t, m.pkgs), All())
}

// runMutations checks each mutation in turn.
func runMutations(t *testing.T, muts []mutation) {
	tr := mutations(t)
	for _, m := range muts {
		t.Run(m.name, func(t *testing.T) {
			for _, f := range tr.check(t, m) {
				if m.rule == "" || f.Analyzer == m.rule {
					return
				}
			}
			t.Fatalf("deleting %q (occurrence %d) in %s produced no %s finding: the analyzer would miss this", m.pattern, m.nth, m.file, m.rule)
		})
	}
}

// TestMutationHarnessMatchesReload pins what the mutation tests rest
// on: checked in memory, the clean tree and one row of each mutation
// test give exactly the findings a full load of the mutated copy gives.
func TestMutationHarnessMatchesReload(t *testing.T) {
	tr := mutations(t)
	clean := resourceMutations[0]
	clean.name, clean.pattern = "clean", ""
	for _, m := range []mutation{clean, resourceMutations[0], lockMutations(t)[0], frameMutations[0]} {
		inMemory, full := tr.check(t, m), tr.reload(t, m)
		if fmt.Sprint(inMemory) != fmt.Sprint(full) {
			t.Errorf("%s: checked in memory:\n%v\nfull load:\n%v", m.name, inMemory, full)
		}
		if m.pattern != "" && len(full) == 0 {
			t.Errorf("%s: no findings to compare", m.name)
		}
	}
}

func regionRow(name, file, pattern string, nth int) mutation {
	return mutation{name, []string{"./internal/region"}, "internal/region/" + file, pattern, nth, "resource-lifecycle"}
}

// resourceMutations: deleting any single release call from
// internal/region — the package whose eviction/clone/prefetch machinery
// motivated resource-lifecycle — must produce at least one finding of
// it. The sites span two files and every tracked kind the package uses:
// dodofd clone error paths, the worker-pool WaitGroup handoff, and lock
// brackets.
var resourceMutations = []mutation{
	regionRow("cloneRemote disk-read error path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 1),
	regionRow("cloneRemote stale-data abort drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 2),
	regionRow("cloneRemote push error path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 3),
	regionRow("cloneRemote closed-region path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 4),
	regionRow("cloneRemote raced-copy path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 5),
	regionRow("Stats drops its deferred Unlock", "cache.go", "defer c.mu.Unlock()", 1),
	regionRow("prefetchWorker drops its deferred Done", "prefetch.go", "defer c.prefetchWG.Done()", 1),
	regionRow("finishPrefetchJob drops its Unlock", "prefetch.go", "c.mu.Unlock()", 1),
}

// TestResourceLifecycleMutations pins the analyzer's real-world firing
// power (resourceMutations).
func TestResourceLifecycleMutations(t *testing.T) {
	runMutations(t, resourceMutations)
}

// lockMutations is the guarded-by acceptance shape kept as a test:
// deleting any single .Lock() statement from the two daemons whose
// state sits under one ranked mutex must make dodo-vet exit non-zero.
// The counts are pinned so a new Lock site joins the table.
func lockMutations(t *testing.T) []mutation {
	var muts []mutation
	for _, d := range []struct {
		pkg, file string
		locks     int
	}{
		{"./internal/manager", "internal/manager/manager.go", 22},
		{"./internal/imd", "internal/imd/imd.go", 26},
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
	return muts
}

func TestLockDeletionMutations(t *testing.T) {
	runMutations(t, lockMutations(t))
}

func frameRow(pkg, file, pattern string, nth int) mutation {
	return mutation{fmt.Sprintf("%s PutFrame %d", file, nth), []string{"./internal/wire", "./internal/" + pkg},
		"internal/" + file, pattern, nth, "resource-lifecycle"}
}

// frameMutations: deleting a pooled-frame release on the data plane
// must be reported as a leaked dodo:acquires(frame) by
// resource-lifecycle. internal/wire is loaded alongside because the
// annotations live on GetFrame/PutFrame. Notify and sendData hand the
// frame to a call in their return expression (`return ep.tr.Send(to,
// frame)`), which does not return it; the hedged read releases the
// frame it moved its losing remote leg to in a background join.
var frameMutations = []mutation{
	frameRow("transport", "transport/udp.go", "wire.PutFrame(frame)", 1),
	frameRow("core", "core/client.go", "wire.PutFrame(priv)", 1),
	frameRow("bulk", "bulk/endpoint.go", "defer wire.PutFrame(frame)", 1),
	frameRow("bulk", "bulk/transfer.go", "defer wire.PutFrame(frame)", 1),
}

func TestFrameReleaseMutations(t *testing.T) {
	runMutations(t, frameMutations)
}

func pinRow(name, pattern string, nth int) mutation {
	return mutation{name, []string{"./internal/imd"}, "internal/imd/imd.go", pattern, nth, "resource-lifecycle"}
}

// pinMutations: the imd sends a region's bytes straight from its pool
// under a pin (dodo:acquires(pin) on pinLocked, dodo:releases(pin) on
// unpin); a send that never unpins would leave every later write and
// free of the region waiting forever, and must be reported. The region
// cache's local hit copies under a pin of its own kind (slotpin), and
// a hit that never unpins would leave the region's next Cwrite, or the
// fill that takes its buffer, waiting forever.
var pinMutations = []mutation{
	pinRow("pushPage drops its unpin", "d.unpin(pin)", 1),
	pinRow("handleRead's blast drops its unpin", "defer d.unpin(pin)", 1),
	regionRow("Cread's hit drops its unpin", "cache.go", "c.unpin(pin)", 1),
}

func TestPinReleaseMutations(t *testing.T) {
	runMutations(t, pinMutations)
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
