package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// A mutation replaces the nth line containing pattern in file (paths
// relative to the repository root) with with, keeping its indentation —
// an empty with deletes the line's text — re-checks pkgs and expects
// dodo-vet to object: any finding when rule is empty — the
// non-zero-exit shape — or at least one finding of the named rule.
type mutation struct {
	name    string
	pkgs    []string
	file    string
	pattern string
	nth     int
	rule    string
	with    string
}

// mutationTree is a copy of the repository, so the working tree is
// never touched, loaded once per package set. A mutation is checked in
// memory: the one file it changes is parsed again and its package
// type-checked again against the export data of that load — a row
// changes one statement inside a body, so no package's API changes —
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
	src, ok := replaceNthMatch(string(orig), m.pattern, m.nth, m.with)
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
			t.Fatalf("replacing %q (occurrence %d) in %s with %q produced no %s finding: the analyzer would miss this", m.pattern, m.nth, m.file, m.with, m.rule)
		})
	}
}

// TestMutationHarnessMatchesReload pins what the mutation tests rest
// on: checked in memory, the clean tree and a row of each kind give
// exactly the findings a full load of the mutated copy gives.
func TestMutationHarnessMatchesReload(t *testing.T) {
	tr := mutations(t)
	clean := passMutations[0]
	clean.name, clean.pattern = "clean", ""
	for _, m := range []mutation{clean, lockMutations(t)[0], passMutations[0], passMutations[3], passMutations[5]} {
		inMemory, full := tr.check(t, m), tr.reload(t, m)
		if fmt.Sprint(inMemory) != fmt.Sprint(full) {
			t.Errorf("%s: checked in memory:\n%v\nfull load:\n%v", m.name, inMemory, full)
		}
		if m.pattern != "" && len(full) == 0 {
			t.Errorf("%s: no findings to compare", m.name)
		}
	}
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
			muts = append(muts, mutation{fmt.Sprintf("%s Lock %d", filepath.Base(d.file), nth), []string{d.pkg}, d.file, ".Lock()", nth, "", ""})
		}
	}
	return muts
}

func TestLockDeletionMutations(t *testing.T) {
	runMutations(t, lockMutations(t))
}

// A releaseRow deletes one release from the tree — an Mclose, a Close,
// an Unlock, a Done, an unpin, a PutFrame — or replaces it with with
// where a bare deletion would not compile, and names the test of the
// file's package that must then fail, built with tags. No dodo-vet
// pass checks releases: the tests that reach them do. A wait a lost
// release leaves open fails its test by a ten-second deadline (the
// packages' within helpers), a lost frame fails a bound on the bytes a
// send allocates, and a lost Unlock the lockcheck build's rank check.
type releaseRow struct {
	name, file, pattern string
	nth                 int
	with, test, tags    string
}

func regionRow(name, file, pattern string, nth int, test string) releaseRow {
	return releaseRow{name: name, file: "internal/region/" + file, pattern: pattern, nth: nth, test: test}
}

// resourceMutations: the releases of the region cache — the clone's
// descriptors and marker, the prefetch pipeline's slots, lock and
// WaitGroup — and of a manager grant and a band file.
var resourceMutations = []releaseRow{
	regionRow("cloneRemote disk-read error path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 1, "TestCloneRemoteReleasesEveryDescriptor"),
	regionRow("cloneRemote stale-data abort drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 2, "TestCloneRemoteReleasesEveryDescriptor"),
	regionRow("cloneRemote push error path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 3, "TestCloneRemoteReleasesEveryDescriptor"),
	regionRow("cloneRemote closed-region path drops Mclose", "cache.go", "_ = c.dodo.Mclose(mfd)", 4, "TestCloneRemoteReleasesEveryDescriptor"),
	regionRow("cloneRemote push error path leaves its marker unsettled", "cache.go", "c.cloneSettleLocked(fd, marker)", 1, "TestCloneRemoteReleasesEveryDescriptor"),
	{name: "Stats drops its deferred Unlock", file: "internal/region/cache.go", pattern: "defer c.mu.Unlock()", nth: 1,
		test: "TestEvictionMigratesToRemote", tags: "lockcheck"},
	regionRow("prefetchWorker drops its deferred Done", "prefetch.go", "defer c.prefetchWG.Done()", 1, "TestConcurrentRegionOps"),
	regionRow("finishPrefetchJob drops its Unlock", "prefetch.go", "c.mu.Unlock()", 1, "TestConcurrentRegionOps"),
	{name: "Cread never dispatches its prefetch slots", file: "internal/region/cache.go", pattern: "c.dispatchPrefetch(jobs)", nth: 1,
		with: "_ = jobs", test: "TestPrefetchWorkerPool"},
	{name: "re-recruit never frees its orphaned grants", file: "internal/manager/manager.go", pattern: "m.freeHandoffTargets(orphans)", nth: 1,
		with: "_ = orphans", test: "TestReRecruitFreesUnresolvedGrants"},
	{name: "CreateFileStore keeps a band file it could not size", file: "internal/apps/lu/filestore.go", pattern: "_ = f.Close()", nth: 1,
		test: "TestFailedCreateFileStoreClosesItsFiles"},
}

// TestResourceLifecycleMutations: every row of resourceMutations fails
// its test.
func TestResourceLifecycleMutations(t *testing.T) {
	runReleaseRows(t, resourceMutations)
}

func frameRow(file, pattern, test string) releaseRow {
	return releaseRow{name: file + " PutFrame 1", file: "internal/" + file, pattern: pattern, nth: 1, test: test}
}

// frameMutations: a sender that keeps its pooled frame allocates a
// 64 KB frame a send, which its package's bound on the bytes a send
// allocates catches: UDP's SendVec, the hedged read's losing leg,
// Notify, and sendData over a transport that is no VecSender.
var frameMutations = []releaseRow{
	frameRow("transport/udp.go", "wire.PutFrame(frame)", "TestUDPSendVecRecyclesItsFrame"),
	frameRow("core/client.go", "wire.PutFrame(priv)", "TestLosingLegRecyclesItsFrame"),
	frameRow("bulk/endpoint.go", "defer wire.PutFrame(frame)", "TestNotifyRecyclesItsFrame"),
	frameRow("bulk/transfer.go", "defer wire.PutFrame(frame)", "TestSendDataGathersIntoARecycledFrame"),
}

func TestFrameReleaseMutations(t *testing.T) {
	runReleaseRows(t, frameMutations)
}

// pinMutations: the imd sends a region's bytes straight from its pool
// under a pin, and the region cache's local hit copies under a pin of
// its slot. A send or a hit that never unpins leaves the next write or
// free of the region waiting for ever.
var pinMutations = []releaseRow{
	{name: "pushPage drops its unpin", file: "internal/imd/imd.go", pattern: "d.unpin(pin)", nth: 1, test: "TestHandoffPageFromPinnedBytes"},
	{name: "handleRead's blast drops its unpin", file: "internal/imd/imd.go", pattern: "defer d.unpin(pin)", nth: 1, test: "TestReadSnapshotIsolatedFromLaterWrites"},
	{name: "pinnedReply.Release drops its unpin", file: "internal/imd/imd.go", pattern: "r.d.unpin(r.pin)", nth: 1, test: "TestWriteWaitsForPinnedInlineReply"},
	regionRow("Cread's hit drops its unpin", "cache.go", "c.unpin(p)", 2, "TestRangeChecks"),
}

func TestPinReleaseMutations(t *testing.T) {
	runReleaseRows(t, pinMutations)
}

// goroutineMutations: a daemon goroutine that never says Done leaves
// its Close waiting for ever; one row in each daemon package that
// launches any (monitor launches none).
var goroutineMutations = []releaseRow{
	{name: "manager goroutine drops its Done", file: "internal/manager/manager.go", pattern: "defer m.wg.Done()", nth: 1, test: "TestFreeForwardsToIMD"},
	{name: "imd eager blast drops its Done", file: "internal/imd/imd.go", pattern: "defer d.transfers.Done()", nth: 1, test: "TestDuplicatedEagerReadServedOnce"},
	{name: "bulk recvLoop drops its Done", file: "internal/bulk/endpoint.go", pattern: "defer ep.wg.Done()", nth: 1, test: "TestCallResponse"},
}

func TestGoroutineDoneMutations(t *testing.T) {
	runReleaseRows(t, goroutineMutations)
}

// releaseResults is what each release row's test did, by row name,
// found on first use for the rows of all four tables at once.
var releaseResults map[string]error

// runReleaseRows reports each row's result as a subtest.
func runReleaseRows(t *testing.T, rows []releaseRow) {
	if testing.Short() {
		t.Skip("builds a test binary per row")
	}
	if releaseResults == nil {
		releaseResults = checkReleaseRows(t, slices.Concat(resourceMutations, frameMutations, pinMutations, goroutineMutations))
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if err := releaseResults[r.name]; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkReleaseRows lays each row in turn over the working tree with the
// go command's -overlay flag, so the tree itself is never touched,
// builds the row's package tests, and runs the row's test in its own
// process. The builds run one at a time; the tests run side by side,
// since most of them wait out a deadline.
func checkReleaseRows(t *testing.T, rows []releaseRow) map[string]error {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i, r := range rows {
		bin, err := buildRow(root, filepath.Join(tmp, fmt.Sprint(i)), r)
		if err != nil {
			errs[i] = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = runRow(root, bin, r)
		}()
	}
	wg.Wait()
	results := make(map[string]error)
	for i, r := range rows {
		results[r.name] = errs[i]
	}
	return results
}

// buildRow writes r's file with r applied into dir and builds its
// package's test binary over it, returning the binary's path.
func buildRow(root, dir string, r releaseRow) (string, error) {
	src, err := os.ReadFile(filepath.Join(root, r.file))
	if err != nil {
		return "", err
	}
	mutated, ok := replaceNthMatch(string(src), r.pattern, r.nth, r.with)
	if !ok {
		return "", fmt.Errorf("pattern %q (occurrence %d) not found in %s — site moved, update the table", r.pattern, r.nth, r.file)
	}
	file, overlay := filepath.Join(dir, filepath.Base(r.file)), filepath.Join(dir, "overlay.json")
	replace, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(root, r.file): file}})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := os.WriteFile(file, []byte(mutated), 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(overlay, replace, 0o644); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "row.test")
	cmd := exec.Command("go", "test", "-c", "-vet=off", "-tags", r.tags, "-overlay", overlay, "-o", bin, "./"+filepath.Dir(r.file))
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s with the row applied: %v\n%s", r.file, err, out)
	}
	return bin, nil
}

// runRow runs r's test from bin and requires it to fail in its own
// right, not by the binary's 60 s timeout.
func runRow(root, bin string, r releaseRow) error {
	cmd := exec.Command(bin, "-test.run", "^"+r.test+"$", "-test.timeout", "60s")
	cmd.Dir = filepath.Join(root, filepath.Dir(r.file))
	out, err := cmd.CombinedOutput()
	if err == nil {
		return fmt.Errorf("with occurrence %d of %q in %s replaced by %q, %s passes: no test catches the row", r.nth, r.pattern, r.file, r.with, r.test)
	}
	if !bytes.Contains(out, []byte("--- FAIL: "+r.test+" (")) {
		out = out[max(0, len(out)-4096):]
		return fmt.Errorf("with occurrence %d of %q in %s replaced by %q, %s did not fail within 60 s:\n%s", r.nth, r.pattern, r.file, r.with, r.test, out)
	}
	return nil
}

// passMutations gives each pass lockMutations does not pin a real-tree
// line of its own, replaced so that its pass, and only its pass,
// objects. Every row passes its package's tests, the buffer-ownership
// rows under -race and the budgetTimeout row under lockcheck: nothing
// else sees them.
var passMutations = []mutation{
	{"core reads the wall clock", []string{"./internal/core"}, "internal/core/client.go",
		"start: c.cfg.Clock.Now()}", 1, "clock-discipline", "start: time.Now()}"},
	{"ablations draw from the global rand", []string{"./internal/experiments"}, "internal/experiments/ablations.go",
		"if rng.Intn(3) != 0", 1, "seeded-rand", "if rand.Intn(3) != 0 || len(live) == 0 {"},
	{"cloneRemote ignores an Mclose error", []string{"./internal/region"}, "internal/region/cache.go",
		"_ = c.dodo.Mclose(mfd)", 1, "unchecked-error", "c.dodo.Mclose(mfd)"},
	{"kickRecovery sends under c.mu", []string{"./internal/core"}, "internal/core/recover.go",
		"if c.cfg.DisableRecovery {", 1, "mutex-hygiene", "c.mu.Lock(); defer c.mu.Unlock(); if c.cfg.DisableRecovery {"},
	{"budgetTimeout sends under ep.mu and rx.mu", []string{"./internal/bulk"}, "internal/bulk/transfer.go",
		"rx.err = ErrTimeout", 1, "mutex-hygiene", "rx.err = ErrTimeout; _ = ep.tr.Send(rx.from, []byte{})"},
	{"serve writes its response after Send", []string{"./internal/bulk"}, "internal/bulk/endpoint.go",
		"_ = ep.tr.Send(from, out)", 1, "buffer-ownership", "_ = ep.tr.Send(from, out); out[0] = 0"},
	{"handleData keeps a borrowed payload", []string{"./internal/bulk"}, "internal/bulk/transfer.go",
		"copy(rx.buf[lo:], payload)", 1, "buffer-ownership",
		"if !rx.external && lo == 0 && len(payload) == len(rx.buf) { rx.buf = payload } else { copy(rx.buf[lo:], payload) }"},
}

func TestPassMutations(t *testing.T) {
	tr := mutations(t)
	for _, m := range passMutations {
		t.Run(m.name, func(t *testing.T) {
			fs := tr.check(t, m)
			if len(fs) == 0 {
				t.Fatalf("replacing %q in %s with %q produced no finding: %s would miss this", m.pattern, m.file, m.with, m.rule)
			}
			for _, f := range fs {
				if f.Analyzer != m.rule {
					t.Errorf("the %s row is caught by another pass too: %s", m.rule, f)
				}
			}
		})
	}
}

// replaceNthMatch replaces the text of the nth line containing pattern
// with with, keeping the line's indentation, and reports whether the
// line was found.
func replaceNthMatch(src, pattern string, nth int, with string) (string, bool) {
	lines := strings.Split(src, "\n")
	seen := 0
	for i, l := range lines {
		if strings.Contains(l, pattern) {
			seen++
			if seen == nth {
				lines[i] = l[:len(l)-len(strings.TrimLeft(l, " \t"))] + with
				return strings.Join(lines, "\n"), true
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
