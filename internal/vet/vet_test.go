package vet

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wantRe extracts the quoted expectation patterns from a // want
// comment; both forms are accepted: want "pat" and want `pat`.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants parses the fixture's // want comments into positional
// expectations, keyed to the line the comment sits on.
func collectWants(t *testing.T, pass *Pass) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[idx:], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

// runGolden checks one analyzer against its testdata fixture: every
// finding must match a // want comment on its line, and every want
// must be hit. The run goes through Check, so //vet:ignore directives
// are honored — a fixture site carrying a directive and no want comment
// proves the suppression path works — and a directive the tool cannot
// read is a finding like any other.
func runGolden(t *testing.T, a *Analyzer, fixture, pkgPath string) {
	t.Helper()
	pass, err := LoadFixtureDir("testdata/"+fixture, pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pass)
	findings := Check([]*Pass{pass}, []*Analyzer{a})
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.pattern.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// fixturePaths maps each testdata fixture to the import path it is
// type-checked under (path-sensitive analyzers key off it).
var fixturePaths = map[string]string{
	"bufown":    "dodo/internal/usocket",
	"clock":     "dodo/internal/experiments",
	"errcheck":  "dodo/internal/core",
	"guardedby": "dodo/internal/manager",
	"mutex":     "dodo/internal/manager",
	"rand":      "dodo/internal/workload",
	"resource":  "dodo/internal/region",
	"rpclock":   "dodo/internal/transport",
}

// TestFixtureFindingsExact pins finding text, not just shape: the
// // want regexps above match loosely, so every analyzer is run over
// every fixture and the sorted "file:line: analyzer: message" lines
// are compared with testdata/findings.golden byte for byte. A change
// that rewords, moves, adds or loses a finding must edit the golden
// file in the same commit, where a reviewer sees it.
func TestFixtureFindingsExact(t *testing.T) {
	var names []string
	for name := range fixturePaths {
		names = append(names, name)
	}
	sort.Strings(names)
	var got []string
	for _, name := range names {
		pass, err := LoadFixtureDir("testdata/"+name, fixturePaths[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range Check([]*Pass{pass}, All()) {
			got = append(got, f.String())
		}
	}
	sort.Strings(got)
	data, err := os.ReadFile("testdata/findings.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
		if !inWant[l] {
			t.Errorf("not in findings.golden: %s", l)
		}
	}
	for _, l := range want {
		if !inGot[l] {
			t.Errorf("findings.golden line no longer produced: %s", l)
		}
	}
	if !t.Failed() && strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings.golden has the right lines in the wrong order or multiplicity; want sorted:\n%s", strings.Join(got, "\n"))
	}
}

func TestClockDisciplineGolden(t *testing.T) {
	runGolden(t, ClockDiscipline, "clock", "dodo/internal/experiments")
}

func TestClockDisciplineAllowlist(t *testing.T) {
	// The same fixture checked under an allowlisted import path must be
	// silent: sim/transport/usocket implement the clocks themselves.
	pass, err := LoadFixtureDir("testdata/clock", "dodo/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if fs := ClockDiscipline.run(newProgram([]*Pass{pass})); len(fs) != 0 {
		t.Fatalf("allowlisted package produced findings: %v", fs)
	}
}

func TestSeededRandGolden(t *testing.T) {
	runGolden(t, SeededRand, "rand", "dodo/internal/workload")
}

func TestUncheckedErrorGolden(t *testing.T) {
	runGolden(t, UncheckedError, "errcheck", "dodo/internal/core")
}

func TestMutexHygieneGolden(t *testing.T) {
	runGolden(t, MutexHygiene, "mutex", "dodo/internal/manager")
}

func TestMutexHygieneRPCGolden(t *testing.T) {
	runGolden(t, MutexHygiene, "rpclock", "dodo/internal/transport")
}

// TestCopylocks runs go vet's copylocks check, which owns the receiver
// and copy rules for lock-bearing types: the module is clean, and each
// of the six copies in the mutex fixture is reported, nothing else.
func TestCopylocks(t *testing.T) {
	const fixture = "internal/vet/testdata/mutex"
	cmd := exec.Command("go", "vet", "-copylocks", "./...", "./"+fixture)
	cmd.Dir = "../.."
	out, _ := cmd.CombinedOutput()
	var got []int
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rest, ok := strings.CutPrefix(line, fixture+"/mutex.go:")
		n, err := strconv.Atoi(strings.SplitN(rest, ":", 2)[0])
		if !ok || err != nil {
			t.Errorf("go vet -copylocks: unexpected line: %s", line)
			continue
		}
		got = append(got, n)
	}
	sort.Ints(got)
	if want := []int{23, 41, 48, 51, 53, 55}; !slices.Equal(got, want) {
		t.Errorf("go vet -copylocks reported fixture lines %v, want %v", got, want)
	}
}

func TestBufferOwnershipGolden(t *testing.T) {
	runGolden(t, BufferOwnership, "bufown", "dodo/internal/usocket")
}

func TestBufferOwnershipOnlyZeroCopyPackages(t *testing.T) {
	// Outside the zero-copy set the same fixture must be silent:
	// ordinary packages own the slices they pass around.
	pass, err := LoadFixtureDir("testdata/bufown", "dodo/internal/manager")
	if err != nil {
		t.Fatal(err)
	}
	if fs := BufferOwnership.run(newProgram([]*Pass{pass})); len(fs) != 0 {
		t.Fatalf("non-zero-copy package produced findings: %v", fs)
	}
}

func TestGuardedByGolden(t *testing.T) {
	runGolden(t, GuardedBy, "guardedby", "dodo/internal/manager")
}

func TestGuardedBySkipsNonInternal(t *testing.T) {
	// Outside internal/ the same fixture must be silent: cmd and example
	// binaries hold no annotated shared state by policy.
	pass, err := LoadFixtureDir("testdata/guardedby", "dodo/cmd/dodo-bench")
	if err != nil {
		t.Fatal(err)
	}
	if fs := GuardedBy.run(newProgram([]*Pass{pass})); len(fs) != 0 {
		t.Fatalf("non-internal package produced findings: %v", fs)
	}
}

// TestCleanTree is the enforcement test: the repository itself must be
// free of findings. It is the same check `go run ./cmd/dodo-vet ./...`
// performs in verify.sh, kept here so a plain `go test ./...` also
// fails when an invariant regresses.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	passes, skipped, err := LoadPackages("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, s := range skipped {
		t.Errorf("package skipped: %s", s)
	}
	findings := Check(passes, All())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestFindingFormat pins the file:line: analyzer: message contract that
// editors and CI log-matchers rely on.
func TestFindingFormat(t *testing.T) {
	pass, err := LoadFixtureDir("testdata/clock", "dodo/internal/experiments")
	if err != nil {
		t.Fatal(err)
	}
	findings := ClockDiscipline.Run(pass)
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings")
	}
	got := findings[0].String()
	want := fmt.Sprintf("%s:%d: clock-discipline: ", findings[0].Pos.Filename, findings[0].Pos.Line)
	if !strings.HasPrefix(got, want) {
		t.Fatalf("finding %q does not start with %q", got, want)
	}
}

// TestLoadPackagesExcludesTests documents that the loader analyzes only
// non-test compilation units.
func TestLoadPackagesExcludesTests(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	passes, _, err := LoadPackages("../..", "./internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range passes {
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("test file %s was loaded", name)
			}
		}
	}
}

func TestResourceLifecycleGolden(t *testing.T) {
	runGolden(t, ResourceLifecycle, "resource", "dodo/internal/region")
}
