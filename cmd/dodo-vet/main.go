// dodo-vet is the repository's static-analysis suite: it loads every
// package matched by its arguments and enforces the determinism and
// concurrency invariants the simulation-backed evaluation depends on
// (see internal/vet for the rules).
//
// Usage:
//
//	dodo-vet [-list] [-json] [-sarif] [-only rules] [-skip rules] [packages...]
//
// With no package arguments it checks ./... . Findings print one per
// line as "file:line: analyzer: message", as a JSON array with -json,
// or as a SARIF 2.1.0 log with -sarif (the format code-scanning
// dashboards ingest; every selected rule appears in the log's rule
// table whether or not it fired, and file paths are relative to the
// working directory). -list prints every registered rule with its
// one-line doc and exits. Rule selection:
//
//	-only lock-order,buffer-ownership   run only the named rules
//	-skip wire-exhaustiveness           run all but the named rules
//
// Whatever the selection, a comment the tool is meant to read but
// cannot — an unknown dodo: verb, a directive where nothing reads it, a
// //vet:ignore naming no rule — is reported under the name dodo-vet.
//
// With -json, a load failure is reported as a JSON object
// {"error": "..."} on stdout (exit status 2 as usual) so scripted
// consumers never have to parse stderr.
//
// Exit status:
//
//	0  no findings
//	1  at least one invariant violated
//	2  usage error, or the packages could not be loaded
//
// Packages go list matches but cannot analyze (a compile error, a
// dependency with no export data) are reported on stderr and skipped;
// they do not affect the exit status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dodo/internal/vet"
)

// jsonFinding is the -json output shape, one element per finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "print the available rules and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	only := flag.String("only", "", "comma-separated rule names to run (default: all)")
	skip := flag.String("skip", "", "comma-separated rule names to leave out")
	flag.Parse()

	if *list {
		for _, a := range vet.All() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "dodo-vet: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}
	if *only != "" && *skip != "" {
		fmt.Fprintln(os.Stderr, "dodo-vet: -only and -skip are mutually exclusive")
		os.Exit(2)
	}

	analyzers := vet.All()
	byName := make(map[string]*vet.Analyzer)
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	parseNames := func(csv string) []string {
		var names []string
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := byName[name]; !ok {
				fmt.Fprintf(os.Stderr, "dodo-vet: unknown rule %q (see -list)\n", name)
				os.Exit(2)
			}
			names = append(names, name)
		}
		return names
	}
	switch {
	case *only != "":
		analyzers = nil
		for _, name := range parseNames(*only) {
			analyzers = append(analyzers, byName[name])
		}
	case *skip != "":
		skipped := make(map[string]bool)
		for _, name := range parseNames(*skip) {
			skipped[name] = true
		}
		kept := analyzers[:0]
		for _, a := range analyzers {
			if !skipped[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "dodo-vet: no rules selected")
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// loadFail reports a fatal load problem and exits 2. Under -json
	// the report goes to stdout as {"error": "..."} so consumers of the
	// JSON stream see the failure in-band rather than on stderr.
	loadFail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			_ = enc.Encode(map[string]string{"error": msg})
		} else {
			fmt.Fprintf(os.Stderr, "dodo-vet: %s\n", msg)
		}
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		loadFail("%v", err)
	}
	passes, skippedPkgs, err := vet.LoadPackages(wd, patterns...)
	if err != nil {
		loadFail("%v", err)
	}
	for _, s := range skippedPkgs {
		fmt.Fprintf(os.Stderr, "dodo-vet: skipping %s\n", s)
	}
	if len(passes) == 0 {
		loadFail("no packages to analyze")
	}

	findings := vet.Check(passes, analyzers)
	switch {
	case *sarifOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(vet.NewSARIFLog(analyzers, findings, wd)); err != nil {
			fmt.Fprintf(os.Stderr, "dodo-vet: %v\n", err)
			os.Exit(2)
		}
	case *jsonOut:
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "dodo-vet: %v\n", err)
			os.Exit(2)
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dodo-vet: %d finding(s) in %d package(s)\n", len(findings), len(passes))
		os.Exit(1)
	}
}
