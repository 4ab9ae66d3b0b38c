// dodo-vet is the repository's static-analysis suite: it loads every
// package matched by its arguments and enforces the determinism and
// concurrency invariants the simulation-backed evaluation depends on
// (see internal/vet for the rules).
//
// Usage:
//
//	dodo-vet [-list] [-sarif] [-only rules] [packages...]
//
// With no package arguments it checks ./... . Findings print one per
// line as "file:line: analyzer: message", or as a SARIF 2.1.0 log with
// -sarif (the format code-scanning dashboards ingest; every selected
// rule appears in the log's rule table whether or not it fired, and
// file paths are relative to the working directory). -list prints
// every registered rule with its one-line doc and exits.
// -only lock-order,buffer-ownership runs only the named rules.
//
// Whatever the selection, a comment the tool is meant to read but
// cannot — an unknown dodo: verb, a directive where nothing reads it, a
// //vet:ignore naming no rule — is reported under the name dodo-vet.
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

func main() {
	list := flag.Bool("list", false, "print the available rules and exit")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	only := flag.String("only", "", "comma-separated rule names to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range vet.All() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := vet.All()
	if *only != "" {
		byName := make(map[string]*vet.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				fmt.Fprintf(os.Stderr, "dodo-vet: unknown rule %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, byName[name])
		}
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "dodo-vet: no rules selected")
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// loadFail reports a fatal load problem and exits 2.
	loadFail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dodo-vet: "+format+"\n", args...)
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
	if *sarifOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(vet.NewSARIFLog(analyzers, findings, wd)); err != nil {
			fmt.Fprintf(os.Stderr, "dodo-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dodo-vet: %d finding(s) in %d package(s)\n", len(findings), len(passes))
		os.Exit(1)
	}
}
