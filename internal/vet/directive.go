package vet

import (
	"fmt"
	"go/ast"
	"regexp"
	"sort"
	"strings"
)

// Directives are the comments dodo-vet reads. One table lists them all
// — where each may appear and its argument grammar — and one parser
// turns every comment of the program into a directive or a finding, so
// a typo cannot silently disable a check: an unknown verb, a directive
// in a place nothing reads, or a //vet:ignore naming no analyzer is
// reported under directiveRule wherever it is.
//
//	//vet:ignore <analyzer> — reason   drops that analyzer's findings
//	                                   on this line and the next
//	// dodo:guardedby <mutexfield>     struct field (guarded-by)
//	// dodo:atomic                     struct field (guarded-by)
//	// dodo:unguarded — <reason>       struct field (guarded-by)
//	// dodo:acquires(kind, ...)        function doc (resource-lifecycle)
//	// dodo:releases(kind, ...)        function doc (resource-lifecycle)
//	// dodo:transfers(kind, ...)       function doc (resource-lifecycle)
//	// dodo:adopts(param, ...)         function doc (buffer-ownership)
//
// //vet:ignore exists for reviewed false positives and says why on the
// same line; the directives are grep-able, so the set of exemptions is
// itself reviewable. A malformed argument to a dodo: verb is reported by
// the pass that owns it, in that pass's packages.

// directiveRule names the findings about the directives themselves.
// It is the tool's own name, not a rule of All(): it cannot be
// deselected or //vet:ignore'd.
const directiveRule = "dodo-vet"

type place int

const (
	anywhere place = iota
	onField        // a struct field's doc or trailing comment
	onFunc         // the doc comment of a function or interface method
)

func (p place) String() string {
	return [...]string{"anywhere", "in a struct field's comment", "in the doc comment of a function or interface method"}[p]
}

// directiveTable is every directive: where it may appear and the
// grammar of what follows the verb, which yields the arguments or a
// problem (the finding text, given the whole comment).
var directiveTable = map[string]struct {
	place place
	args  func(text, rest string) (args []string, problem string)
}{
	"vet:ignore":     {anywhere, wordArg("vet:ignore needs an analyzer name")},
	"dodo:guardedby": {onField, wordArg("dodo:guardedby needs a mutex field name")},
	"dodo:atomic":    {onField, func(_, _ string) ([]string, string) { return nil, "" }},
	"dodo:unguarded": {onField, func(_, rest string) ([]string, string) {
		if strings.TrimLeft(rest, " \t—–-") == "" {
			return nil, `dodo:unguarded needs a reason ("// dodo:unguarded — why")`
		}
		return nil, ""
	}},
	"dodo:acquires":  {onFunc, kindList},
	"dodo:releases":  {onFunc, kindList},
	"dodo:transfers": {onFunc, kindList},
	"dodo:adopts":    {onFunc, listArg("malformed directive %q: want dodo:adopts(param[, param...])")},
}

var kindList = listArg("malformed lifecycle directive %q: want dodo:acquires(kind[, kind...]), dodo:releases(...) or dodo:transfers(...)")

// wordArg is the grammar "one word, then anything".
func wordArg(missing string) func(text, rest string) ([]string, string) {
	return func(_, rest string) ([]string, string) {
		if fields := strings.Fields(rest); len(fields) > 0 {
			return fields[:1], ""
		}
		return nil, missing
	}
}

var listRe = regexp.MustCompile(`^\(([a-zA-Z0-9_, -]+)\)`)

// listArg is the grammar "(name[, name...])", then anything.
func listArg(malformed string) func(text, rest string) ([]string, string) {
	return func(text, rest string) ([]string, string) {
		m := listRe.FindStringSubmatch(rest)
		if m == nil {
			return nil, fmt.Sprintf(malformed, text)
		}
		args := strings.Split(m[1], ",")
		for i, a := range args {
			if args[i] = strings.TrimSpace(a); args[i] == "" {
				return nil, fmt.Sprintf(malformed, text)
			}
		}
		return args, ""
	}
}

// directive is one parsed comment.
type directive struct {
	verb    string
	args    []string
	problem string // grammar problem, reported by the verb's pass
	comment *ast.Comment
}

var verbRe = regexp.MustCompile(`^(vet|dodo):[a-zA-Z]*`)

// directiveIndex is every directive of the program: the dodo: ones by
// the comment group they sit in, the suppressions by file and line, and
// the findings about directives nothing will read.
type directiveIndex struct {
	in       map[*ast.CommentGroup][]*directive
	ignored  map[ignoreKey]bool
	problems []Finding
}

// ignoreKey is one line on which one analyzer's findings are dropped.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// parseDirectives is the one directive parser. A //vet:ignore on line N
// suppresses findings on lines N and N+1, so it works both trailing a
// statement and on its own line above one.
func parseDirectives(passes []*Pass) *directiveIndex {
	idx := &directiveIndex{in: map[*ast.CommentGroup][]*directive{}, ignored: map[ignoreKey]bool{}}
	analyzers := make(map[string]bool)
	for _, a := range All() {
		analyzers[a.Name] = true
	}
	for _, pass := range passes {
		for _, file := range pass.Files {
			var places map[*ast.CommentGroup]place // built at the first placed directive
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					verb := verbRe.FindString(text)
					if verb == "" {
						continue
					}
					problem := func(format string, args ...any) {
						idx.problems = append(idx.problems, findingAt(pass, directiveRule, c, format, args...))
					}
					row, known := directiveTable[verb]
					if !known {
						problem("unknown directive %q; dodo-vet reads %s", verb, strings.Join(directiveVerbs(), ", "))
						continue
					}
					if places == nil && row.place != anywhere {
						places = commentPlaces(file)
					}
					if row.place != anywhere && places[cg] != row.place {
						problem("%s is read only %s; here it does nothing", verb, row.place)
						continue
					}
					d := &directive{verb: verb, comment: c}
					d.args, d.problem = row.args(text, strings.TrimPrefix(text, verb))
					if verb != "vet:ignore" {
						idx.in[cg] = append(idx.in[cg], d)
						continue
					}
					if d.problem != "" {
						problem("%s", d.problem)
						continue
					}
					if !analyzers[d.args[0]] {
						problem("//vet:ignore names %q, which is no analyzer (see dodo-vet -list); it suppresses nothing", d.args[0])
						continue
					}
					pos := pass.Fset.Position(c.Pos())
					idx.ignored[ignoreKey{pos.Filename, pos.Line, d.args[0]}] = true
					idx.ignored[ignoreKey{pos.Filename, pos.Line + 1, d.args[0]}] = true
				}
			}
		}
	}
	return idx
}

func directiveVerbs() []string {
	var verbs []string
	for v := range directiveTable {
		verbs = append(verbs, v)
	}
	sort.Strings(verbs)
	return verbs
}

// commentPlaces maps the comment groups of file that sit where a placed
// directive is read to that place.
func commentPlaces(file *ast.File) map[*ast.CommentGroup]place {
	places := make(map[*ast.CommentGroup]place)
	mark := func(fields *ast.FieldList, p place) {
		for _, f := range fields.List {
			places[f.Doc], places[f.Comment] = p, p
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			places[n.Doc] = onFunc
		case *ast.StructType:
			mark(n.Fields, onField)
		case *ast.InterfaceType:
			mark(n.Methods, onFunc)
		}
		return true
	})
	return places
}

// of returns the dodo: directives in the given comment groups, in
// source order; nil groups are fine.
func (idx *directiveIndex) of(groups ...*ast.CommentGroup) []*directive {
	var out []*directive
	for _, cg := range groups {
		out = append(out, idx.in[cg]...)
	}
	return out
}

// suppresses reports whether a //vet:ignore covers the finding.
func (idx *directiveIndex) suppresses(f Finding) bool {
	return f.Analyzer != directiveRule && idx.ignored[ignoreKey{f.Pos.Filename, f.Pos.Line, f.Analyzer}]
}
