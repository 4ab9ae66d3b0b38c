package vet

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestSARIFStructure validates the -sarif output against the SARIF
// 2.1.0 structural requirements GitHub code scanning enforces: version
// and $schema pinned to 2.1.0, a named driver whose rule table covers
// every ruleId, in-bounds ruleIndex values, one physical location per
// result with a relative forward-slash URI and a 1-based startLine.
// The findings come from a real analyzer run over the resource fixture
// so the shapes under test are the shapes production emits.
func TestSARIFStructure(t *testing.T) {
	pass, err := LoadFixtureDir("testdata/resource", "dodo/internal/region")
	if err != nil {
		t.Fatal(err)
	}
	findings := Check([]*Pass{pass}, []*Analyzer{ResourceLifecycle})
	if len(findings) == 0 {
		t.Fatal("resource fixture produced no findings; the structural checks below would be vacuous")
	}
	root := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	log := NewSARIFLog(All(), findings, root)

	data, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	// Decode generically: the assertions must hold on the emitted JSON,
	// not on Go-side struct defaults.
	var doc struct {
		Version string `json:"version"`
		Schema  string `json:"$schema"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex *int   `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}

	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if !strings.Contains(doc.Schema, "sarif-2.1.0") {
		t.Errorf("$schema = %q, want a sarif-2.1.0 schema URI", doc.Schema)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name == "" {
		t.Error("tool.driver.name is empty")
	}
	ruleIdx := make(map[string]int)
	for i, r := range run.Tool.Driver.Rules {
		if r.ID == "" {
			t.Fatalf("rules[%d].id is empty", i)
		}
		if _, dup := ruleIdx[r.ID]; dup {
			t.Errorf("duplicate rule id %q", r.ID)
		}
		if r.ShortDescription.Text == "" {
			t.Errorf("rules[%d] (%s) has no shortDescription.text", i, r.ID)
		}
		ruleIdx[r.ID] = i
	}
	// Every registered analyzer must be in the rule table: a clean rule
	// must read as "ran clean", not "never ran".
	for _, a := range All() {
		if _, ok := ruleIdx[a.Name]; !ok {
			t.Errorf("analyzer %q missing from the rule table", a.Name)
		}
	}
	if len(run.Results) != len(findings) {
		t.Fatalf("results = %d, want %d (one per finding)", len(run.Results), len(findings))
	}
	for i, res := range run.Results {
		idx, known := ruleIdx[res.RuleID]
		if !known {
			t.Errorf("results[%d].ruleId %q not in the rule table", i, res.RuleID)
		}
		if res.RuleIndex == nil {
			t.Errorf("results[%d] has no ruleIndex", i)
		} else if *res.RuleIndex != idx {
			t.Errorf("results[%d].ruleIndex = %d, want %d (index of %q)", i, *res.RuleIndex, idx, res.RuleID)
		}
		switch res.Level {
		case "error", "warning", "note":
		default:
			t.Errorf("results[%d].level = %q, not a SARIF level", i, res.Level)
		}
		if res.Message.Text == "" {
			t.Errorf("results[%d].message.text is empty", i)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("results[%d] has %d locations, want 1", i, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		uri := loc.ArtifactLocation.URI
		if uri == "" {
			t.Errorf("results[%d] has an empty artifact URI", i)
		}
		if strings.HasPrefix(uri, "/") || strings.Contains(uri, "\\") {
			t.Errorf("results[%d].uri = %q, want a relative forward-slash path", i, uri)
		}
		if loc.Region.StartLine < 1 {
			t.Errorf("results[%d].startLine = %d, want >= 1", i, loc.Region.StartLine)
		}
	}
}

// TestSARIFEmptyResults: a clean run still emits a valid log with an
// empty (not null) results array — required for upload on green runs.
func TestSARIFEmptyResults(t *testing.T) {
	data, err := json.Marshal(NewSARIFLog(All(), nil, "/tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"results":[]`) {
		t.Fatalf("empty run does not serialize results as []: %s", data)
	}
}
