package lint

import (
	"encoding/json"
	"path/filepath"

	"crowdsky/internal/lint/analysis"
)

// This file renders findings as SARIF 2.1.0 for code-scanning UIs
// (GitHub uploads, IDE plugins). The SARIF writer emits only the properties skylint has real
// values for — a minimal, schema-valid subset of the format.

// SARIF 2.1.0 document structure (the subset skylint emits).
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID string `json:"ruleId"`
	// RuleIndex is the result's index into the driver rules array. The
	// rules are the full registry in All() order, so the index for a
	// given analyzer is identical across runs, package orderings, and
	// flag combinations (-tests or not).
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

const sarifSchemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

// ToSARIF renders findings as a SARIF 2.1.0 log. The analyzers parameter
// populates the rule table (every registered analyzer appears, found or
// not, so rule metadata is stable across runs); findings must already be
// sorted if deterministic output matters to the caller.
func ToSARIF(findings []Finding, analyzers []*analysis.Analyzer) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers))
	ruleIndex := make(map[string]int, len(analyzers))
	for i, a := range analyzers {
		ruleIndex[a.Name] = i
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	// Overlapping package patterns (or -tests loading a package twice)
	// can surface the same diagnostic from more than one root; a SARIF
	// consumer treats each result as distinct, so exact duplicates are
	// dropped here.
	seen := make(map[Finding]bool, len(findings))
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		if seen[f] {
			continue
		}
		seen[f] = true
		idx, ok := ruleIndex[f.Analyzer]
		if !ok {
			idx = -1 // SARIF's "not in the rules array" sentinel
		}
		results = append(results, sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: idx,
			Level:     "warning",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					// SARIF artifact URIs always use forward slashes.
					ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(f.File)},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}
	doc := sarifLog{
		Schema:  sarifSchemaURI,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "skylint", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(doc, "", "  ")
}
