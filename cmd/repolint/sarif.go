// sarif.go renders findings as SARIF 2.1.0, the interchange format
// GitHub code scanning ingests. The emitted log is deliberately
// minimal — one run, one tool, rules for every analyzer in the suite
// (so rule metadata is present even on clean runs), and one result per
// finding with a physical location relative to the module root. The
// shape is locked by a golden snapshot test; extend it append-only.
package main

import (
	"encoding/json"
	"io"

	"repro/internal/lint"
	"repro/internal/lint/escape"
)

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
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
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
	StartColumn int `json:"startColumn"`
}

// sarifLevel maps the suite's two severities onto SARIF's vocabulary.
func sarifLevel(s lint.Severity) string {
	if s == lint.SevError {
		return "error"
	}
	return "warning"
}

// buildSARIF assembles the log: the full rule table in suite order
// (analyzers, then the compiler-truth gates) and one result per
// finding. Results is never null so a clean run still renders
// `"results": []`.
func buildSARIF(findings []lint.Finding) sarifLog {
	var rules []sarifRule
	for _, a := range lint.Analyzers() {
		rules = append(rules, sarifRule{ID: a.Name(), ShortDescription: sarifMessage{Text: a.Doc()}})
	}
	rules = append(rules,
		sarifRule{ID: escape.Name, ShortDescription: sarifMessage{Text: escape.Doc}},
		sarifRule{ID: escape.BCEName, ShortDescription: sarifMessage{Text: escape.BCEDoc}},
	)
	results := []sarifResult{}
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   sarifLevel(f.Severity),
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: f.File},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}
	return sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "repolint", Rules: rules}}, Results: results}},
	}
}

// writeSARIF renders the log with the same two-space indentation as
// -json, locked by the golden snapshot.
func writeSARIF(w io.Writer, findings []lint.Finding) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildSARIF(findings))
}
