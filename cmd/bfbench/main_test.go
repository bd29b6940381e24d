package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSingleExperiments runs cheap experiments with the corpus
// overrides the goldens leave at their defaults, so -revisions and
// -books stay exercised.
func TestRunSingleExperiments(t *testing.T) {
	headers := map[string]string{
		"table1":          "Table 1: Datasets used for information disclosure evaluation\n",
		"fig8":            "Figure 8: Changes in article length (CDF)\n",
		"ablation-winnow": "Ablation: winnowing parameters (density vs robustness)\n",
	}
	for _, exp := range []string{"table1", "fig8", "ablation-winnow"} {
		t.Run(exp, func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{"-experiment", exp, "-revisions", "10", "-books", "2"}, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(out.String(), headers[exp]) {
				t.Errorf("output starts %q, want header %q", firstLine(out.String()), headers[exp])
			}
		})
	}
}

func TestRunFig11(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "fig11"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Figure 11: Impact of paragraph disclosure threshold\n") {
		t.Errorf("output starts %q", firstLine(out.String()))
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

func TestRunWritesOutputFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-experiment", "table1", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Wikipedia") {
		t.Errorf("output file content: %q", data)
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{name: "unknown experiment", args: []string{"-experiment", "fig99"}, want: `unknown experiment "fig99"`},
		// The per-PR perf harnesses are gone; bench/ is the one harness.
		{name: "retired harness", args: []string{"-experiment", "hotpath"}, want: `unknown experiment "hotpath"`},
		{name: "retired corpus ladder", args: []string{"-experiment", "corpus"}, want: `unknown experiment "corpus"`},
		{name: "retired corpus flag", args: []string{"-rss-budget-mb", "1"}, want: "flag provided but not defined"},
		{name: "unknown scale", args: []string{"-scale", "galactic"}, want: "unknown scale"},
		{name: "bad flag", args: []string{"-nope"}, want: "flag provided but not defined"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("args %v: err = %v, want one containing %q", tt.args, err, tt.want)
			}
		})
	}
}
