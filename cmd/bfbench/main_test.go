package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	// Keep fast: only cheap experiments, overridden to tiny corpora.
	for _, exp := range []string{"table1", "fig8", "ablation-winnow"} {
		t.Run(exp, func(t *testing.T) {
			if err := run([]string{"-experiment", exp, "-revisions", "10", "-books", "2"}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunFig11(t *testing.T) {
	if err := run([]string{"-experiment", "fig11"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesOutputFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-experiment", "table1", "-out", dir}); err != nil {
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
			err := run(tt.args)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("args %v: err = %v, want one containing %q", tt.args, err, tt.want)
			}
		})
	}
}
