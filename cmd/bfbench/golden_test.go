package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/<name>.txt and the EXPERIMENTS.md blocks from the current code")

// goldens are the experiments whose output is a pure function of the
// code, the default scale and the seed: every number they print is a
// count, a ratio or a verdict, never a timing. fig12, fig13 and
// ablation-cache time decisions, so they are left out.
var goldens = []string{"table1", "fig8", "fig9a", "fig9b", "fig9adoc",
	"fig9bdoc", "fig10", "fig11", "ablation-auth", "ablation-winnow",
	"baseline", "orgsim", "usability"}

// experimentsDoc is the paper-vs-measured write-up. It quotes each golden
// in a fenced block under a `<!-- golden: <name> -->` line, and nowhere
// else.
const experimentsDoc = "../../EXPERIMENTS.md"

var goldenBlock = regexp.MustCompile("(?s)<!-- golden: ([a-z0-9-]+) -->\n```\n(.*?)```\n")

// TestGoldenExperiments pins the paper's evaluation: each deterministic
// experiment, run through the command at default scale and seed 1, must
// print exactly testdata/<name>.txt, and every block of EXPERIMENTS.md
// must quote its golden exactly. A diff here means a verdict, a
// fingerprint or a corpus changed. Re-record with
// `go test ./cmd/bfbench -run Golden -update` only when that change is
// intended.
func TestGoldenExperiments(t *testing.T) {
	dir := t.TempDir()
	outputs := make(map[string][]byte, len(goldens))
	for _, name := range goldens {
		if err := run([]string{"-experiment", name, "-out", dir}, io.Discard); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		outputs[name] = got
		path := filepath.Join("testdata", name+".txt")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (record it with -update)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", name, path, got, want)
		}
	}
	checkExperimentsDoc(t, outputs)
}

// checkExperimentsDoc holds each golden block of EXPERIMENTS.md to the
// output it quotes, and requires every golden to be quoted; -update
// rewrites the blocks instead.
func checkExperimentsDoc(t *testing.T, outputs map[string][]byte) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	quoted := make(map[string]bool)
	for _, m := range goldenBlock.FindAllSubmatch(doc, -1) {
		name := string(m[1])
		if _, ok := outputs[name]; !ok {
			t.Errorf("EXPERIMENTS.md quotes %q, which is not a golden experiment", name)
		}
		quoted[name] = true
	}
	for _, name := range goldens {
		if !quoted[name] {
			t.Errorf("EXPERIMENTS.md has no `<!-- golden: %s -->` block", name)
		}
	}
	if *update {
		doc = goldenBlock.ReplaceAllFunc(doc, func(block []byte) []byte {
			name := string(goldenBlock.FindSubmatch(block)[1])
			return []byte("<!-- golden: " + name + " -->\n```\n" + string(outputs[name]) + "```\n")
		})
		if err := os.WriteFile(experimentsDoc, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, m := range goldenBlock.FindAllSubmatch(doc, -1) {
		if want, ok := outputs[string(m[1])]; ok && !bytes.Equal(m[2], want) {
			t.Errorf("EXPERIMENTS.md block %q is stale (re-record with -update):\n--- quoted\n%s--- output\n%s", m[1], m[2], want)
		}
	}
}
