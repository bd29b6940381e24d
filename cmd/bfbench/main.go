// Command bfbench regenerates the paper's evaluation tables and figures
// (§6) from the synthetic corpora.
//
// Usage:
//
//	bfbench -experiment all
//	bfbench -experiment fig9a
//	bfbench -experiment fig13 -scale paper
//
// Experiments: table1, fig8, fig9a, fig9b, fig9adoc, fig9bdoc, fig10,
// fig11, fig12, fig13, ablation-cache, ablation-auth, ablation-winnow,
// baseline, orgsim, usability, and all (every one of those, in that order).
//
// All but fig12, fig13 and ablation-cache are goldens: they print counts,
// ratios and verdicts, no timings, so at default scale and seed 1 their
// output is fixed by the code. golden_test.go holds each to
// testdata/<name>.txt and to its block in EXPERIMENTS.md. After a change
// that is meant to move them, re-record both with
//
//	go test ./cmd/bfbench -run Golden -update
//
// (or `make experiments`) and say in CHANGES.md what the diff means.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/expt"
	"github.com/lsds/browserflow/internal/fingerprint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bfbench:", err)
		os.Exit(1)
	}
}

// order is what -experiment all runs.
var order = []string{"table1", "fig8", "fig9a", "fig9b", "fig9adoc",
	"fig9bdoc", "fig10", "fig11", "fig12", "fig13", "ablation-cache",
	"ablation-auth", "ablation-winnow", "baseline", "orgsim", "usability"}

// run runs the experiments args select, printing each output to stdout.
func run(args []string, stdout io.Writer) error {
	experiments := strings.Join(order, ", ") + ", all"
	fs := flag.NewFlagSet("bfbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment to run ("+experiments+")")
		scaleName  = fs.String("scale", "default", "corpus scale: default or paper")
		seed       = fs.Int64("seed", 1, "generator seed")
		revisions  = fs.Int("revisions", 0, "override revisions per article")
		books      = fs.Int("books", 0, "override e-book count")
		tpar       = fs.Float64("tpar", 0.5, "paragraph disclosure threshold")
		samples    = fs.Int("samples", 10, "revision samples per article (fig9)")
		steps      = fs.Int("steps", 5, "database size steps (fig13)")
		probes     = fs.Int("probes", 20, "paste probes per step (fig13)")
		outDir     = fs.String("out", "", "also write each experiment's output to <out>/<name>.txt")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := expt.DefaultScale()
	if *scaleName == "paper" {
		scale = expt.PaperScale()
	} else if *scaleName != "default" {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	scale.Seed = *seed
	if *revisions > 0 {
		scale.Revisions = *revisions
	}
	if *books > 0 {
		scale.Books = *books
	}

	fpCfg := fingerprint.DefaultConfig()
	params := disclosure.DefaultParams()
	params.Tpar = *tpar

	runners := map[string]func() (string, error){
		"table1": func() (string, error) {
			return expt.RunTable1(scale).Format(), nil
		},
		"fig8": func() (string, error) {
			return expt.RunFigure8(scale).Format(), nil
		},
		"fig9a": func() (string, error) {
			r, err := expt.RunFigure9(scale, true, *samples, fpCfg, *tpar)
			return r.Format(), err
		},
		"fig9b": func() (string, error) {
			r, err := expt.RunFigure9(scale, false, *samples, fpCfg, *tpar)
			return r.Format(), err
		},
		"fig9adoc": func() (string, error) {
			r, err := expt.RunFigure9Doc(scale, true, *samples, fpCfg)
			return r.Format(), err
		},
		"fig9bdoc": func() (string, error) {
			r, err := expt.RunFigure9Doc(scale, false, *samples, fpCfg)
			return r.Format(), err
		},
		"fig10": func() (string, error) {
			r, err := expt.RunFigure10(scale, fpCfg, *tpar)
			return r.Format(), err
		},
		"fig11": func() (string, error) {
			r, err := expt.RunFigure11(scale, fpCfg, 0.1)
			return r.Format(), err
		},
		"fig12": func() (string, error) {
			r, err := expt.RunFigure12(scale, params)
			return r.Format(), err
		},
		"fig13": func() (string, error) {
			r, err := expt.RunFigure13(scale, params, *steps, *probes)
			return r.Format(), err
		},
		"ablation-cache": func() (string, error) {
			r, err := expt.RunAblationCache(scale, params)
			return r.Format(), err
		},
		"ablation-auth": func() (string, error) {
			r, err := expt.RunAblationAuthoritative(scale, params, 20)
			return r.Format(), err
		},
		"ablation-winnow": func() (string, error) {
			r, err := expt.RunAblationWinnowParams(scale)
			return r.Format(), err
		},
		"baseline": func() (string, error) {
			r, err := expt.RunBaselineComparison(scale, params)
			return r.Format(), err
		},
		"orgsim": func() (string, error) {
			cfg := expt.DefaultOrgSimConfig()
			cfg.Seed = *seed
			r, err := expt.RunOrgSim(cfg, params)
			if err != nil {
				return "", err
			}
			sweep, err := expt.RunOrgSimSweep(cfg, params, 5)
			if err != nil {
				return "", err
			}
			return r.Format() + "\n" + sweep.Format(), nil
		},
		"usability": func() (string, error) {
			r, err := expt.RunUsabilityComparison(scale, params)
			return r.Format(), err
		},
	}
	selected := order
	if *experiment != "all" {
		if _, ok := runners[*experiment]; !ok {
			return fmt.Errorf("unknown experiment %q (try: %s)", *experiment, experiments)
		}
		selected = []string{*experiment}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("create out dir: %w", err)
		}
	}
	for _, name := range selected {
		out, err := runners[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout, out)
		if *outDir != "" {
			path := filepath.Join(*outDir, name+".txt")
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	return nil
}
