package policyfile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/policy"
)

const validPolicy = `{
  "services": [
    {"name": "itool", "privilege": ["ti"], "confidentiality": ["ti"]},
    {"name": "wiki",  "privilege": ["tw"], "confidentiality": ["tw"]},
    {"name": "docs"}
  ],
  "mode": "enforcing",
  "tpar": 0.4,
  "secrets": [{"name": "db", "value": "hunter22"}]
}`

func TestParseValid(t *testing.T) {
	p, err := Parse(strings.NewReader(validPolicy))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Services) != 3 {
		t.Errorf("services=%d", len(p.Services))
	}
	if p.Mode != "enforcing" || p.PolicyMode() != policy.ModeEnforcing {
		t.Errorf("mode=%q", p.Mode)
	}
	if p.Tpar != 0.4 {
		t.Errorf("tpar=%v", p.Tpar)
	}
	// Defaults applied.
	if p.Tdoc != 0.5 {
		t.Errorf("tdoc default=%v", p.Tdoc)
	}
	if len(p.Secrets) != 1 || p.Secrets[0].Name != "db" {
		t.Errorf("secrets=%+v", p.Secrets)
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse(strings.NewReader(`{"services":[{"name":"docs"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != "advisory" || p.Tpar != 0.5 || p.Tdoc != 0.5 {
		t.Errorf("defaults: %+v", p)
	}
	if p.PolicyMode() != policy.ModeAdvisory {
		t.Error("default mode should be advisory")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "malformed", give: `{`},
		{name: "no services", give: `{"services":[]}`},
		{name: "empty name", give: `{"services":[{"name":""}]}`},
		{name: "duplicate", give: `{"services":[{"name":"a"},{"name":"a"}]}`},
		{name: "bad mode", give: `{"services":[{"name":"a"}],"mode":"yolo"}`},
		{name: "bad tpar", give: `{"services":[{"name":"a"}],"tpar":2}`},
		{name: "bad tdoc", give: `{"services":[{"name":"a"}],"tdoc":-1}`},
		{name: "secret missing value", give: `{"services":[{"name":"a"}],"secrets":[{"name":"x"}]}`},
		{name: "unknown field", give: `{"services":[{"name":"a"}],"bogus":1}`},
		{name: "transforms", give: `{"services":[{"name":"a"}],"transforms":[{"name":"redact","suppresses":["a"]}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tt.give)); err == nil {
				t.Errorf("accepted: %s", tt.give)
			}
		})
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(path, []byte(validPolicy), 0o600); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Services) != 3 {
		t.Errorf("services=%d", len(p.Services))
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	p, err := Parse(strings.NewReader(validPolicy))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Services) != len(p.Services) || p2.Mode != p.Mode || p2.Tpar != p.Tpar {
		t.Errorf("round trip mismatch: %+v vs %+v", p2, p)
	}
}

func TestPolicyModeMapping(t *testing.T) {
	for mode, want := range map[string]policy.Mode{
		"advisory":   policy.ModeAdvisory,
		"enforcing":  policy.ModeEnforcing,
		"encrypting": policy.ModeEncrypting,
		"":           policy.ModeAdvisory,
	} {
		p := Policy{Mode: mode}
		if got := p.PolicyMode(); got != want {
			t.Errorf("mode %q -> %v, want %v", mode, got, want)
		}
	}
}
