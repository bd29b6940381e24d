// Package policyfile loads, compiles and lints enterprise data disclosure
// policies. §3.1: "Policies are set by enterprise-wide administrators
// once" — this is the artefact administrators author and ship to every
// device. Beyond the flat service list, the language supports named
// service classes that services inherit labels from and tag-propagation
// rules ("a segment tagged X also counts as tagged Y"):
//
//	{
//	  "classes": [
//	    {"name": "internal", "privilege": ["tc"], "confidentiality": ["tc"]}
//	  ],
//	  "services": [
//	    {"name": "itool", "class": "internal", "privilege": ["ti"], "confidentiality": ["ti"]},
//	    {"name": "wiki",  "privilege": ["tw"], "confidentiality": ["tw"]},
//	    {"name": "docs"}
//	  ],
//	  "propagation": [
//	    {"tag": "ti", "implies": ["tc"]}
//	  ],
//	  "mode": "advisory",
//	  "tpar": 0.5,
//	  "tdoc": 0.5,
//	  "secrets": [
//	    {"name": "prod-db-password", "value": "..."}
//	  ]
//	}
//
// Compile resolves class inheritance and propagation into flat per-service
// labels, which the TDM registry is built from, and fingerprints the
// result. Lint runs the static analysis pass behind `bfctl policy lint`.
package policyfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/lsds/browserflow/internal/policy"
)

// ClassSpec declares a named service class whose labels member services
// inherit. Classes may themselves extend other classes; cycles are
// rejected.
type ClassSpec struct {
	Name            string   `json:"name"`
	Extends         []string `json:"extends,omitempty"`
	Privilege       []string `json:"privilege,omitempty"`
	Confidentiality []string `json:"confidentiality,omitempty"`
	Untrusted       []string `json:"untrusted,omitempty"`
}

// ServiceSpec declares one cloud service. Its effective labels are the
// union of its own lists and those of its class chain. Untrusted is an
// assertion, not a subtraction: a tag that ends up both granted and
// untrusted for the same service is a policy contradiction and rejected.
type ServiceSpec struct {
	Name            string   `json:"name"`
	Class           string   `json:"class,omitempty"`
	Privilege       []string `json:"privilege,omitempty"`
	Confidentiality []string `json:"confidentiality,omitempty"`
	Untrusted       []string `json:"untrusted,omitempty"`
}

// PropagationRule declares tag implication: a segment carrying Tag is
// treated as also carrying every tag in Implies. The compiler expands the
// transitive closure into every confidentiality label at compile time, so
// the runtime engine never walks the rule graph.
type PropagationRule struct {
	Tag     string   `json:"tag"`
	Implies []string `json:"implies"`
}

// SecretSpec registers one exact-match secret.
type SecretSpec struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Policy is the root document.
type Policy struct {
	Classes  []ClassSpec   `json:"classes,omitempty"`
	Services []ServiceSpec `json:"services"`

	Propagation []PropagationRule `json:"propagation,omitempty"`

	// Mode is "advisory" (default), "enforcing" or "encrypting".
	Mode string `json:"mode,omitempty"`

	// Tpar and Tdoc are the default disclosure thresholds (default 0.5).
	Tpar float64 `json:"tpar,omitempty"`
	Tdoc float64 `json:"tdoc,omitempty"`

	// Secrets to protect by exact matching.
	Secrets []SecretSpec `json:"secrets,omitempty"`
}

// Error is a positional policy error. Offset is the byte offset of the
// offending element into the source document, or -1 when the policy was
// built in memory; the rendering matches store.CorruptSnapshotError so
// every load failure points at the byte.
type Error struct {
	Path   string // JSON path of the offending element ("services[2].name")
	Offset int64  // byte offset into the document; -1 when unknown
	Msg    string
}

// Error implements the error interface.
func (e *Error) Error() string {
	switch {
	case e.Offset >= 0 && e.Path != "":
		return fmt.Sprintf("policyfile: %s at byte %d: %s", e.Path, e.Offset, e.Msg)
	case e.Offset >= 0:
		return fmt.Sprintf("policyfile: at byte %d: %s", e.Offset, e.Msg)
	case e.Path != "":
		return fmt.Sprintf("policyfile: %s: %s", e.Path, e.Msg)
	default:
		return "policyfile: " + e.Msg
	}
}

// Parse reads and validates a policy document.
func Parse(r io.Reader) (Policy, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Policy{}, fmt.Errorf("policyfile: %w", err)
	}
	return ParseBytes(data)
}

// ParseBytes parses and validates a policy document from memory. Decode
// and validation failures carry the byte offset of the offending element.
func ParseBytes(data []byte) (Policy, error) {
	p, err := decode(data)
	if err != nil {
		return Policy{}, err
	}
	idx := scanOffsets(data)
	if diag := firstError(p.diagnostics(idx, false)); diag != nil {
		return Policy{}, diag.err()
	}
	p.applyDefaults()
	return p, nil
}

// decode unmarshals the document, converting the standard library's
// decode errors into positional ones: json.SyntaxError and
// json.UnmarshalTypeError know the byte they stopped at, and losing that
// offset made broken policies needlessly hard to fix.
func decode(data []byte) (Policy, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Policy
	if err := dec.Decode(&p); err != nil {
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			return Policy{}, &Error{Offset: syn.Offset, Msg: syn.Error()}
		}
		var typ *json.UnmarshalTypeError
		if errors.As(err, &typ) {
			return Policy{}, &Error{Path: typ.Field, Offset: typ.Offset, Msg: fmt.Sprintf("cannot decode %s into %s", typ.Value, typ.Type)}
		}
		return Policy{}, &Error{Offset: dec.InputOffset(), Msg: err.Error()}
	}
	// A second document after the first is an authoring error, not
	// trailing whitespace.
	if dec.More() {
		return Policy{}, &Error{Offset: dec.InputOffset(), Msg: "trailing data after policy document"}
	}
	return p, nil
}

// Load parses a policy file from disk.
func Load(path string) (Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Policy{}, fmt.Errorf("policyfile: %w", err)
	}
	return ParseBytes(data)
}

// Validate checks the structural constraints Parse enforces: service and
// class naming, mode and thresholds, class references and inheritance
// cycles, privilege/untrusted contradictions, and that every
// confidentiality tag is granted in at least one privilege label. For a
// policy built in memory the errors carry paths but no byte offsets.
func (p Policy) Validate() error {
	if diag := firstError(p.diagnostics(nil, false)); diag != nil {
		return diag.err()
	}
	return nil
}

func (p *Policy) applyDefaults() {
	if p.Mode == "" {
		p.Mode = "advisory"
	}
	if p.Tpar == 0 {
		p.Tpar = 0.5
	}
	if p.Tdoc == 0 {
		p.Tdoc = 0.5
	}
}

// PolicyMode converts the mode string.
func (p Policy) PolicyMode() policy.Mode {
	switch p.Mode {
	case "enforcing":
		return policy.ModeEnforcing
	case "encrypting":
		return policy.ModeEncrypting
	default:
		return policy.ModeAdvisory
	}
}

// Write serialises the policy as indented JSON.
func (p Policy) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}
