package policyfile

import (
	"errors"
	"fmt"
	"sort"
)

// Severity classifies a Diagnostic. Errors make a policy unloadable;
// warnings are lint findings a deliberately unusual policy may carry
// (tags can also enter the system as user custom tags at runtime, so an
// "unreachable" grant is suspicious rather than impossible).
type Severity int

const (
	SeverityWarning Severity = iota
	SeverityError
)

// String renders the severity the way compilers do.
func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding from validation or lint: a rule identifier, a
// severity, and the JSON path plus byte offset of the offending element.
type Diagnostic struct {
	Rule     string // stable rule id, e.g. "contradiction", "unreachable-tag"
	Severity Severity
	Path     string // JSON path of the offending element; "" for whole-document findings
	Offset   int64  // byte offset into the source document; -1 when unknown
	Msg      string
}

// String renders the diagnostic in the positional style of Error:
// "error: services[1].untrusted[0] at byte 212: ... [contradiction]".
func (d Diagnostic) String() string {
	s := d.Severity.String() + ": "
	switch {
	case d.Offset >= 0 && d.Path != "":
		s += fmt.Sprintf("%s at byte %d: %s", d.Path, d.Offset, d.Msg)
	case d.Offset >= 0:
		s += fmt.Sprintf("at byte %d: %s", d.Offset, d.Msg)
	case d.Path != "":
		s += d.Path + ": " + d.Msg
	default:
		s += d.Msg
	}
	return s + " [" + d.Rule + "]"
}

// err converts the diagnostic to the *Error Parse and Validate return.
func (d *Diagnostic) err() *Error {
	if d == nil {
		return nil
	}
	return &Error{Path: d.Path, Offset: d.Offset, Msg: d.Msg}
}

// firstError returns the first error-severity diagnostic, or nil.
func firstError(diags []Diagnostic) *Diagnostic {
	for i := range diags {
		if diags[i].Severity == SeverityError {
			return &diags[i]
		}
	}
	return nil
}

// Lint parses the document and returns every diagnostic the analyses
// produce, including the warning-severity ones Parse ignores. A document
// that does not decode yields a single syntax diagnostic carrying the
// decoder's byte offset.
func Lint(data []byte) []Diagnostic {
	p, err := decode(data)
	if err != nil {
		var perr *Error
		if errors.As(err, &perr) {
			return []Diagnostic{{Rule: "syntax", Severity: SeverityError, Path: perr.Path, Offset: perr.Offset, Msg: perr.Msg}}
		}
		return []Diagnostic{{Rule: "syntax", Severity: SeverityError, Offset: -1, Msg: err.Error()}}
	}
	return p.diagnostics(scanOffsets(data), true)
}

// diagnostics is the single analysis pass behind Validate, Parse and Lint.
// With lintLevel false it emits only the error-severity rules (the
// structural and semantic constraints a policy must satisfy to load); with
// lintLevel true it adds the warning-severity flow analyses. idx may be
// nil for in-memory policies, in which case offsets are -1.
func (p Policy) diagnostics(idx offsetIndex, lintLevel bool) []Diagnostic {
	var out []Diagnostic
	add := func(rule string, sev Severity, path, format string, args ...any) {
		out = append(out, Diagnostic{Rule: rule, Severity: sev, Path: path, Offset: idx.at(path), Msg: fmt.Sprintf(format, args...)})
	}

	// Document-level structure.
	switch p.Mode {
	case "", "advisory", "enforcing", "encrypting":
	default:
		add("bad-mode", SeverityError, "mode", "unknown mode %q (want advisory, enforcing or encrypting)", p.Mode)
	}
	if p.Tpar < 0 || p.Tpar > 1 {
		add("bad-threshold", SeverityError, "tpar", "tpar %v outside [0,1]", p.Tpar)
	}
	if p.Tdoc < 0 || p.Tdoc > 1 {
		add("bad-threshold", SeverityError, "tdoc", "tdoc %v outside [0,1]", p.Tdoc)
	}
	for i, s := range p.Secrets {
		if s.Name == "" {
			add("bad-secret", SeverityError, elemPath("secrets", i), "secret with empty name")
		}
		if s.Value == "" {
			add("bad-secret", SeverityError, elemPath("secrets", i), "secret %q has empty value", s.Name)
		}
	}

	// Classes: naming, references, inheritance cycles.
	classSeen := make(map[string]bool, len(p.Classes))
	for i, c := range p.Classes {
		path := elemPath("classes", i)
		if c.Name == "" {
			add("empty-name", SeverityError, path, "class with empty name")
			continue
		}
		if classSeen[c.Name] {
			add("duplicate-class", SeverityError, path+".name", "duplicate class %q", c.Name)
		}
		classSeen[c.Name] = true
		for j, parent := range c.Extends {
			if _, ok := findClass(p.Classes, parent); !ok {
				add("unknown-class", SeverityError, tagPath("classes", i, "extends", j), "class %q extends unknown class %q", c.Name, parent)
			}
		}
	}

	res := newResolver(p)
	for i, c := range p.Classes {
		if res.cycles[c.Name] {
			add("inheritance-cycle", SeverityError, elemPath("classes", i)+".extends", "class %q participates in an extends cycle", c.Name)
		}
	}

	// Propagation structure.
	for i, rule := range p.Propagation {
		if rule.Tag == "" {
			add("bad-propagation", SeverityError, elemPath("propagation", i), "propagation rule with empty tag")
		}
		if len(rule.Implies) == 0 {
			add("bad-propagation", SeverityError, elemPath("propagation", i), "propagation rule for %q implies nothing", rule.Tag)
		}
		for j, t := range rule.Implies {
			if t == "" {
				add("bad-propagation", SeverityError, tagPath("propagation", i, "implies", j), "propagation rule for %q implies an empty tag", rule.Tag)
			}
		}
	}

	// Services: naming, class references, contradictions.
	if len(p.Services) == 0 {
		add("no-services", SeverityError, "services", "no services defined")
	}
	svcSeen := make(map[string]bool, len(p.Services))
	resolved := make([]struct{ priv, conf, untrusted stringSet }, len(p.Services))
	for i, s := range p.Services {
		path := elemPath("services", i)
		if s.Name == "" {
			add("empty-name", SeverityError, path, "service with empty name")
		} else if svcSeen[s.Name] {
			add("duplicate-service", SeverityError, path+".name", "duplicate service %q", s.Name)
		}
		svcSeen[s.Name] = true
		if s.Class != "" && !classSeen[s.Class] {
			add("unknown-class", SeverityError, path+".class", "service %q references unknown class %q", s.Name, s.Class)
		}
		priv, conf, untrusted := res.service(s)
		resolved[i].priv, resolved[i].conf, resolved[i].untrusted = priv, conf, untrusted
		var contra []string
		for t := range priv {
			if untrusted[t] {
				contra = append(contra, t)
			}
		}
		sort.Strings(contra)
		for _, t := range contra {
			cpath := path
			for j, raw := range s.Untrusted {
				if raw == t {
					cpath = tagPath("services", i, "untrusted", j)
					break
				}
			}
			add("contradiction", SeverityError, cpath, "tag %q is both privileged and untrusted for service %q", t, s.Name)
		}
	}

	// Cross-service tag flow: every confidentiality tag must be granted
	// somewhere, or no service could ever receive the data it marks and the
	// rule is dead weight hiding a typo.
	allPriv := stringSet{}
	allConf := stringSet{}
	for i := range resolved {
		for t := range resolved[i].priv {
			allPriv[t] = true
		}
		for t := range resolved[i].conf {
			allConf[t] = true
		}
	}
	privOcc, confOcc := p.tagOccurrences()
	var ungranted []string
	for t := range allConf {
		if !allPriv[t] {
			ungranted = append(ungranted, t)
		}
	}
	sort.Strings(ungranted)
	for _, t := range ungranted {
		add("ungranted-tag", SeverityError, confOcc[t], "confidentiality tag %q is granted to no service", t)
	}

	if !lintLevel {
		return out
	}

	// Lint-only flow analyses.
	var unreachable []string
	for t := range allPriv {
		if !allConf[t] {
			unreachable = append(unreachable, t)
		}
	}
	sort.Strings(unreachable)
	for _, t := range unreachable {
		add("unreachable-tag", SeverityWarning, privOcc[t], "tag %q is granted to services but assigned by no confidentiality label", t)
	}
	for i, s := range p.Services {
		if len(resolved[i].conf) != 0 {
			continue
		}
		reachable := false
		for t := range resolved[i].priv {
			if allConf[t] {
				reachable = true
				break
			}
		}
		if reachable {
			add("fail-open", SeverityWarning, elemPath("services", i), "service %q receives tagged flows but assigns no confidentiality label: content authored there leaks untracked", s.Name)
		}
	}
	return out
}

// tagOccurrences indexes the first raw occurrence of every tag in
// privilege position and in confidentiality position, so flow diagnostics
// can point at the byte where the tag was written.
func (p Policy) tagOccurrences() (privOcc, confOcc map[string]string) {
	privOcc = make(map[string]string)
	confOcc = make(map[string]string)
	record := func(m map[string]string, tag, path string) {
		if _, ok := m[tag]; !ok {
			m[tag] = path
		}
	}
	for i, s := range p.Services {
		for j, t := range s.Privilege {
			record(privOcc, t, tagPath("services", i, "privilege", j))
		}
		for j, t := range s.Confidentiality {
			record(confOcc, t, tagPath("services", i, "confidentiality", j))
		}
	}
	for i, c := range p.Classes {
		for j, t := range c.Privilege {
			record(privOcc, t, tagPath("classes", i, "privilege", j))
		}
		for j, t := range c.Confidentiality {
			record(confOcc, t, tagPath("classes", i, "confidentiality", j))
		}
	}
	for i, rule := range p.Propagation {
		for j, t := range rule.Implies {
			record(confOcc, t, tagPath("propagation", i, "implies", j))
		}
	}
	return privOcc, confOcc
}

// findClass finds a class spec by name.
func findClass(classes []ClassSpec, name string) (ClassSpec, bool) {
	for _, c := range classes {
		if c.Name == name {
			return c, true
		}
	}
	return ClassSpec{}, false
}
