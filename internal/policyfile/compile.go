package policyfile

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"

	"github.com/lsds/browserflow/internal/tdm"
)

// Compiled is a policy flattened for the runtime: class inheritance and
// propagation resolved into per-service labels over a sorted tag
// universe. The compiled form is deterministic — the same document always
// produces the same labels and the same Hash — so two devices can compare
// policy fingerprints over /healthz.
type Compiled struct {
	// Source is the validated policy the artefact was compiled from, with
	// defaults applied.
	Source Policy

	// Services holds the flat resolved labels, sorted by name.
	Services []ResolvedService

	// Table is the tag universe: every tag the policy mentions, sorted.
	Table []tdm.Tag

	hash string
}

// Compile validates and flattens a policy. It refuses to compile a policy
// carrying any error-severity diagnostic, so a compiled policy can only
// exist for a loadable one — the fuzz harness leans on this: every input
// either fails with a typed error or yields a Validate-clean compile.
func Compile(p Policy) (*Compiled, error) {
	if diag := firstError(p.diagnostics(nil, false)); diag != nil {
		return nil, diag.err()
	}
	p.applyDefaults()

	res := newResolver(p)
	c := &Compiled{Source: p}
	for _, s := range p.Services {
		c.Services = append(c.Services, res.resolveService(s))
	}
	sort.Slice(c.Services, func(i, j int) bool { return c.Services[i].Name < c.Services[j].Name })

	// The tag universe is sorted, so the policy hash is independent of
	// declaration order.
	universe := stringSet{}
	for _, rs := range c.Services {
		for _, t := range rs.Privilege {
			universe[string(t)] = true
		}
		for _, t := range rs.Confidentiality {
			universe[string(t)] = true
		}
		for _, t := range rs.Untrusted {
			universe[string(t)] = true
		}
	}
	c.Table = toTags(universe.sorted())

	c.hash = c.fingerprint()
	return c, nil
}

// Hash returns the compiled policy's fingerprint: a sha256 over the
// resolved labels, tag universe, mode, thresholds and secret names. Devices
// expose it on /healthz so drift between fleet members is visible.
func (c *Compiled) Hash() string { return c.hash }

func (c *Compiled) fingerprint() string {
	h := sha256.New()
	w := func(parts ...string) {
		for _, s := range parts {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	w("mode", c.Source.Mode,
		"tpar", strconv.FormatFloat(c.Source.Tpar, 'g', -1, 64),
		"tdoc", strconv.FormatFloat(c.Source.Tdoc, 'g', -1, 64))
	w("tags")
	for _, t := range c.Table {
		w(string(t))
	}
	for _, rs := range c.Services {
		w("service", rs.Name)
		w("priv")
		for _, t := range rs.Privilege {
			w(string(t))
		}
		w("conf")
		for _, t := range rs.Confidentiality {
			w(string(t))
		}
		w("untrusted")
		for _, t := range rs.Untrusted {
			w(string(t))
		}
	}
	// Secrets participate by name only: the fingerprint is shared over
	// /healthz and must not leak secret material.
	for _, s := range c.Source.Secrets {
		w("secret", s.Name)
	}
	return hex.EncodeToString(h.Sum(nil))
}
