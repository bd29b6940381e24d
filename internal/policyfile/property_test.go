package policyfile

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

var propTagPool = []string{"t0", "t1", "t2", "t3"}

// randomPolicy draws a small policy from a fixed tag pool. Most draws are
// not lint-clean; the property tests filter on the linter's own verdict.
func randomPolicy(rng *rand.Rand) Policy {
	var p Policy
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		var svc ServiceSpec
		svc.Name = fmt.Sprintf("svc%d", i)
		for _, t := range propTagPool {
			if rng.Intn(3) == 0 {
				svc.Privilege = append(svc.Privilege, t)
			}
			if rng.Intn(4) == 0 {
				svc.Confidentiality = append(svc.Confidentiality, t)
			}
		}
		p.Services = append(p.Services, svc)
	}
	if rng.Intn(3) == 0 {
		p.Propagation = append(p.Propagation, PropagationRule{
			Tag:     propTagPool[rng.Intn(len(propTagPool))],
			Implies: []string{propTagPool[rng.Intn(len(propTagPool))]},
		})
	}
	return p
}

// simulateFlows replays a random flow sequence against a compiled policy:
// segments are authored at random services (default tag assignment), and
// content moves between services only when CheckRelease allows it, each
// move deriving a new segment at the destination with implicit tags from
// its source. It reports whether a fail-open hole was reached: tagged
// content admitted into a service whose resolved confidentiality label is
// empty, where a retype (which drops implicit tags) would launder it.
func simulateFlows(t *testing.T, c *Compiled, rng *rand.Rand, steps int) bool {
	t.Helper()
	reg := tdm.NewRegistry(nil, nil)
	confEmpty := make(map[string]bool, len(c.Services))
	names := make([]string, 0, len(c.Services))
	for _, rs := range c.Services {
		if err := reg.RegisterService(rs.Name, tdm.NewTagSet(rs.Privilege...), tdm.NewTagSet(rs.Confidentiality...)); err != nil {
			t.Fatal(err)
		}
		confEmpty[rs.Name] = len(rs.Confidentiality) == 0
		names = append(names, rs.Name)
	}

	hole := false
	var segs []segment.ID
	next := 0
	author := func(svc string) segment.ID {
		seg := segment.ID(fmt.Sprintf("seg-%d", next))
		next++
		if err := reg.ObserveSegment(seg, svc); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
		return seg
	}
	for i := 0; i < steps; i++ {
		if len(segs) == 0 || rng.Intn(2) == 0 {
			author(names[rng.Intn(len(names))])
			continue
		}
		src := segs[rng.Intn(len(segs))]
		dst := names[rng.Intn(len(names))]
		ok, _, err := reg.CheckRelease(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		tagged := reg.Label(src).Effective().Len() > 0
		derived := author(dst)
		reg.RefreshImplicit(derived, []segment.ID{src})
		if tagged && confEmpty[dst] {
			hole = true
		}
	}
	return hole
}

// TestLintCleanNeverFailsOpen is the linter's soundness property for the
// fail-open rule: under any flow sequence the policy itself permits,
// tagged content never lands in a service that assigns no confidentiality
// label — the static rule covers the dynamic hole.
func TestLintCleanNeverFailsOpen(t *testing.T) {
	clean := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPolicy(rng)
		if len(p.diagnostics(nil, true)) != 0 {
			continue
		}
		clean++
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("seed %d: lint-clean policy fails Compile: %v", seed, err)
		}
		for run := int64(0); run < 3; run++ {
			frng := rand.New(rand.NewSource(seed<<8 | run))
			if simulateFlows(t, c, frng, 60) {
				t.Fatalf("seed %d run %d: lint-clean policy reached a fail-open hole", seed, run)
			}
		}
	}
	if clean < 10 {
		t.Fatalf("only %d lint-clean policies in 300 draws; generator too strict to test anything", clean)
	}
}

// TestFailOpenFixtureReachesHole is the companion completeness check: the
// fixture the linter warns about really does leak under the flows it
// permits, so the warning is not theoretical.
func TestFailOpenFixtureReachesHole(t *testing.T) {
	p, err := ParseBytes(readFixture(t, "broken-failopen.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	hole := false
	for run := int64(0); run < 10 && !hole; run++ {
		hole = simulateFlows(t, c, rand.New(rand.NewSource(run)), 80)
	}
	if !hole {
		t.Fatal("fail-open fixture never reached the hole the linter warns about")
	}
}

// cleanPolicies yields lint-clean policies: the shipping fixtures plus
// random draws, the inputs for metamorphic injection.
func cleanPolicies(t *testing.T) []Policy {
	t.Helper()
	var out []Policy
	for _, name := range []string{"seed-webapps.json", "enterprise-classes.json", "encrypting-notes.json"} {
		p, err := ParseBytes(readFixture(t, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	for seed := int64(0); seed < 200 && len(out) < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPolicy(rng)
		if len(p.diagnostics(nil, true)) == 0 {
			p.applyDefaults()
			out = append(out, p)
		}
	}
	return out
}

// lintHasRule lints an in-memory policy and reports whether rule fired.
func lintHasRule(p Policy, rule string) bool {
	for _, d := range p.diagnostics(nil, true) {
		if d.Rule == rule {
			return true
		}
	}
	return false
}

// TestMetamorphicInjections: injecting a defect into ANY lint-clean policy
// must always trip the matching rule, whatever else the policy contains.
func TestMetamorphicInjections(t *testing.T) {
	for i, base := range cleanPolicies(t) {
		res := newResolver(base)
		// A granted tag to contradict, and an assigned tag to dangle from a
		// conf-less service.
		var grantedSvc int = -1
		var grantedTag string
		allConf := stringSet{}
		for si, s := range base.Services {
			priv, conf, _ := res.service(s)
			if grantedSvc < 0 && len(priv) > 0 {
				grantedSvc, grantedTag = si, priv.sorted()[0]
			}
			for tag := range conf {
				allConf[tag] = true
			}
		}

		t.Run(fmt.Sprintf("policy%d/contradiction", i), func(t *testing.T) {
			if grantedSvc < 0 {
				t.Skip("no granted tag to contradict")
			}
			mut := base
			mut.Services = append([]ServiceSpec(nil), base.Services...)
			s := mut.Services[grantedSvc]
			s.Untrusted = append(append([]string(nil), s.Untrusted...), grantedTag)
			mut.Services[grantedSvc] = s
			if !lintHasRule(mut, "contradiction") {
				t.Error("injected contradiction not flagged")
			}
		})
		t.Run(fmt.Sprintf("policy%d/unreachable", i), func(t *testing.T) {
			mut := base
			mut.Services = append([]ServiceSpec(nil), base.Services...)
			s := mut.Services[0]
			s.Privilege = append(append([]string(nil), s.Privilege...), "zz-never-assigned")
			mut.Services[0] = s
			if !lintHasRule(mut, "unreachable-tag") {
				t.Error("injected unreachable grant not flagged")
			}
		})
		t.Run(fmt.Sprintf("policy%d/ungranted", i), func(t *testing.T) {
			mut := base
			mut.Services = append([]ServiceSpec(nil), base.Services...)
			s := mut.Services[0]
			s.Confidentiality = append(append([]string(nil), s.Confidentiality...), "zz-never-granted")
			mut.Services[0] = s
			if !lintHasRule(mut, "ungranted-tag") {
				t.Error("injected ungranted assignment not flagged")
			}
		})
		t.Run(fmt.Sprintf("policy%d/failopen", i), func(t *testing.T) {
			if len(allConf) == 0 {
				t.Skip("no assigned tag to leak")
			}
			mut := base
			mut.Services = append([]ServiceSpec(nil), base.Services...)
			mut.Services = append(mut.Services, ServiceSpec{Name: "zz-hole", Privilege: []string{allConf.sorted()[0]}})
			if !lintHasRule(mut, "fail-open") {
				t.Error("injected fail-open hole not flagged")
			}
		})
		t.Run(fmt.Sprintf("policy%d/cycle", i), func(t *testing.T) {
			mut := base
			mut.Classes = append(append([]ClassSpec(nil), base.Classes...),
				ClassSpec{Name: "zz-cyc-a", Extends: []string{"zz-cyc-b"}},
				ClassSpec{Name: "zz-cyc-b", Extends: []string{"zz-cyc-a"}})
			if !lintHasRule(mut, "inheritance-cycle") {
				t.Error("injected extends cycle not flagged")
			}
		})
	}
}
