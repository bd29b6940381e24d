package policyfile

import (
	"reflect"
	"sort"
	"testing"

	"github.com/lsds/browserflow/internal/tdm"
)

func compileFixture(t *testing.T, name string) *Compiled {
	t.Helper()
	p, err := ParseBytes(readFixture(t, name))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileResolvesClassesAndPropagation(t *testing.T) {
	c := compileFixture(t, "enterprise-classes.json")

	byName := make(map[string]ResolvedService, len(c.Services))
	for _, rs := range c.Services {
		byName[rs.Name] = rs
	}
	hr := byName["hr-portal"]
	// pii-handler extends base-internal: corp+pii on both labels, and
	// "pii implies corp" is already satisfied.
	if got, want := hr.Privilege, []tdm.Tag{"corp", "pii"}; !reflect.DeepEqual(got, want) {
		t.Errorf("hr-portal priv=%v want %v", got, want)
	}
	if got, want := hr.Confidentiality, []tdm.Tag{"corp", "pii"}; !reflect.DeepEqual(got, want) {
		t.Errorf("hr-portal conf=%v want %v", got, want)
	}
	wiki := byName["wiki"]
	if got, want := wiki.Privilege, []tdm.Tag{"corp", "wiki"}; !reflect.DeepEqual(got, want) {
		t.Errorf("wiki priv=%v want %v", got, want)
	}
	crm := byName["crm"]
	if got, want := crm.Untrusted, []tdm.Tag{"pii"}; !reflect.DeepEqual(got, want) {
		t.Errorf("crm untrusted=%v want %v", got, want)
	}
	if len(byName["public-blog"].Privilege) != 0 {
		t.Errorf("public-blog priv=%v", byName["public-blog"].Privilege)
	}

	// Services and the tag universe are sorted for determinism.
	if !sort.SliceIsSorted(c.Services, func(i, j int) bool { return c.Services[i].Name < c.Services[j].Name }) {
		t.Error("services not sorted")
	}
	if !sort.SliceIsSorted(c.Table, func(i, j int) bool { return c.Table[i] < c.Table[j] }) {
		t.Errorf("tag universe not sorted: %v", c.Table)
	}
}

func TestCompileRefusesInvalidPolicy(t *testing.T) {
	p := Policy{Services: []ServiceSpec{{Name: "a"}, {Name: "a"}}}
	if _, err := Compile(p); err == nil {
		t.Fatal("compiled a duplicate-service policy")
	}
	if _, err := Compile(Policy{}); err == nil {
		t.Fatal("compiled an empty policy")
	}
}

func TestCompileHashDeterministicAcrossOrder(t *testing.T) {
	a := `{"services":[
	  {"name":"wiki","privilege":["tw"],"confidentiality":["tw"]},
	  {"name":"itool","privilege":["ti","tw"],"confidentiality":["ti"]}
	]}`
	b := `{"services":[
	  {"name":"itool","privilege":["tw","ti"],"confidentiality":["ti"]},
	  {"name":"wiki","privilege":["tw"],"confidentiality":["tw"]}
	]}`
	compile := func(doc string) *Compiled {
		p, err := ParseBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ca, cb := compile(a), compile(b)
	if ca.Hash() == "" || ca.Hash() != cb.Hash() {
		t.Errorf("hash not order-independent: %s vs %s", ca.Hash(), cb.Hash())
	}
	// A semantic change moves the hash.
	cc := compile(`{"services":[
	  {"name":"wiki","privilege":["tw"],"confidentiality":["tw"]},
	  {"name":"itool","privilege":["ti","tw"],"confidentiality":["ti"]}
	],"mode":"enforcing"}`)
	if cc.Hash() == ca.Hash() {
		t.Error("mode change did not move the hash")
	}
}

func TestCompileAppliesDefaults(t *testing.T) {
	p, err := ParseBytes([]byte(`{"services":[{"name":"docs"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Source.Mode != "advisory" || c.Source.Tpar != 0.5 || c.Source.Tdoc != 0.5 {
		t.Errorf("defaults not applied: %+v", c.Source)
	}
}
