package policyfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeeds feeds the corpus: the three shipping policies plus every
// broken fixture, so the fuzzer starts from both sides of the
// valid/invalid boundary.
func fuzzSeeds(f *testing.F) {
	f.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`{"services":[{"name":"a","privilege":["t"],"confidentiality":["t"],"untrusted":["t"]}]}`))
	f.Add([]byte(`{"classes":[{"name":"a","extends":["a"]}],"services":[{"name":"s"}]}`))
	f.Add([]byte(`{"services":[{"name":"s"}],"propagation":[{"tag":"a","implies":["b"]},{"tag":"b","implies":["a"]}]}`))
}

// FuzzParsePolicy asserts the parser's contract: any input either fails
// with a typed *Error (never a panic, never an untyped error) or yields a
// policy that re-validates clean.
func FuzzParsePolicy(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseBytes(data)
		if err != nil {
			var perr *Error
			if !errors.As(err, &perr) {
				t.Fatalf("untyped parse error %T: %v", err, err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("parsed policy fails Validate: %v", err)
		}
		// Lint on a parseable document never reports errors the parser
		// let through.
		if d := firstError(Lint(data)); d != nil {
			t.Fatalf("parse accepted what lint rejects: %s", d)
		}
	})
}

// FuzzCompilePolicy asserts the compiler's contract: parse→compile never
// panics, and every successful compile yields a deterministic table whose
// rows cover exactly the policy's services with all tags interned.
func FuzzCompilePolicy(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseBytes(data)
		if err != nil {
			return
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("validated policy fails Compile: %v", err)
		}
		c2, err := Compile(p)
		if err != nil || c.Hash() != c2.Hash() {
			t.Fatalf("compile not deterministic: %v / %s vs %s", err, c.Hash(), c2.Hash())
		}
		if len(c.Services) != len(p.Services) {
			t.Fatalf("resolved=%d services=%d", len(c.Services), len(p.Services))
		}
		inUniverse := make(map[string]bool, len(c.Table))
		for _, tag := range c.Table {
			inUniverse[string(tag)] = true
		}
		for _, rs := range c.Services {
			for _, tag := range rs.Privilege {
				if !inUniverse[string(tag)] {
					t.Fatalf("privilege tag %q not in the tag universe", tag)
				}
			}
			for _, tag := range rs.Confidentiality {
				if !inUniverse[string(tag)] {
					t.Fatalf("confidentiality tag %q not in the tag universe", tag)
				}
			}
		}
	})
}
