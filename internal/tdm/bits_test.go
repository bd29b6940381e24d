package tdm

import (
	"testing"

	"github.com/lsds/browserflow/internal/segment"
)

func TestBitsSetHasClear(t *testing.T) {
	var b Bits
	for _, id := range []int{0, 1, 63, 64, 65, 200} {
		b = b.set(id)
		if !b.has(id) {
			t.Errorf("bit %d not set", id)
		}
	}
	if b.has(2) || b.has(199) {
		t.Error("unset bit reads set")
	}
	b.clear(64)
	if b.has(64) {
		t.Error("cleared bit still set")
	}
	b.clear(100000) // out of range: no-op, no panic
	if b.Empty() {
		t.Error("non-empty bitset reads empty")
	}
	if !b.reset().Empty() {
		t.Error("reset bitset not empty")
	}
}

func TestBitsSubsetOf(t *testing.T) {
	mk := func(ids ...int) Bits {
		var b Bits
		for _, id := range ids {
			b = b.set(id)
		}
		return b
	}
	tests := []struct {
		a, b Bits
		want bool
	}{
		{nil, nil, true},
		{nil, mk(1), true},
		{mk(1), nil, false},
		{mk(1, 64), mk(1, 64, 200), true},
		{mk(1, 200), mk(1, 64), false},
		// Longer-but-zero high words on the left are still a subset.
		{mk(200).reset().set(1), mk(1), true},
	}
	for i, tt := range tests {
		if got := tt.a.SubsetOf(tt.b); got != tt.want {
			t.Errorf("case %d: SubsetOf=%v want %v", i, got, tt.want)
		}
	}
}

func TestBitsClone(t *testing.T) {
	b := Bits{}.set(3)
	c := b.Clone()
	c.clear(3)
	if !b.has(3) {
		t.Error("clone aliases original")
	}
	if Bits(nil).Clone() != nil {
		t.Error("nil clone not nil")
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("ta")
	if got := in.Intern("ta"); got != a {
		t.Errorf("re-intern moved id: %d vs %d", got, a)
	}
	b := in.Intern("tb")
	if a == b {
		t.Error("distinct tags share an id")
	}
	if in.Len() != 2 || in.Name(a) != "ta" || in.Name(b) != "tb" {
		t.Errorf("interner state: len=%d", in.Len())
	}
	if _, ok := in.ID("tc"); ok {
		t.Error("ID invented an id")
	}
}

func TestCheckTableAddRow(t *testing.T) {
	ct := NewCheckTable([]Tag{"ta", "tb"})
	if err := ct.AddRow("svc", []Tag{"ta"}, []Tag{"tb"}); err != nil {
		t.Fatal(err)
	}
	if err := ct.AddRow("bad", []Tag{"tz"}, nil); err == nil {
		t.Error("un-interned tag accepted")
	}
}

// newFastRegistry builds the wiki/itool/docs registry used across the
// fast-path tests, with the bitset path installed.
func newFastRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry(nil, nil)
	for _, svc := range []struct {
		name   string
		lp, lc []Tag
	}{
		{"wiki", []Tag{"tw"}, []Tag{"tw"}},
		{"itool", []Tag{"ti"}, []Tag{"ti"}},
		{"docs", nil, nil},
	} {
		if err := r.RegisterService(svc.name, NewTagSet(svc.lp...), NewTagSet(svc.lc...)); err != nil {
			t.Fatal(err)
		}
	}
	r.EnableFastCheck()
	return r
}

// TestFastCheckMatchesSemilattice drives both check paths through every
// label mutation the registry exposes and requires identical verdicts.
func TestFastCheckMatchesSemilattice(t *testing.T) {
	fast := newFastRegistry(t)
	slow := NewRegistry(nil, nil)
	for _, svc := range fast.Services() {
		if err := slow.RegisterService(svc.Name, svc.Privilege, svc.Confidentiality); err != nil {
			t.Fatal(err)
		}
	}

	type regOp func(r *Registry) error
	ops := []regOp{
		func(r *Registry) error { return r.ObserveSegment("s1", "wiki") },
		func(r *Registry) error { return r.ObserveSegment("s2", "itool") },
		func(r *Registry) error { return r.ObserveSegment("s3", "docs") },
		func(r *Registry) error { r.RefreshImplicit("s3", []segment.ID{"s1", "s2"}); return nil },
		func(r *Registry) error { return r.AllocateTag("alice", "custom.alice.x") },
		func(r *Registry) error { return r.AddTagToSegment("alice", "s1", "custom.alice.x") },
		func(r *Registry) error { return r.GrantTag("alice", "docs", "custom.alice.x") },
		func(r *Registry) error {
			return r.SuppressTag("alice", "s3", "tw", "reviewed: public figures only")
		},
		func(r *Registry) error { return r.RevokeTag("alice", "docs", "custom.alice.x") },
		func(r *Registry) error { r.UpsertExplicit("s4", []Tag{"tw", "ti"}); return nil },
	}
	check := func(step int) {
		t.Helper()
		for _, seg := range []segment.ID{"s1", "s2", "s3", "s4"} {
			for _, svc := range []string{"wiki", "itool", "docs"} {
				fok, fviol, ferr := fast.CheckRelease(seg, svc)
				sok, sviol, serr := slow.CheckRelease(seg, svc)
				if fok != sok || (ferr == nil) != (serr == nil) || len(fviol) != len(sviol) {
					t.Fatalf("step %d %s->%s: fast=(%v,%v,%v) slow=(%v,%v,%v)",
						step, seg, svc, fok, fviol, ferr, sok, sviol, serr)
				}
				for i := range fviol {
					if fviol[i] != sviol[i] {
						t.Fatalf("step %d %s->%s: violating %v vs %v", step, seg, svc, fviol, sviol)
					}
				}
			}
		}
	}
	for i, op := range ops {
		if err := op(fast); err != nil {
			t.Fatal(err)
		}
		if err := op(slow); err != nil {
			t.Fatal(err)
		}
		check(i)
	}
}

// TestFastCheckSurvivesImport rebuilds the fast state on snapshot import.
func TestFastCheckSurvivesImport(t *testing.T) {
	r := newFastRegistry(t)
	if err := r.ObserveSegment("s1", "wiki"); err != nil {
		t.Fatal(err)
	}
	snap := r.Export()

	r2 := newFastRegistry(t)
	if err := r2.ObserveSegment("junk", "itool"); err != nil {
		t.Fatal(err)
	}
	r2.Import(snap)
	if !r2.FastCheckEnabled() {
		t.Fatal("import dropped the fast path")
	}
	ok, _, err := r2.CheckRelease("s1", "wiki")
	if err != nil || !ok {
		t.Fatalf("wiki->wiki after import: ok=%v err=%v", ok, err)
	}
	ok, violating, err := r2.CheckRelease("s1", "itool")
	if err != nil || ok || len(violating) != 1 || violating[0] != "tw" {
		t.Fatalf("wiki->itool after import: ok=%v violating=%v err=%v", ok, violating, err)
	}
}

// TestLabelCopiesCannotReachTheRegistry: the registry's labels are shared
// immutable values, so the cached bitset needs no invalidation — provided
// nothing a caller can hold aliases them. Mutating every copy the API hands
// out must leave the verdict, and the labels of the segments sharing the
// value, untouched.
func TestLabelCopiesCannotReachTheRegistry(t *testing.T) {
	r := newFastRegistry(t)
	for _, seg := range []segment.ID{"s1", "s2"} {
		if err := r.ObserveSegment(seg, "wiki"); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.DistinctLabels(); n != 1 {
		t.Fatalf("two segments of one service hold %d label values, want 1", n)
	}
	label := r.Label("s1")
	label.AddExplicit("ti")
	label.Explicit().Add("ti")
	svc, err := r.Service("wiki")
	if err != nil {
		t.Fatal(err)
	}
	svc.Confidentiality.Add("ti") // default labels alias the service's own Lc, not this copy
	r.Export().Labels[0].Explicit[0] = "ti"
	for _, seg := range []segment.ID{"s1", "s2"} {
		if ok, violating, err := r.CheckRelease(seg, "wiki"); err != nil || !ok {
			t.Fatalf("%s: a mutated copy changed the verdict: ok=%v violating=%v err=%v", seg, ok, violating, err)
		}
		if got := r.Label(seg).Explicit(); got.Len() != 1 || !got.Has("tw") {
			t.Fatalf("%s: a mutated copy changed the label: %v", seg, got)
		}
	}
}

// TestCheckReleaseAllocFree pins the fast-path allow verdict at zero
// allocations: the whole point of the compiled table is that the hot
// cache-hit path stops paying for map iteration.
func TestCheckReleaseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under -race")
	}
	r := newFastRegistry(t)
	if err := r.ObserveSegment("s1", "wiki"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ok, _, err := r.CheckRelease("s1", "wiki")
		if !ok || err != nil {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("fast-path CheckRelease allocs=%v, want 0", allocs)
	}
}
