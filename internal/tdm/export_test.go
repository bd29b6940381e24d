package tdm

import (
	"testing"

	"github.com/lsds/browserflow/internal/segment"
)

func TestRegistryExportImportRoundTrip(t *testing.T) {
	r := paperRegistry(t)
	seg := segment.ID("itool/eval#p0")
	if err := r.ObserveSegment(seg, "itool"); err != nil {
		t.Fatal(err)
	}
	r.RefreshImplicit(seg, nil)
	if err := r.AllocateTag("alice", "tn"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTagToSegment("alice", seg, "tn"); err != nil {
		t.Fatal(err)
	}
	if err := r.SuppressTag("alice", seg, "tn", "test"); err != nil {
		t.Fatal(err)
	}

	data := r.Export()
	r2 := NewRegistry(nil)
	if err := r2.Import(data); err != nil {
		t.Fatal(err)
	}

	// Services restored.
	svc, err := r2.Service("itool")
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Privilege.Has("ti") || !svc.Privilege.Has("tn") {
		t.Errorf("itool privilege=%v", svc.Privilege)
	}
	// Label restored with suppression.
	label := r2.Label(seg)
	if label == nil || !label.Explicit().Has("tn") || !label.Suppressed().Has("tn") {
		t.Errorf("label=%v", label)
	}
	// Tag ownership restored.
	if owner, ok := r2.TagOwner("tn"); !ok || owner != "alice" {
		t.Errorf("owner=%q,%v", owner, ok)
	}
	// Storage restored.
	stored := r2.StoredBy(seg)
	if len(stored) != 1 || stored[0] != "itool" {
		t.Errorf("StoredBy=%v", stored)
	}
}

func TestRegistryExportDeterministic(t *testing.T) {
	r := paperRegistry(t)
	if err := r.ObserveSegment("wiki/a#p0", "wiki"); err != nil {
		t.Fatal(err)
	}
	if err := r.ObserveSegment("itool/b#p0", "itool"); err != nil {
		t.Fatal(err)
	}
	x, y := r.Export(), r.Export()
	if len(x.Labels) != len(y.Labels) || len(x.Services) != len(y.Services) {
		t.Fatal("size mismatch")
	}
	for i := range x.Labels {
		if x.Labels[i].Seg != y.Labels[i].Seg {
			t.Fatal("non-deterministic label order")
		}
	}
	for i := range x.Services {
		if x.Services[i].Name != y.Services[i].Name {
			t.Fatal("non-deterministic service order")
		}
	}
}
