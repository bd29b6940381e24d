package tdm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wire"
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
	r2 := NewRegistry(nil, nil)
	r2.Import(data)

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

// randomRegistry drives a random operation stream — observations from four
// services, implicit-tag refreshes, shadow labels, suppressions, custom tags
// with owners, grants — into a fresh registry.
func randomRegistry(t *testing.T, seed int64, steps int) *Registry {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := NewRegistry(nil, nil)
	services := []string{"wiki", "itool", "docs", ""}
	for i, name := range services {
		mustRegister(t, r, name, NewTagSet(Tag(fmt.Sprintf("t%d", i))), NewTagSet(Tag(fmt.Sprintf("t%d", i%3))))
	}
	tags := []Tag{"t0", "t1", "t2", "alice:deal", "bob:étude", ""}
	seg := func() segment.ID { return segment.ID(fmt.Sprintf("svc/doc%d#p%d", rng.Intn(6), rng.Intn(9))) }
	for i := 0; i < steps; i++ {
		user, tag, service := []string{"alice", "bob"}[rng.Intn(2)], tags[rng.Intn(len(tags))], services[rng.Intn(len(services))]
		switch rng.Intn(7) { // errors are part of the stream
		case 0, 1:
			_ = r.ObserveSegment(seg(), service)
		case 2:
			r.RefreshImplicit(seg(), []segment.ID{seg(), seg()})
		case 3:
			r.UpsertExplicit(seg(), tags[:rng.Intn(3)])
		case 4:
			_ = r.SuppressTag(user, seg(), tag, "because")
		case 5:
			_ = r.AllocateTag(user, tag)
			_ = r.AddTagToSegment(user, seg(), tag)
		case 6:
			_ = r.GrantTag(user, service, tag)
		}
	}
	return r
}

// TestExportBinaryRoundTrip: a registry imported from the binary encoding
// of an export exports the same again, and encodes to the same bytes.
func TestExportBinaryRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := randomRegistry(t, seed, int(seed)*15) // seed 0: the empty registry
		want := r.Export()
		blob := want.AppendBinary(nil)
		data, err := DecodeExportData(blob)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2 := NewRegistry(nil, nil)
		r2.Import(data)
		got := r2.Export()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: export after the round trip\n%+v\nbefore\n%+v", seed, got, want)
		}
		if again := got.AppendBinary(nil); !reflect.DeepEqual(again, blob) {
			t.Fatalf("seed %d: re-encoded to %d bytes, first encoding was %d", seed, len(again), len(blob))
		}
		if r2.DistinctLabels() != r.DistinctLabels() {
			t.Fatalf("seed %d: %d interned label values after the round trip, %d before", seed, r2.DistinctLabels(), r.DistinctLabels())
		}
	}
}

// TestDecodeExportDataRejectsCorruption truncates, flips and extends a
// payload: every outcome is a *wire.Error inside the payload or a payload
// that decodes and imports — never a panic.
func TestDecodeExportDataRejectsCorruption(t *testing.T) {
	blob := randomRegistry(t, 7, 200).Export().AppendBinary(nil)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 600; trial++ {
		mut := append([]byte(nil), blob...)
		switch trial % 3 {
		case 0:
			mut = mut[:rng.Intn(len(mut))]
		case 1:
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		case 2:
			mut = append(mut, byte(rng.Intn(256)))
		}
		data, err := DecodeExportData(mut)
		if err == nil {
			NewRegistry(nil, nil).Import(data) // a decoded payload imports without panicking
			continue
		}
		var we *wire.Error
		if !errors.As(err, &we) || we.Offset < 0 || we.Offset > len(mut) {
			t.Fatalf("trial %d: err=%v, want a *wire.Error inside the payload", trial, err)
		}
		if !reflect.DeepEqual(data, ExportData{}) {
			t.Fatalf("trial %d: a rejected payload returned data", trial)
		}
	}
}
