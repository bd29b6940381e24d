package tdm

import (
	"encoding/binary"
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
	if !reflect.DeepEqual(x, y) {
		t.Fatalf("two exports of one registry differ:\n%+v\n%+v", x, y)
	}
}

// randomRegistry drives a random operation stream — observations from four
// services, implicit-tag refreshes, shadow labels, suppressions, custom tags
// with owners, grants — into a fresh registry.
func randomRegistry(t testing.TB, seed int64, steps int) *Registry {
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

// TestDecodeExportDataRejectsCorruption truncates, flips and extends
// payloads of both codecs: every outcome is a *wire.Error inside the
// payload or a payload that decodes and imports — never a panic. Then it
// takes payloads apart by hand: what no registry encodes to is refused.
func TestDecodeExportDataRejectsCorruption(t *testing.T) {
	data := randomRegistry(t, 7, 200).Export()
	rng := rand.New(rand.NewSource(99))
	for _, blob := range [][]byte{data.AppendBinary(nil), appendPerSegment(data)} {
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
			checkDecode(t, mut)
		}
	}

	if len(data.Labels) < 2 || data.Segments[0].Label != 0 {
		t.Fatalf("the registry exports %d labels; the cases below need two", len(data.Labels))
	}
	for _, tc := range []struct {
		name   string
		mutate func(d *ExportData)
	}{
		{"an index past the table", func(d *ExportData) { d.Segments[len(d.Segments)-1].Label = len(d.Labels) }},
		{"an entry named before the one before it", func(d *ExportData) { d.Segments[0].Label = 1 }},
		{"an entry no segment names", func(d *ExportData) { d.Labels = append(d.Labels, LabelRecord{Explicit: []Tag{"unnamed"}}) }},
		{"two equal entries", func(d *ExportData) { d.Labels = append(d.Labels, d.Labels[1]) }},
		{"a set out of order", func(d *ExportData) { d.Labels[0].StoredBy = []string{"wiki", "docs"} }},
	} {
		d := randomRegistry(t, 7, 200).Export()
		tc.mutate(&d)
		blob := d.AppendBinary(nil)
		_, err := DecodeExportData(blob)
		var we *wire.Error
		if !errors.As(err, &we) {
			t.Fatalf("%s: err=%v, want a *wire.Error", tc.name, err)
		}
		// The index is the payload's last field, and the reader fails where
		// it stands: just past it.
		if tc.name == "an index past the table" && we.Offset != len(blob) {
			t.Errorf("%s: refused at offset %d, want %d, past the index", tc.name, we.Offset, len(blob))
		}
	}

	// A table length no payload of this size could hold is refused before
	// anything is allocated for it.
	huge := binary.AppendUvarint([]byte{exportCodecVersion, 0, 0}, 1<<40)
	if _, err := DecodeExportData(append(huge, make([]byte, 64)...)); err == nil {
		t.Error("a label table of 2^40 entries in 68 bytes decoded")
	}
}

// checkDecode decodes data and requires a *wire.Error inside it with no
// data, or a result that imports and then exports to what its own
// encoding decodes to.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeExportData(data)
	if err != nil {
		var we *wire.Error
		if !errors.As(err, &we) || we.Offset < 0 || we.Offset > len(data) {
			t.Fatalf("err=%v, want a *wire.Error inside the payload", err)
		}
		if !reflect.DeepEqual(got, ExportData{}) {
			t.Fatalf("a rejected payload returned data")
		}
		return
	}
	r := NewRegistry(nil, nil)
	r.Import(got)
	exported := r.Export()
	again, err := DecodeExportData(exported.AppendBinary(nil))
	if err != nil {
		t.Fatalf("the export of an accepted payload does not decode: %v", err)
	}
	r2 := NewRegistry(nil, nil)
	r2.Import(again)
	if !reflect.DeepEqual(r2.Export(), exported) {
		t.Fatalf("an accepted payload is no fixed point after one round trip")
	}
}

// FuzzDecodeExportData throws bytes at the registry section's decoder,
// which a recovering node runs over its checkpoint and a bootstrapping
// standby over a primary's image. Seeds are payloads of both codecs.
func FuzzDecodeExportData(f *testing.F) {
	for _, r := range []*Registry{randomRegistry(f, 7, 200), twoLabelRegistry(f, 40)} {
		data := r.Export()
		f.Add(data.AppendBinary(nil))
		f.Add(appendPerSegment(data))
	}
	f.Add([]byte{})
	f.Fuzz(checkDecode)
}

// twoLabelRegistry is n paragraphs ingested from two services in turn: n
// labelled segments over two distinct labels and two stored-by sets.
func twoLabelRegistry(t testing.TB, n int) *Registry {
	t.Helper()
	r := NewRegistry(nil, nil)
	for _, name := range []string{"wiki", "docs"} {
		mustRegister(t, r, name, NewTagSet("tw"), NewTagSet(Tag("t"+name)))
	}
	for i := 0; i < n; i++ {
		service := []string{"wiki", "docs"}[i%2]
		if err := r.ObserveSegment(segment.ID(fmt.Sprintf("%s/page%04d#p%d", service, i/32, i/2%16)), service); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestRegistryImageBytes pins the registry section at a label table entry
// per distinct label: 20 000 segments over two labels encode in their
// front-coded IDs, a byte of label index each, and what an export without
// segments encodes to (services, tags, the two-entry table) but for its
// segment count. Codec 1, a label per segment, took 183 951 B for them.
func TestRegistryImageBytes(t *testing.T) {
	const n = 20000
	data := twoLabelRegistry(t, n).Export()
	ids, prev := 0, ""
	for _, s := range data.Segments {
		ids += len(wire.AppendFrontCoded(nil, prev, string(s.Seg)))
		prev = string(s.Seg)
	}
	rest := data
	rest.Segments = nil
	bound := len(rest.AppendBinary(nil)) - 1 + len(binary.AppendUvarint(nil, n)) + ids + n
	if got := len(data.AppendBinary(nil)); got > bound || len(data.Labels) != 2 {
		t.Errorf("%d segments over %d labels encode in %d B, want at most %d", n, len(data.Labels), got, bound)
	}
}

// TestExportAllocs: Export allocates per distinct label, not per segment,
// so as often at 2 000 segments as at 20 000. Building a record per
// segment, it made 5 allocations a segment (10 017 and 100 017).
func TestExportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under -race")
	}
	var allocs [2]float64
	for i, n := range []int{2000, 20000} {
		r := twoLabelRegistry(t, n)
		allocs[i] = testing.AllocsPerRun(10, func() { r.Export() })
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Export makes %v allocations at 2 000 segments and %v at 20 000", allocs[0], allocs[1])
	}
}

// TestImportInternsEachEntryOnce: a registry restored from either codec
// interns exactly as many label values and stored-by sets as the registry
// exported, and exports the same.
func TestImportInternsEachEntryOnce(t *testing.T) {
	r := twoLabelRegistry(t, 2000)
	data := r.Export()
	for name, blob := range map[string][]byte{"codec 2": data.AppendBinary(nil), "codec 1": appendPerSegment(data)} {
		decoded, err := DecodeExportData(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r2 := NewRegistry(nil, nil)
		r2.Import(decoded)
		if len(r2.interned) != len(r.interned) || len(r2.storedSets) != len(r.storedSets) {
			t.Errorf("%s: restored registry interns %d labels and %d stored-by sets, the exported one %d and %d",
				name, len(r2.interned), len(r2.storedSets), len(r.interned), len(r.storedSets))
		}
		if !reflect.DeepEqual(r2.Export(), data) {
			t.Errorf("%s: restored registry exports differently", name)
		}
	}
}

// appendPerSegment encodes d in codec 1, which container version 4 wrote:
// no label table, and each segment's entry after its ID.
func appendPerSegment(d ExportData) []byte {
	table := make(map[string]uint64)
	buf := []byte{1}
	str := func(s string) {
		i, known := table[s]
		if !known {
			i = uint64(len(table))
			table[s] = i
		}
		if buf = binary.AppendUvarint(buf, i); !known {
			buf = wire.AppendString(buf, s)
		}
	}
	set := func(names []string) {
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, name := range names {
			str(name)
		}
	}
	tags := func(t []Tag) {
		names := make([]string, len(t))
		for i := range t {
			names[i] = string(t[i])
		}
		set(names)
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Services)))
	for _, svc := range d.Services {
		str(svc.Name)
		tags(svc.Privilege)
		tags(svc.Confidentiality)
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Tags)))
	for _, rec := range d.Tags {
		str(string(rec.Tag))
		str(rec.Owner)
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Segments)))
	prev := ""
	for _, s := range d.Segments {
		buf = wire.AppendFrontCoded(buf, prev, string(s.Seg))
		prev = string(s.Seg)
		l := d.Labels[s.Label]
		tags(l.Explicit)
		tags(l.Implicit)
		tags(l.Suppressed)
		set(l.StoredBy)
	}
	return buf
}
