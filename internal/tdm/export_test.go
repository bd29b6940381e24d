package tdm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// segIDs is the IDs of data's labelled segments, a table that names all
// of them.
func segIDs(data ExportData) []segment.ID {
	ids := make([]segment.ID, len(data.Segments))
	for i, s := range data.Segments {
		ids[i] = s.Seg
	}
	return ids
}

// halfTable is a segment table as a paragraph section could hold it
// beside data: every other labelled segment, each with an unlabelled one
// after it, ascending. The other half of the labelled segments is listed.
func halfTable(data ExportData) []segment.ID {
	var table []segment.ID
	for i := 0; i < len(data.Segments); i += 2 {
		table = append(table, data.Segments[i].Seg, data.Segments[i].Seg+"~unlabelled")
	}
	slices.Sort(table)
	return slices.Compact(table)
}

// TestExportBinaryRoundTrip: a registry imported from the binary encoding
// of an export, over no table, over half the labelled segments and over
// all of them, exports the same again, and encodes to the same bytes.
func TestExportBinaryRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := randomRegistry(t, seed, int(seed)*15) // seed 0: the empty registry
		want := r.Export()
		for name, table := range map[string][]segment.ID{"no table": nil, "half": halfTable(want), "all": segIDs(want)} {
			blob := want.AppendBinary(nil, table)
			data, err := DecodeExportData(blob, table)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			r2 := NewRegistry(nil, nil)
			r2.Import(data)
			got := r2.Export()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: export after the round trip\n%+v\nbefore\n%+v", seed, name, got, want)
			}
			if again := got.AppendBinary(nil, table); !reflect.DeepEqual(again, blob) {
				t.Fatalf("seed %d, %s: re-encoded to %d bytes, first encoding was %d", seed, name, len(again), len(blob))
			}
			if r2.DistinctLabels() != r.DistinctLabels() {
				t.Fatalf("seed %d, %s: %d entries after the round trip, %d before", seed, name, r2.DistinctLabels(), r.DistinctLabels())
			}
		}
	}
}

// codeStream returns where the code stream of blob, an encoding of d,
// starts and its length in bytes: behind what d encodes to without
// segments, less that encoding's empty stream and list.
func codeStream(d ExportData, blob []byte) (at, n int) {
	head := ExportData{Services: d.Services, Tags: d.Tags, Labels: d.Labels}.AppendBinary(nil, nil)
	l, k := binary.Uvarint(blob[len(head)-2:])
	return len(head) - 2 + k, int(l)
}

// TestDecodeExportDataRejectsCorruption truncates, flips and extends a
// payload: every outcome is a *wire.Error inside the payload or a payload
// that decodes and imports — never a panic. Then it takes payloads apart
// by hand: what no registry encodes to is refused, for the reason it is
// wrong, and so is codec 2, which only retired container version 5 images
// hold.
func TestDecodeExportDataRejectsCorruption(t *testing.T) {
	data := randomRegistry(t, 7, 200).Export()
	table := halfTable(data)
	rng := rand.New(rand.NewSource(99))
	blob := data.AppendBinary(nil, table)
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
		checkDecode(t, mut, table)
	}

	refuse := func(name string, blob []byte, table []segment.ID, reason string) *wire.Error {
		t.Helper()
		_, err := DecodeExportData(blob, table)
		var we *wire.Error
		if !errors.As(err, &we) || !strings.Contains(we.Reason, reason) {
			t.Errorf("%s: err=%v, want a *wire.Error for %q", name, err, reason)
		}
		return we
	}
	blob[0] = 2
	refuse("codec 2", blob, table, "unsupported codec version")
	if len(data.Labels) < 2 || data.Segments[0].Label != 0 {
		t.Fatalf("the registry exports %d labels; the cases below need two", len(data.Labels))
	}
	for _, tc := range []struct {
		name, reason string
		mutate       func(d *ExportData)
	}{
		{"an index past the table", "index past the entries named so far", func(d *ExportData) { d.Segments[len(d.Segments)-1].Label = len(d.Labels) }},
		{"an entry named before the one before it", "index past the entries named so far", func(d *ExportData) { d.Segments[0].Label = 1 }},
		{"an entry no segment names", "entry no segment names", func(d *ExportData) { d.Labels = append(d.Labels, LabelRecord{Explicit: []Tag{"unnamed"}}) }},
		{"two equal entries", "entry repeated", func(d *ExportData) { d.Labels = append(d.Labels, d.Labels[1]) }},
		{"a set out of order", "storing services not ascending", func(d *ExportData) { d.Labels[0].StoredBy = []string{"wiki", "docs"} }},
		{"a list not ascending", "not strictly ascending", func(d *ExportData) {
			k := sameEntry(d) // two neighbours naming one entry trade places
			d.Segments[k].Seg, d.Segments[k-1].Seg = d.Segments[k-1].Seg, d.Segments[k].Seg
		}},
		{"a segment listed twice", "not strictly ascending", func(d *ExportData) {
			k := sameEntry(d)
			d.Segments[k].Seg = d.Segments[k-1].Seg
		}},
	} {
		d := randomRegistry(t, 7, 200).Export()
		tc.mutate(&d)
		blob := d.AppendBinary(nil, nil)
		// The index is the payload's last field, and the reader fails where
		// it stands: just past it.
		if we := refuse(tc.name, blob, nil, tc.reason); tc.name == "an index past the table" && we != nil && we.Offset != len(blob) {
			t.Errorf("%s: refused at offset %d, want %d, past the index", tc.name, we.Offset, len(blob))
		}
	}

	// The code stream. Over half the segments, two entries: codes are 2
	// bits wide, and the last byte ends in padding.
	d := twoLabelRegistry(t, 42).Export()
	table = halfTable(d)
	if len(d.Labels) != 2 || len(table)%4 == 0 {
		t.Fatalf("%d labels over a table of %d segments: the cases below need 2, and padding", len(d.Labels), len(table))
	}
	past := d
	past.Segments = slices.Clone(d.Segments)
	past.Segments[0].Label = len(d.Labels) // in the table: code 3 of 2 entries
	if we := refuse("a code past the label table", past.AppendBinary(nil, table), table, "label code past the label table"); we != nil {
		if at, _ := codeStream(past, past.AppendBinary(nil, table)); we.Offset != at {
			t.Errorf("a code past the label table: refused at offset %d, want %d, in the code's byte", we.Offset, at)
		}
	}
	blob = d.AppendBinary(nil, table)
	listed := d.Segments[1].Seg
	i, _ := slices.BinarySearch(table, listed)
	named := slices.Insert(slices.Clone(table), i, listed)
	refuse("a listed segment the table names", blob, named, "listed segment the segment table names")
	at, n := codeStream(d, blob)
	padded := slices.Clone(blob)
	padded[at+n-1] |= 0x80
	refuse("non-zero padding", padded, table, "trailing bits after label code stream")
	long := slices.Insert(slices.Clone(blob), at+n, 0)
	long[at-1]++
	refuse("a stream a byte too long", long, table, "trailing bits after label code stream")
	short := slices.Delete(slices.Clone(blob), at+n-1, at+n)
	short[at-1]--
	refuse("a stream a byte too short", short, table, "truncated label code")

	// A table length no payload of this size could hold is refused before
	// anything is allocated for it.
	huge := binary.AppendUvarint([]byte{exportCodecVersion, 0, 0}, 1<<40)
	if _, err := DecodeExportData(append(huge, make([]byte, 64)...), nil); err == nil {
		t.Error("a label table of 2^40 entries in 68 bytes decoded")
	}
}

// sameEntry returns the first k whose segment names the entry the one
// before it names.
func sameEntry(d *ExportData) int {
	k := 1
	for k < len(d.Segments)-1 && d.Segments[k].Label != d.Segments[k-1].Label {
		k++
	}
	return k
}

// checkDecode decodes data over table and requires a *wire.Error inside
// it with no data, or a result that imports and then exports to what its
// own encoding decodes to.
func checkDecode(t *testing.T, data []byte, table []segment.ID) {
	t.Helper()
	got, err := DecodeExportData(data, table)
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
	again, err := DecodeExportData(exported.AppendBinary(nil, table), table)
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
// standby over a primary's image, over a table that names half of the
// first seed's labelled segments. The first seed lists the other half;
// each payload is also a seed under codec 2's version byte, which only
// retired images carry and the decoder refuses.
func FuzzDecodeExportData(f *testing.F) {
	table := halfTable(randomRegistry(f, 7, 200).Export())
	for _, r := range []*Registry{randomRegistry(f, 7, 200), twoLabelRegistry(f, 40)} {
		data := r.Export()
		blob := data.AppendBinary(nil, table)
		f.Add(blob)
		f.Add(append([]byte{2}, blob[1:]...))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, table) })
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
// per distinct label and a code per segment of the paragraph section's
// table: 20 000 segments over two labels, all in the table, take
// ⌈20 000·2/8⌉ B of codes, and what an export without segments encodes to
// (services, tags, the two-entry table) but for its empty stream's length:
// no segment ID. Codec 2 spelled their IDs out, as codec 1 did (183 951 B).
func TestRegistryImageBytes(t *testing.T) {
	const n = 20000
	data := twoLabelRegistry(t, n).Export()
	table := segIDs(data)
	rest := data
	rest.Segments = nil
	codes := (n*2 + 7) / 8
	bound := len(rest.AppendBinary(nil, nil)) - 1 + len(binary.AppendUvarint(nil, uint64(codes))) + codes
	if got := len(data.AppendBinary(nil, table)); got > bound || len(data.Labels) != 2 {
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

// TestImportInternsEachEntryOnce: a registry restored from its payload
// holds one entry per exported record, as many as the registry exported,
// and exports the same.
func TestImportInternsEachEntryOnce(t *testing.T) {
	r := twoLabelRegistry(t, 2000)
	data := r.Export()
	table := halfTable(data)
	decoded, err := DecodeExportData(data.AppendBinary(nil, table), table)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(nil, nil)
	r2.Import(decoded)
	if len(r2.entries) != len(data.Labels) || r2.DistinctLabels() != r.DistinctLabels() {
		t.Errorf("restored registry holds %d entries, %d live, for %d records; the exported one %d live",
			len(r2.entries), r2.DistinctLabels(), len(data.Labels), r.DistinctLabels())
	}
	if !reflect.DeepEqual(r2.Export(), data) {
		t.Error("restored registry exports differently")
	}
}
