package tdm

// Binary codec for ExportData: the registry section of the BFLOWSNB state
// image (see internal/store). A registry names a handful of tags, services
// and users, and a handful of distinct labels, for a hundred thousand
// segments, so each string and each label is stored once:
//
//	u8      codec version (2)
//	uvarint service count
//	  per service, ascending by name: name, privilege set, confidentiality set
//	uvarint custom-tag count
//	  per tag, ascending: tag, owner
//	uvarint label table length
//	  per entry, in the order the segments first name it: explicit set,
//	  implicit set, suppressed set, stored-by set
//	uvarint labelled segment count
//	  per segment, ascending by ID: front-coded segment ID
//	  (wire.AppendFrontCoded), uvarint label table index
//
// where a set is a uvarint count followed by that many strings, ascending,
// and a string — name, tag or owner — is a uvarint index into a table that
// builds up as the payload is read; an index equal to the table's length
// adds the string to the table: uvarint byte length and the bytes follow
// (wire.AppendString). The encoding is a pure function of the registry:
// the decoder refuses a set out of order, two equal label entries, an index
// past the entries named so far and an entry no segment names. A malformed
// payload is a *wire.Error with the payload offset where decoding failed.
// Codec 1, in container version 4 images, is still read: it has no label
// table, and each segment's entry follows its ID in place of the index.

import (
	"encoding/binary"
	"fmt"

	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wire"
)

const exportCodecVersion = 2 // codec 1 is read, never written

// AppendBinary appends the binary encoding of d, which must be ordered as
// Export orders it, to buf and returns the extended slice.
func (d ExportData) AppendBinary(buf []byte) []byte {
	table := make(map[string]uint64)
	str := func(s string) {
		i, known := table[s]
		if !known {
			i = uint64(len(table))
			table[s] = i
		}
		buf = binary.AppendUvarint(buf, i)
		if !known {
			buf = wire.AppendString(buf, s)
		}
	}
	tags := func(set []Tag) {
		buf = binary.AppendUvarint(buf, uint64(len(set)))
		for _, t := range set {
			str(string(t))
		}
	}

	buf = append(buf, exportCodecVersion)
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
	buf = binary.AppendUvarint(buf, uint64(len(d.Labels)))
	for _, l := range d.Labels {
		tags(l.Explicit)
		tags(l.Implicit)
		tags(l.Suppressed)
		buf = binary.AppendUvarint(buf, uint64(len(l.StoredBy)))
		for _, name := range l.StoredBy {
			str(name)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Segments)))
	prev := ""
	for _, s := range d.Segments {
		buf = wire.AppendFrontCoded(buf, prev, string(s.Seg))
		prev = string(s.Seg)
		buf = binary.AppendUvarint(buf, uint64(s.Label))
	}
	return buf
}

// stringTable reads a registry payload: the one wire reader, and the
// strings it has met so far.
type stringTable struct {
	*wire.Reader
	table []string
}

func (d *stringTable) str(what string) string {
	i := d.Uvarint(what)
	if i == uint64(len(d.table)) { // first use: the string itself follows
		d.table = append(d.table, d.String(what))
	}
	if d.Err() != nil || i >= uint64(len(d.table)) {
		d.Fail(what + " not in the string table")
		return ""
	}
	return d.table[i]
}

// readSet reads an ascending set of names or tags.
func readSet[T ~string](d *stringTable, what string) []T {
	out := make([]T, d.Count(what+" count", 1))
	for i := range out {
		if out[i] = T(d.str(what)); i > 0 && out[i] <= out[i-1] {
			d.Fail(what + "s not ascending")
		}
	}
	return out
}

// label reads one label table entry.
func (d *stringTable) label() LabelRecord {
	return LabelRecord{
		Explicit:   readSet[Tag](d, "explicit tag"),
		Implicit:   readSet[Tag](d, "implicit tag"),
		Suppressed: readSet[Tag](d, "suppressed tag"),
		StoredBy:   readSet[string](d, "storing service"),
	}
}

// DecodeExportData inverts ExportData.AppendBinary, and reads codec 1.
// Errors are *wire.Error. Nothing in the result aliases data.
func DecodeExportData(data []byte) (ExportData, error) {
	var out ExportData
	d := &stringTable{Reader: wire.NewReader(data)}
	codec := d.Byte("codec version")
	if codec != exportCodecVersion && codec != 1 {
		return out, &wire.Error{Reason: "empty payload or unsupported codec version"}
	}
	out.Services = make([]ServiceRecord, d.Count("service count", 3))
	for i := range out.Services {
		out.Services[i] = ServiceRecord{
			Name:            d.str("service name"),
			Privilege:       readSet[Tag](d, "privilege tag"),
			Confidentiality: readSet[Tag](d, "confidentiality tag"),
		}
	}
	out.Tags = make([]TagRecord, d.Count("custom tag count", 2))
	for i := range out.Tags {
		out.Tags[i] = TagRecord{Tag: Tag(d.str("custom tag")), Owner: d.str("custom tag owner")}
	}
	if codec == exportCodecVersion {
		out.Labels = make([]LabelRecord, d.Count("label table length", 4))
		seen := make(map[string]bool, len(out.Labels))
		for i := 0; i < len(out.Labels) && d.Err() == nil; i++ {
			out.Labels[i] = d.label()
			if seen[fmt.Sprintf("%q", out.Labels[i])] = true; len(seen) <= i {
				d.Fail("label table entry repeated")
			}
		}
	}
	out.Segments = make([]SegmentRecord, d.Count("labelled segment count", 3))
	var id []byte
	named := 0 // entries named so far: the next new one is out.Labels[named]
	for i := 0; i < len(out.Segments) && d.Err() == nil; i++ {
		id = d.FrontCoded(id)
		// Import assigns labels one by one and must see each segment once.
		if i > 0 && string(id) <= string(out.Segments[i-1].Seg) {
			d.Fail("labelled segments not strictly ascending")
		}
		label := uint64(named)
		if codec == exportCodecVersion {
			label = d.Uvarint("label table index")
		} else {
			out.Labels = append(out.Labels, d.label())
		}
		if label > uint64(named) || label >= uint64(len(out.Labels)) {
			d.Fail("label table index past the entries named so far")
		} else if label == uint64(named) {
			named++
		}
		out.Segments[i] = SegmentRecord{Seg: segment.ID(id), Label: int(label)}
	}
	if named < len(out.Labels) {
		d.Fail("label table entry no segment names")
	}
	if err := d.Done("registry payload"); err != nil {
		return ExportData{}, err
	}
	return out, nil
}
