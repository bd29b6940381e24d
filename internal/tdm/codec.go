package tdm

// Binary codec for ExportData: the registry section of the BFLOWSNB state
// image (see internal/store). A registry names a handful of tags, services
// and users, and a handful of distinct labels, for a hundred thousand
// segments, nearly all of which the paragraph section's segment table
// names already; so each string and each label is stored once, and a
// segment of that table costs a code, not its ID:
//
//	u8      codec version (3)
//	uvarint service count
//	  per service, ascending by name: name, privilege set, confidentiality set
//	uvarint custom-tag count
//	  per tag, ascending: tag, owner
//	uvarint label table length
//	  per entry, in the order the segments first name it: explicit set,
//	  implicit set, suppressed set, stored-by set
//	label code stream (wire.AppendBits): per segment of the table, in
//	  table order, a code bits.Len(label table length) bits wide: 0 for
//	  an unlabelled segment, i+1 for label table entry i
//	uvarint listed segment count
//	  per labelled segment the table does not name, ascending by ID:
//	  front-coded segment ID (wire.AppendFrontCoded), uvarint label table
//	  index
//
// where a set is a uvarint count followed by that many strings, ascending,
// and a string — name, tag or owner — is a uvarint index into a table that
// builds up as the payload is read; an index equal to the table's length
// adds the string to the table: uvarint byte length and the bytes follow
// (wire.AppendString). The listed segments are what the table cannot name:
// explicit tags on segments never observed, document labels, and labels
// that outlive their DBpar entry. The encoding is a pure function of the
// registry and the table: the decoder merges the table's labelled segments
// and the list into one ascending list and refuses a set out of order, two
// equal label entries, a code past the label table, a listed segment the
// table names, an index past the entries named so far and an entry no
// segment names. A malformed payload is a *wire.Error with the payload
// offset where decoding failed.

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wire"
)

const exportCodecVersion = 3

// AppendBinary appends the binary encoding of d, which must be ordered as
// Export orders it, to buf and returns the extended slice. table is the
// image's segment table, ascending by ID: the segments it names are coded
// in its order, the rest listed.
func (d ExportData) AppendBinary(buf []byte, table []segment.ID) []byte {
	strs := make(map[string]uint64)
	str := func(s string) {
		i, known := strs[s]
		if !known {
			i = uint64(len(strs))
			strs[s] = i
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
	var listed []SegmentRecord
	width := uint(bits.Len(uint(len(d.Labels))))
	buf = wire.AppendBits(buf, func(w *wire.BitWriter) {
		rest := d.Segments
		for _, id := range table {
			for len(rest) > 0 && rest[0].Seg < id {
				listed, rest = append(listed, rest[0]), rest[1:]
			}
			code := 0
			if len(rest) > 0 && rest[0].Seg == id {
				code, rest = rest[0].Label+1, rest[1:]
			}
			w.Write(uint64(code), width)
		}
		listed = append(listed, rest...)
	})
	buf = binary.AppendUvarint(buf, uint64(len(listed)))
	prev := ""
	for _, s := range listed {
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

// DecodeExportData inverts ExportData.AppendBinary over the same table.
// Errors are *wire.Error. Nothing in the result aliases data.
func DecodeExportData(data []byte, table []segment.ID) (ExportData, error) {
	var out ExportData
	d := &stringTable{Reader: wire.NewReader(data)}
	if d.Byte("codec version") != exportCodecVersion {
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
	out.Labels = make([]LabelRecord, d.Count("label table length", 4))
	seen := make(map[string]bool, len(out.Labels))
	for i := 0; i < len(out.Labels) && d.Err() == nil; i++ {
		out.Labels[i] = d.label()
		if seen[fmt.Sprintf("%q", out.Labels[i])] = true; len(seen) <= i {
			d.Fail("label table entry repeated")
		}
	}
	codes := d.Bits("label code stream")

	// The table's labelled segments and the list merge into Segments.
	named := 0 // entries named so far: the next new one is out.Labels[named]
	add := func(id segment.ID, label uint64) {
		// Import assigns labels one by one and must see each segment once.
		if k := len(out.Segments); k > 0 && id <= out.Segments[k-1].Seg {
			d.Fail("labelled segments not strictly ascending")
		}
		if label > uint64(named) || label >= uint64(len(out.Labels)) {
			d.Fail("label table index past the entries named so far")
		} else if label == uint64(named) {
			named++
		}
		out.Segments = append(out.Segments, SegmentRecord{Seg: id, Label: int(label)})
	}
	width, next := uint(bits.Len(uint(len(out.Labels)))), 0
	// fromTable adds the table's labelled segments that sort below upTo, or
	// all that are left.
	fromTable := func(upTo []byte, all bool) {
		for ; next < len(table) && (all || string(table[next]) < string(upTo)) && d.Err() == nil; next++ {
			if code := codes.Read(width, "label code"); code > uint64(len(out.Labels)) {
				codes.Fail("label code past the label table")
			} else if code > 0 {
				add(table[next], code-1)
			}
		}
	}
	n := d.Count("listed segment count", 3)
	out.Segments = make([]SegmentRecord, 0, n+len(table))
	var id []byte
	for i := 0; i < n && d.Err() == nil; i++ {
		id = d.FrontCoded(id)
		if fromTable(id, false); next < len(table) && string(table[next]) == string(id) {
			d.Fail("listed segment the segment table names")
		}
		add(segment.ID(id), d.Uvarint("label table index"))
	}
	fromTable(nil, true)
	codes.Done("label code stream")
	if named < len(out.Labels) {
		d.Fail("label table entry no segment names")
	}
	if err := d.Done("registry payload"); err != nil {
		return ExportData{}, err
	}
	return out, nil
}
