package tdm

// Binary codec for ExportData: the registry section of the BFLOWSNB state
// image (see internal/store). A registry names a handful of tags, services
// and users from a hundred thousand labels, so every string is stored once
// and referred to by its index in a table that builds up as the payload is
// read:
//
//	u8      codec version (1)
//	uvarint service count
//	  per service, ascending by name: name, privilege set, confidentiality set
//	uvarint custom-tag count
//	  per tag, ascending: tag, owner
//	uvarint label count
//	  per label, ascending by segment ID: front-coded segment ID
//	  (wire.AppendFrontCoded), explicit set, implicit set, suppressed
//	  set, stored-by set
//
// where a set is a uvarint count followed by that many strings, and a
// string — name, tag or owner — is a uvarint table index; an index equal to
// the table's length adds the string to the table: uvarint byte length and
// the bytes follow (wire.AppendString). The encoding is a pure function of
// the ExportData, which Export orders deterministically. The decoder keeps
// only its string table on top of a wire.Reader, so a malformed payload is
// a *wire.Error with the payload offset where decoding failed.

import (
	"encoding/binary"

	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wire"
)

const exportCodecVersion = 1

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
	prev := ""
	for _, l := range d.Labels {
		buf = wire.AppendFrontCoded(buf, prev, string(l.Seg))
		prev = string(l.Seg)
		tags(l.Explicit)
		tags(l.Implicit)
		tags(l.Suppressed)
		buf = binary.AppendUvarint(buf, uint64(len(l.StoredBy)))
		for _, name := range l.StoredBy {
			str(name)
		}
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

// readSet reads a set of names or tags; the empty set decodes to nil.
func readSet[T ~string](d *stringTable, what string) []T {
	n := d.Count(what+" count", 1)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(d.str(what))
	}
	return out
}

// DecodeExportData inverts ExportData.AppendBinary. Errors are *wire.Error.
// Nothing in the result aliases data.
func DecodeExportData(data []byte) (ExportData, error) {
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
	out.Labels = make([]LabelRecord, d.Count("label count", 6))
	var id []byte
	for i := range out.Labels {
		id = d.FrontCoded(id)
		// Import assigns labels one by one and must see each segment once.
		if i > 0 && string(id) <= string(out.Labels[i-1].Seg) {
			d.Fail("labels not strictly ascending by segment")
		}
		out.Labels[i] = LabelRecord{
			Seg:        segment.ID(id),
			Explicit:   readSet[Tag](d, "explicit tag"),
			Implicit:   readSet[Tag](d, "implicit tag"),
			Suppressed: readSet[Tag](d, "suppressed tag"),
			StoredBy:   readSet[string](d, "storing service"),
		}
		if d.Err() != nil {
			break // the rest of a long list is not worth walking
		}
	}
	if err := d.Done("registry payload"); err != nil {
		return ExportData{}, err
	}
	return out, nil
}
