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
//	  (segment.AppendFrontCoded), explicit set, implicit set, suppressed
//	  set, stored-by set
//
// where a set is a uvarint count followed by that many strings, and a
// string — name, tag or owner — is a uvarint table index; an index equal to
// the table's length adds the string to the table: uvarint byte length and
// the bytes follow. The encoding is a pure function of the ExportData,
// which Export orders deterministically.

import (
	"encoding/binary"
	"fmt"

	"github.com/lsds/browserflow/internal/segment"
)

const exportCodecVersion = 1

// CodecError reports a malformed binary registry payload, with the byte
// offset (relative to the payload) where decoding failed.
type CodecError struct {
	Offset int
	Reason string
}

func (e *CodecError) Error() string {
	return fmt.Sprintf("tdm: corrupt registry payload at offset %d: %s", e.Offset, e.Reason)
}

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
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
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
	var prev segment.ID
	for _, l := range d.Labels {
		buf = segment.AppendFrontCoded(buf, prev, l.Seg)
		prev = l.Seg
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

// exportDecoder is a bounds-checked reader over a registry payload. The
// first failure sticks: every read after it returns zero, so decode checks
// err once, at the end.
type exportDecoder struct {
	data  []byte
	off   int
	table []string
	err   error
}

func (d *exportDecoder) fail(reason string) {
	if d.err == nil {
		d.err = &CodecError{Offset: d.off, Reason: reason}
	}
}

func (d *exportDecoder) uvarint(what string) uint64 {
	v, n := binary.Uvarint(d.data[d.off:])
	if d.err != nil || n <= 0 {
		d.fail("truncated or overlong varint: " + what)
		return 0
	}
	d.off += n
	return v
}

// count reads the length of a list whose entries take at least min bytes
// each, so that a corrupt length cannot ask for more memory than a payload
// of this size could fill.
func (d *exportDecoder) count(what string, min int) int {
	n := d.uvarint(what)
	if n > uint64((len(d.data)-d.off)/min) {
		d.fail(what + " exceeds payload")
		return 0
	}
	return int(n)
}

func (d *exportDecoder) str(what string) string {
	i := d.uvarint(what)
	if i == uint64(len(d.table)) { // first use: the string itself follows
		n := d.count(what+" length", 1)
		d.table = append(d.table, string(d.data[d.off:d.off+n]))
		d.off += n
	}
	if d.err != nil || i >= uint64(len(d.table)) {
		d.fail(what + " not in the string table")
		return ""
	}
	return d.table[i]
}

// readSet reads a set of names or tags; the empty set decodes to nil.
func readSet[T ~string](d *exportDecoder, what string) []T {
	n := d.count(what+" count", 1)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(d.str(what))
	}
	return out
}

// DecodeExportData inverts ExportData.AppendBinary. Errors are *CodecError.
// Nothing in the result aliases data.
func DecodeExportData(data []byte) (ExportData, error) {
	var out ExportData
	d := &exportDecoder{data: data}
	if len(data) < 1 || data[0] != exportCodecVersion {
		return out, &CodecError{Reason: "empty payload or unsupported codec version"}
	}
	d.off = 1
	out.Services = make([]ServiceRecord, d.count("service count", 3))
	for i := range out.Services {
		out.Services[i] = ServiceRecord{
			Name:            d.str("service name"),
			Privilege:       readSet[Tag](d, "privilege tag"),
			Confidentiality: readSet[Tag](d, "confidentiality tag"),
		}
	}
	out.Tags = make([]TagRecord, d.count("custom tag count", 2))
	for i := range out.Tags {
		out.Tags[i] = TagRecord{Tag: Tag(d.str("custom tag")), Owner: d.str("custom tag owner")}
	}
	out.Labels = make([]LabelRecord, d.count("label count", 6))
	var id []byte
	for i := range out.Labels {
		var n int
		if id, n = segment.ReadFrontCoded(data[d.off:], id); n == 0 {
			d.fail("malformed front-coded segment ID")
		}
		d.off += n
		// Import assigns labels one by one and must see each segment once.
		if i > 0 && string(id) <= string(out.Labels[i-1].Seg) {
			d.fail("labels not strictly ascending by segment")
		}
		out.Labels[i] = LabelRecord{
			Seg:        segment.ID(id),
			Explicit:   readSet[Tag](d, "explicit tag"),
			Implicit:   readSet[Tag](d, "implicit tag"),
			Suppressed: readSet[Tag](d, "suppressed tag"),
			StoredBy:   readSet[string](d, "storing service"),
		}
		if d.err != nil {
			break // the rest of a long list is not worth walking
		}
	}
	if d.off != len(data) {
		d.fail("trailing bytes after registry payload") // unless it failed before
	}
	if d.err != nil {
		return ExportData{}, d.err
	}
	return out, nil
}
