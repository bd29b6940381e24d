package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/wal"
	"github.com/lsds/browserflow/internal/wire"
)

// WAL record types. Observe records are the hot path and use a compact
// binary encoding, read back through a wire.Reader: a malformed one is a
// *wire.Error with the record offset where decoding failed. Control-plane
// records (suppressions, tag operations, audit entries) are rare and use
// JSON for inspectability. A control record carries the audit entries
// its op appended; recAudit carries entries no op produced (overrides).
const (
	recObserve      byte = 1
	recObserveBatch byte = 2
	recSuppress     byte = 3
	recAllocateTag  byte = 4
	recAddSegTag    byte = 5
	recGrantTag     byte = 6
	recRevokeTag    byte = 7
	recAudit        byte = 8

	// recObserveResolved is a partition-mode observation whose disclosure
	// sources were resolved by the routing tier (or came from the decision
	// cache). It carries the resolved result and the router's Lamport
	// stamp, so replay installs the result instead of re-running
	// Algorithm 1 — one partition's database holds only a slice of the
	// cluster state the original evaluation saw.
	recObserveResolved byte = 9

	// recPruneRange records the post-split removal of a partition key
	// range from the tracker.
	recPruneRange byte = 10
)

// Binary granularity codes for observe records.
const (
	granParagraph byte = 1
	granDocument  byte = 2
)

func granCode(g segment.Granularity) (byte, error) {
	switch g {
	case segment.GranularityParagraph:
		return granParagraph, nil
	case segment.GranularityDocument:
		return granDocument, nil
	default:
		return 0, fmt.Errorf("store: unknown granularity %v", g)
	}
}

// readGran reads a granularity code.
func readGran(r *wire.Reader) segment.Granularity {
	switch r.Byte("granularity") {
	case granParagraph:
		return segment.GranularityParagraph
	case granDocument:
		return segment.GranularityDocument
	}
	r.Fail("unknown granularity code")
	return 0
}

// appendHashes appends uvarint(n) | n big-endian uint32s.
func appendHashes(buf []byte, hs []uint32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(hs)))
	for _, h := range hs {
		buf = binary.BigEndian.AppendUint32(buf, h)
	}
	return buf
}

// readHashes reads what appendHashes wrote.
func readHashes(r *wire.Reader) []uint32 {
	hs := make([]uint32, r.Count("hashes", 4))
	for i := range hs {
		hs[i] = r.U32("hash")
	}
	return hs
}

// observeOp is one decoded singular observation.
type observeOp struct {
	Seg     segment.ID
	Service string
	G       segment.Granularity
	Hashes  []uint32

	// Trace is the optional request trace ID journalled with the
	// observation (an opaque identifier, never text), so replica
	// appliers can attribute their apply spans to the originating
	// request.
	Trace string
}

// encodeObserve frames a singular observation:
//
//	gran(1) | seg | service | hashes [| trace]
//
// with strings as uvarint-length-prefixed bytes and hashes as
// uvarint-count-prefixed big-endian uint32s. The trailing trace ID is
// optional: records written before tracing existed (or for untraced
// requests) simply end after the hashes, and the decoder accepts both
// forms.
func encodeObserve(seg segment.ID, service string, g segment.Granularity, hashes []uint32, trace string) (wal.Record, error) {
	gc, err := granCode(g)
	if err != nil {
		return wal.Record{}, err
	}
	buf := make([]byte, 0, 1+10+len(seg)+len(service)+4*len(hashes)+10+len(trace))
	buf = append(buf, gc)
	buf = wire.AppendString(buf, string(seg))
	buf = wire.AppendString(buf, service)
	buf = appendHashes(buf, hashes)
	if trace != "" {
		buf = wire.AppendString(buf, trace)
	}
	return wal.Record{Type: recObserve, Data: buf}, nil
}

// decodeObserve inverts encodeObserve. Here and in the decoders below, a
// literal lists its fields in record order: Go evaluates the reads left to
// right.
func decodeObserve(data []byte) (observeOp, error) {
	r := wire.NewReader(data)
	op := observeOp{G: readGran(r), Seg: segment.ID(r.String("segment")), Service: r.String("service"), Hashes: readHashes(r)}
	if r.Len() > 0 { // optional trailing trace ID
		op.Trace = r.String("trace")
	}
	if err := r.Done("WAL record"); err != nil {
		return observeOp{}, err
	}
	return op, nil
}

// encodeObserveBatch frames a batched flush:
//
//	service | uvarint(nItems) | nItems × (gran(1) | seg | hashes) [| trace]
//
// The trailing trace ID is optional, exactly as in encodeObserve.
func encodeObserveBatch(service string, items []disclosure.BatchObservation, trace string) (wal.Record, error) {
	buf := make([]byte, 0, 16+len(service)+len(items)*64+len(trace))
	buf = wire.AppendString(buf, service)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for i, item := range items {
		if item.FP == nil {
			return wal.Record{}, fmt.Errorf("store: batch item %d has no fingerprint", i)
		}
		g := item.Granularity
		if g == 0 {
			g = segment.GranularityParagraph
		}
		gc, err := granCode(g)
		if err != nil {
			return wal.Record{}, err
		}
		buf = append(buf, gc)
		buf = wire.AppendString(buf, string(item.Seg))
		buf = appendHashes(buf, item.FP.Hashes())
	}
	if trace != "" {
		buf = wire.AppendString(buf, trace)
	}
	return wal.Record{Type: recObserveBatch, Data: buf}, nil
}

func decodeObserveBatch(data []byte) (string, []disclosure.BatchObservation, string, error) {
	r := wire.NewReader(data)
	svc := r.String("service")
	items := make([]disclosure.BatchObservation, r.Count("item count", 3)) // gran, seg length, hash count
	for i := range items {
		items[i] = disclosure.BatchObservation{
			Granularity: readGran(r), Seg: segment.ID(r.String("segment")), FP: fingerprint.FromHashes(readHashes(r)),
		}
	}
	var trace string
	if r.Len() > 0 { // optional trailing trace ID
		trace = r.String("trace")
	}
	if err := r.Done("WAL record"); err != nil {
		return "", nil, "", err
	}
	return svc, items, trace, nil
}

// appendFloat64 appends the IEEE 754 bits big-endian.
func appendFloat64(buf []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
}

// observeResolvedOp is one decoded partition-mode resolved observation.
type observeResolvedOp struct {
	Seg     segment.ID
	Service string
	G       segment.Granularity
	Clock   uint64
	Hashes  []uint32
	Sources []disclosure.Source
	Tags    map[segment.ID][]string
	Trace   string
}

// encodeObserveResolved frames a resolved observation:
//
//	gran(1) | seg | service | uvarint(clock) | hashes
//	| uvarint(nSources) × (seg | f64(disclosure) | f64(threshold))
//	| uvarint(nTagSets) × (seg | uvarint(nTags) × tag) [| trace]
//
// Disclosure values are stored as exact IEEE 754 bits: replay must
// reproduce the cached sources byte-for-byte, and the values are ratios
// of partition-spanning quantities this node cannot recompute.
func encodeObserveResolved(op observeResolvedOp) (wal.Record, error) {
	gc, err := granCode(op.G)
	if err != nil {
		return wal.Record{}, err
	}
	buf := make([]byte, 0, 1+10+len(op.Seg)+len(op.Service)+4*len(op.Hashes)+32*len(op.Sources)+10+len(op.Trace))
	buf = append(buf, gc)
	buf = wire.AppendString(buf, string(op.Seg))
	buf = wire.AppendString(buf, op.Service)
	buf = binary.AppendUvarint(buf, op.Clock)
	buf = appendHashes(buf, op.Hashes)
	buf = binary.AppendUvarint(buf, uint64(len(op.Sources)))
	for _, src := range op.Sources {
		buf = wire.AppendString(buf, string(src.Seg))
		buf = appendFloat64(buf, src.Disclosure)
		buf = appendFloat64(buf, src.Threshold)
	}
	// Tag sets in sorted segment order, so identical logical records
	// encode to identical bytes (replicas mirror WAL bytes verbatim).
	segs := make([]string, 0, len(op.Tags))
	for seg := range op.Tags {
		segs = append(segs, string(seg))
	}
	sort.Strings(segs)
	buf = binary.AppendUvarint(buf, uint64(len(segs)))
	for _, seg := range segs {
		buf = wire.AppendString(buf, seg)
		names := op.Tags[segment.ID(seg)]
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, n := range names {
			buf = wire.AppendString(buf, n)
		}
	}
	if op.Trace != "" {
		buf = wire.AppendString(buf, op.Trace)
	}
	return wal.Record{Type: recObserveResolved, Data: buf}, nil
}

func decodeObserveResolved(data []byte) (observeResolvedOp, error) {
	r := wire.NewReader(data)
	op := observeResolvedOp{
		G: readGran(r), Seg: segment.ID(r.String("segment")), Service: r.String("service"),
		Clock: r.Uvarint("clock"), Hashes: readHashes(r),
	}
	for range r.Count("source count", 1+8+8) {
		op.Sources = append(op.Sources, disclosure.Source{
			Seg: segment.ID(r.String("source segment")), Disclosure: r.F64("source disclosure"), Threshold: r.F64("source threshold"),
		})
	}
	for range r.Count("tag set count", 2) {
		seg := segment.ID(r.String("tagged segment"))
		names := make([]string, r.Count("tag count", 1))
		for j := range names {
			names[j] = r.String("tag")
		}
		if op.Tags == nil {
			op.Tags = make(map[segment.ID][]string)
		}
		op.Tags[seg] = names
	}
	if r.Len() > 0 { // optional trailing trace ID
		op.Trace = r.String("trace")
	}
	if err := r.Done("WAL record"); err != nil {
		return observeResolvedOp{}, err
	}
	return op, nil
}

// A key-range prune is journalled as its segment.KeyRange JSON (rare,
// inspectable).
func encodePruneRange(lo, hi uint32) (wal.Record, error) {
	data, err := json.Marshal(segment.KeyRange{Lo: lo, Hi: hi})
	if err != nil {
		return wal.Record{}, fmt.Errorf("store: encode prune record: %w", err)
	}
	return wal.Record{Type: recPruneRange, Data: data}, nil
}

func decodePruneRange(data []byte) (segment.KeyRange, error) {
	var op segment.KeyRange
	if err := json.Unmarshal(data, &op); err != nil {
		return segment.KeyRange{}, fmt.Errorf("store: decode prune record: %w", err)
	}
	return op, nil
}

// controlOp is the JSON form of a control record: the operation and the
// audit entries it appended, exactly as stored. A log written before the
// entries rode in their op's record holds control records without them,
// each followed by a recAudit record; the same decoder reads both.
type controlOp struct {
	policy.ControlOp
	Audit []audit.Entry `json:"audit,omitempty"`
}

// controlTypes maps each policy.ControlKind to its record type.
var controlTypes = [...]byte{
	policy.ControlSuppress:      recSuppress,
	policy.ControlAllocateTag:   recAllocateTag,
	policy.ControlAddSegmentTag: recAddSegTag,
	policy.ControlGrantTag:      recGrantTag,
	policy.ControlRevokeTag:     recRevokeTag,
}

// encodeControl frames op; its Kind is one the engine applied.
func encodeControl(op controlOp) (wal.Record, error) {
	data, err := json.Marshal(op)
	if err != nil {
		return wal.Record{}, fmt.Errorf("store: encode control record: %w", err)
	}
	return wal.Record{Type: controlTypes[op.Kind], Data: data}, nil
}

// decodeControl inverts encodeControl for a record of type typ, one of
// controlTypes.
func decodeControl(typ byte, data []byte) (controlOp, error) {
	var op controlOp
	if err := json.Unmarshal(data, &op); err != nil {
		return controlOp{}, fmt.Errorf("store: decode control record: %w", err)
	}
	op.Kind = policy.ControlKind(slices.Index(controlTypes[:], typ))
	return op, nil
}

// encodeAudit frames audit entries verbatim (original Seq and Time).
func encodeAudit(entries []audit.Entry) (wal.Record, error) {
	data, err := json.Marshal(entries)
	if err != nil {
		return wal.Record{}, fmt.Errorf("store: encode audit record: %w", err)
	}
	return wal.Record{Type: recAudit, Data: data}, nil
}

func decodeAudit(data []byte) ([]audit.Entry, error) {
	var entries []audit.Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("store: decode audit record: %w", err)
	}
	return entries, nil
}
