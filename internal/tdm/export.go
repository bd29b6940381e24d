package tdm

import (
	"cmp"
	"slices"

	"github.com/lsds/browserflow/internal/segment"
)

// ServiceRecord is the serialisable form of a service.
type ServiceRecord struct {
	Name            string `json:"name"`
	Privilege       []Tag  `json:"privilege"`
	Confidentiality []Tag  `json:"confidentiality"`
}

// LabelRecord is the serialisable form of one distinct segment label and
// the services storing its segments: one entry of ExportData.Labels, named
// by every segment that carries both.
type LabelRecord struct {
	Explicit   []Tag    `json:"explicit"`
	Implicit   []Tag    `json:"implicit"`
	Suppressed []Tag    `json:"suppressed"`
	StoredBy   []string `json:"storedBy"`
}

// SegmentRecord names a labelled segment's entry in ExportData.Labels.
type SegmentRecord struct {
	Seg   segment.ID `json:"seg"`
	Label int        `json:"label"`
}

// TagRecord is the serialisable form of a custom tag allocation.
type TagRecord struct {
	Tag   Tag    `json:"tag"`
	Owner string `json:"owner"`
}

// ExportData is a complete serialisable snapshot of a Registry (the audit
// log is persisted separately). Labels are held as the registry holds
// them: each distinct (label, stored-by) pair once, in the order Segments,
// ascending by ID, first names them.
type ExportData struct {
	Services []ServiceRecord `json:"services"`
	Labels   []LabelRecord   `json:"labels"`
	Segments []SegmentRecord `json:"segments"`
	Tags     []TagRecord     `json:"tags"`
}

// Export snapshots the registry deterministically.
func (r *Registry) Export() ExportData {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var data ExportData
	for _, svc := range r.services {
		data.Services = append(data.Services, ServiceRecord{
			Name:            svc.Name,
			Privilege:       svc.Privilege.Sorted(),
			Confidentiality: svc.Confidentiality.Sorted(),
		})
	}
	slices.SortFunc(data.Services, func(a, b ServiceRecord) int { return cmp.Compare(a.Name, b.Name) })

	// At most a segment per ref of the table: one allocation, whatever the
	// registry's size. Label holds the segment's ref until they are sorted.
	n := uint32(r.tab.Len())
	data.Segments = make([]SegmentRecord, 0, n)
	for ref := uint32(0); ref < n; ref++ {
		if row := r.rows.At(ref); row != nil && *row != 0 {
			data.Segments = append(data.Segments, SegmentRecord{Seg: r.tab.ID(ref), Label: int(ref)})
		}
	}
	slices.SortFunc(data.Segments, func(a, b SegmentRecord) int { return cmp.Compare(a.Seg, b.Seg) })

	// A segment's record is its entry's, numbered as the sorted segments
	// first name it (remap holds that number + 1, 0 before), so the export
	// does not depend on the order of the refs or of the entry slots.
	remap := make([]int32, len(r.entries))
	for k := range data.Segments {
		i := *r.rows.At(uint32(data.Segments[k].Label)) - 1
		if remap[i] == 0 {
			e := &r.entries[i]
			data.Labels = append(data.Labels, LabelRecord{
				Explicit:   e.label.explicit.Sorted(),
				Implicit:   e.label.implicit.Sorted(),
				Suppressed: e.label.suppressed.Sorted(),
				StoredBy:   append([]string(nil), e.stored...),
			})
			remap[i] = int32(len(data.Labels))
		}
		data.Segments[k].Label = int(remap[i] - 1)
	}

	for tag, owner := range r.tagOwners {
		data.Tags = append(data.Tags, TagRecord{Tag: tag, Owner: owner})
	}
	slices.SortFunc(data.Tags, func(a, b TagRecord) int { return cmp.Compare(a.Tag, b.Tag) })
	return data
}

// Import replaces the registry's contents with a previously exported
// snapshot. The audit log is untouched. The entry table is built straight
// from data.Labels, an entry per record, so a recovered node or a
// bootstrapped replica shares labels and stored-by sets exactly as the node
// that ingested the segments does; the segments are interned into the
// registry's segment table, which a state restore resets, together with
// every other owner's rows, first. data is as Export returns it or
// DecodeExportData accepts it: stored-by lists ascending, no two records
// equal, every record named by a segment.
func (r *Registry) Import(data ExportData) {
	services := make(map[string]*Service, len(data.Services))
	for _, rec := range data.Services {
		services[rec.Name] = &Service{
			Name:            rec.Name,
			Privilege:       NewTagSet(rec.Privilege...),
			Confidentiality: NewTagSet(rec.Confidentiality...),
		}
	}
	tagOwners := make(map[Tag]string, len(data.Tags))
	for _, rec := range data.Tags {
		tagOwners[rec.Tag] = rec.Owner
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.services = services
	r.tagOwners = tagOwners
	r.rows.Reset()
	r.entries = make([]entry, 0, len(data.Labels))
	r.interned = make(map[string]uint32, len(data.Labels))
	r.free = nil
	for _, rec := range data.Labels { // no two equal: record i becomes entry i
		r.intern(Label{
			explicit:   NewTagSet(rec.Explicit...),
			implicit:   NewTagSet(rec.Implicit...),
			suppressed: NewTagSet(rec.Suppressed...),
		}, rec.StoredBy)
	}
	for _, s := range data.Segments {
		r.entries[s.Label].refs++
		*r.rows.Make(r.tab.Intern(s.Seg)) = uint32(s.Label) + 1
	}
}
