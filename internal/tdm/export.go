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
		if row := r.rows.At(ref); row != nil && row.label != nil {
			data.Segments = append(data.Segments, SegmentRecord{Seg: r.tab.ID(ref), Label: int(ref)})
		}
	}
	slices.SortFunc(data.Segments, func(a, b SegmentRecord) int { return cmp.Compare(a.Seg, b.Seg) })

	// A segment's entry is its row, the interned label and stored-by set,
	// numbered as the sorted segments first name it: equal rows are equal
	// contents, and the export does not depend on the order of the refs.
	entries := make(map[segRow]int)
	for k := range data.Segments {
		row := *r.rows.At(uint32(data.Segments[k].Label))
		i, ok := entries[row]
		if !ok {
			i, entries[row] = len(data.Labels), len(data.Labels)
			data.Labels = append(data.Labels, LabelRecord{
				Explicit:   row.label.label.explicit.Sorted(),
				Implicit:   row.label.label.implicit.Sorted(),
				Suppressed: row.label.label.suppressed.Sorted(),
				StoredBy:   append([]string(nil), row.storedNames()...),
			})
		}
		data.Segments[k].Label = i
	}

	for tag, owner := range r.tagOwners {
		data.Tags = append(data.Tags, TagRecord{Tag: tag, Owner: owner})
	}
	slices.SortFunc(data.Tags, func(a, b TagRecord) int { return cmp.Compare(a.Tag, b.Tag) })
	return data
}

// Import replaces the registry's contents with a previously exported
// snapshot. The audit log is untouched. Each entry of data.Labels is
// interned once, so a recovered node or a bootstrapped replica shares
// labels and stored-by sets exactly as the node that ingested the segments
// does; the segments are interned into the registry's segment table, which
// a state restore resets, together with every other owner's rows, first.
// data is as Export returns it or DecodeExportData accepts it: stored-by
// lists ascending, every entry named by a segment.
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
	r.interned = make(map[string]*labelValue)
	r.storedSets = nil
	entries := make([]segRow, len(data.Labels))
	for i, rec := range data.Labels {
		entries[i].label = r.intern(Label{
			explicit:   NewTagSet(rec.Explicit...),
			implicit:   NewTagSet(rec.Implicit...),
			suppressed: NewTagSet(rec.Suppressed...),
		})
		entries[i].stored = r.internStored(slices.Clone(rec.StoredBy))
	}
	for _, s := range data.Segments {
		entries[s.Label].label.refs++
		*r.rows.Make(r.tab.Intern(s.Seg)) = entries[s.Label]
	}
}
