package policy

import (
	"context"
	"errors"
	"fmt"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// ErrJournal wraps failures to journal a state mutation to the write-ahead
// log. The in-memory mutation has already been applied when this is
// returned; callers running with a strict fsync policy should surface the
// error (503) rather than acknowledge a request whose durability is not
// guaranteed.
var ErrJournal = errors.New("policy: journal append failed")

// Journal records every state mutation the engine applies, so that a
// durability layer (internal/store's write-ahead log) can replay them
// after a crash. The engine stays storage-agnostic: it calls one hook per
// kind of mutation (observations, control operations, standalone audit
// entries, key-range prunes) and never sees frames, segments or fsync
// policies.
//
// Ordering contract: the engine invokes the journal *after* the in-memory
// mutation succeeds and inside the bracket returned by Begin, so a
// checkpoint barrier taken by the implementation observes either
// (mutation + journal record) or neither.
type Journal interface {
	// Begin brackets one mutation + its journal appends; the engine calls
	// the returned function when the bracket ends. Implementations use it
	// as the read side of a checkpoint barrier. It must never be nil.
	Begin() (end func())

	// Observe records a singular fingerprint observation. ctx carries
	// the request's trace (internal/obs), which the implementation
	// journals alongside the record and times its WAL append against;
	// context.Background() is valid and disables both.
	Observe(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32) error

	// ObserveBatch records a batched flush. Every item carries a
	// caller-computed fingerprint (the engine normalises text items).
	// ctx carries the request trace exactly as in Observe.
	ObserveBatch(ctx context.Context, service string, items []disclosure.BatchObservation) error

	// Control records an applied control operation together with the
	// audit entries it appended, exactly as stored (original Seq and
	// Time): one record, so recovery keeps both or neither and installs
	// the entries instead of regenerating them.
	Control(op ControlOp, entries []audit.Entry) error

	// AuditAppend records audit entries that no operation produced (an
	// override), exactly as stored.
	AuditAppend(entries []audit.Entry) error

	// ObserveResolved records a routed (partition-mode) observation whose
	// disclosure sources were resolved by the routing tier, together with
	// the router's Lamport stamp and the sources' explicit tags. Replaying
	// it applies the recorded result instead of re-running Algorithm 1,
	// whose inputs on one partition are only a slice of cluster state.
	ObserveResolved(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32, clock uint64, sources []disclosure.Source, tags map[segment.ID][]string) error

	// PruneRange records the removal of a partition key range after a
	// split hands it to a new partition.
	PruneRange(ctx context.Context, lo, hi uint32) error
}

// SetJournal installs (or, with nil, disables) the durability journal.
// The swap itself is atomic, so replica promotion may install a journal
// on an engine already serving reads; callers that swap while *mutations*
// are in flight must externally quiesce writes first (the replication
// guard rejects them on non-primary roles), because a mutation reads the
// journal reference once per journalling step.
func (e *Engine) SetJournal(j Journal) { e.journal.Store(&journalBox{j: j}) }

// Journal returns the installed journal (nil when disabled).
func (e *Engine) Journal() Journal { return e.journalRef() }

// journalRef loads the current journal reference (nil when disabled).
func (e *Engine) journalRef() Journal {
	if b := e.journal.Load(); b != nil {
		return b.j
	}
	return nil
}

// begin opens the journal bracket; it returns nil when journalling is
// disabled.
func (e *Engine) begin() func() {
	if j := e.journalRef(); j != nil {
		return j.Begin()
	}
	return nil
}

// journalObserve records a singular observation.
func (e *Engine) journalObserve(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32) error {
	j := e.journalRef()
	if j == nil {
		return nil
	}
	if err := j.Observe(ctx, seg, service, g, hashes); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// journalObserveResolved records a routed observation with pre-resolved
// sources.
func (e *Engine) journalObserveResolved(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32, clock uint64, sources []disclosure.Source, tags map[segment.ID][]string) error {
	j := e.journalRef()
	if j == nil {
		return nil
	}
	if err := j.ObserveResolved(ctx, seg, service, g, hashes, clock, sources, tags); err != nil {
		return journalErr(err)
	}
	return nil
}

// journalErr wraps a journal failure in ErrJournal.
func journalErr(err error) error {
	return fmt.Errorf("%w: %v", ErrJournal, err)
}

// ControlKind names a control-plane mutation of the TDM (§3.1).
type ControlKind int

const (
	ControlSuppress ControlKind = iota + 1
	ControlAllocateTag
	ControlAddSegmentTag
	ControlGrantTag
	ControlRevokeTag
)

// ControlOp is one control-plane mutation: a tag suppression, a custom
// tag's allocation or attachment to a segment, or a privilege grant or
// revoke. The JSON tags are its journal encoding; the journal records the
// kind separately.
type ControlOp struct {
	Kind          ControlKind `json:"-"`
	User          string      `json:"user,omitempty"`
	Seg           segment.ID  `json:"seg,omitempty"`
	Tag           tdm.Tag     `json:"tag,omitempty"`
	Service       string      `json:"service,omitempty"`
	Justification string      `json:"justification,omitempty"`
}

// apply runs op on the registry.
func (op ControlOp) apply(r *tdm.Registry) error {
	switch op.Kind {
	case ControlSuppress:
		return r.SuppressTag(op.User, op.Seg, op.Tag, op.Justification)
	case ControlAllocateTag:
		return r.AllocateTag(op.User, op.Tag)
	case ControlAddSegmentTag:
		return r.AddTagToSegment(op.User, op.Seg, op.Tag)
	case ControlGrantTag:
		return r.GrantTag(op.User, op.Service, op.Tag)
	case ControlRevokeTag:
		return r.RevokeTag(op.User, op.Service, op.Tag)
	}
	return fmt.Errorf("policy: unknown control op %d", op.Kind)
}

// Control applies a control operation and journals it, with the audit
// entries it appended, as one record. The five wrappers below are its
// callers on a live node; WAL replay calls it directly.
func (e *Engine) Control(op ControlOp) error {
	if end := e.begin(); end != nil {
		defer end()
	}
	before := e.registry.Audit().Len()
	if err := op.apply(e.registry); err != nil {
		return err
	}
	if j := e.journalRef(); j != nil {
		if err := j.Control(op, e.registry.Audit().Since(before)); err != nil {
			return journalErr(err)
		}
	}
	return nil
}

// Suppress declassifies a tag on a segment on the user's behalf (§3.1),
// journalling the suppression and its audit record. Handlers should route
// suppressions through this method rather than Registry().SuppressTag so
// that accepted declassifications survive a crash.
func (e *Engine) Suppress(user string, seg segment.ID, tag tdm.Tag, justification string) error {
	return e.Control(ControlOp{Kind: ControlSuppress, User: user, Seg: seg, Tag: tag, Justification: justification})
}

// AllocateTag reserves a custom tag owned by user, journalled.
func (e *Engine) AllocateTag(user string, tag tdm.Tag) error {
	return e.Control(ControlOp{Kind: ControlAllocateTag, User: user, Tag: tag})
}

// AddTagToSegment attaches an allocated custom tag to a segment,
// journalled.
func (e *Engine) AddTagToSegment(user string, seg segment.ID, tag tdm.Tag) error {
	return e.Control(ControlOp{Kind: ControlAddSegmentTag, User: user, Seg: seg, Tag: tag})
}

// GrantTag adds a custom tag to a service's privilege label, journalled.
func (e *Engine) GrantTag(user, service string, tag tdm.Tag) error {
	return e.Control(ControlOp{Kind: ControlGrantTag, User: user, Service: service, Tag: tag})
}

// RevokeTag removes a custom tag from a service's privilege label,
// journalled.
func (e *Engine) RevokeTag(user, service string, tag tdm.Tag) error {
	return e.Control(ControlOp{Kind: ControlRevokeTag, User: user, Service: service, Tag: tag})
}
