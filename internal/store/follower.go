// follower.go is the follower role of Durable, a standby's store: the
// subsystem of durable.go — same recovery, checkpointer, scrubber,
// disk-fault funnel and stats, unbranched — differing in three places.
//
//   - Recovery resets a directory it cannot prove is a full history of
//     the log it follows (segments without a checkpoint, a hole between
//     checkpoint and tail) to empty instead of failing or replaying around
//     the gap: a fresh snapshot is one request away.
//   - The journal is fed by Follow — verbatim frames at stated positions,
//     through the funnel a record append goes through — not by the engine.
//     A frame is applied only after it is written; degraded, none is.
//   - A checkpoint cannot rotate a log whose bytes the primary dictates,
//     so it takes its barrier from the stream: at the header boundary of
//     segment S every record below S is applied and none of S. Replay is
//     not idempotent (a grant applied twice appends two audit entries), so
//     a checkpoint asked for mid-segment is marked due and taken when the
//     stream next rolls over, never inexactly.
//
// Bootstrap replaces the directory with a received image; Promote opens
// the fresh segment Open would have, and the Durable is a primary's.
package store

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// errMidSegment is a follower's answer to a checkpoint request while the
// stream stands inside a segment (or nowhere yet): Checkpoint defers it.
var errMidSegment = errors.New("store: follower is not at a segment boundary")

// OpenFollower opens opts.Dir in the follower role: OpenDurable's recovery
// into tracker and registry, with the log left positioned at its end for
// Follow. A zero Position() afterwards means Bootstrap must run first.
// traces, when non-nil, receives a "replica.apply" span per applied record
// that carries a journalled trace ID.
func OpenFollower(opts DurableOptions, tracker *disclosure.Tracker, registry *tdm.Registry, traces *obs.TraceLog) (*Durable, error) {
	return openDurable(opts, tracker, registry, true, traces)
}

// Position is where a follower stands in the followed log: every record
// below it is written and applied. The log's own End runs ahead of it
// while a batch is written but not yet applied.
func (d *Durable) Position() wal.Pos {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.position
}

func (d *Durable) setPosition(p wal.Pos) {
	d.mu.Lock()
	d.position = p
	d.mu.Unlock()
}

// fullHistory reports whether a follower's directory provably holds the
// followed log from the loaded checkpoint's barrier to its tail.
func (d *Durable) fullHistory(barrier uint64, checkpoint string) bool {
	st := d.log.Stats()
	if st.RecoveryGaps > 0 || st.QuarantinedSegments > 0 {
		return false
	}
	first := st.CurrentSegment
	if sealed := d.log.SealedSegments(); len(sealed) > 0 {
		first = sealed[0]
	}
	return st.Segments == 0 || (checkpoint != "" && first == barrier)
}

// wipe empties a follower's directory: every checkpoint, then every
// segment. A crash part-way leaves something fullHistory rejects.
func (d *Durable) wipe() error {
	if err := PruneCheckpoints(d.fs, d.opts.Dir, math.MaxUint64, 0); err != nil {
		return err
	}
	return d.log.Reset()
}

// Bootstrap replaces everything a follower holds with image, captured
// behind WAL barrier B on the primary: wipe, restore it into the tracker
// and registry, persist it verbatim as checkpoint B, and stand at the
// header boundary of segment B, where the stream continues.
func (d *Durable) Bootstrap(image []byte) (barrier uint64, err error) {
	d.barrier.Lock()
	defer d.barrier.Unlock()
	if !d.following {
		return 0, fmt.Errorf("store: Bootstrap on a store that is not following")
	}
	d.setPosition(wal.Pos{})
	if err := d.wipe(); err != nil {
		return 0, err
	}
	meta, err := RestoreBytes("primary snapshot", image, d.tracker, d.registry)
	if err != nil {
		return 0, err
	}
	if barrier = meta.WALSeg; barrier == 0 {
		return 0, fmt.Errorf("store: snapshot carries no WAL barrier")
	}
	path := filepath.Join(d.opts.Dir, checkpointName(barrier))
	if err := SaveCheckpointBytes(d.fs, path, image, d.opts.Key); err != nil {
		return 0, fmt.Errorf("store: save bootstrap checkpoint: %w", err)
	}
	// A fresh applier: the old one's pending audit amendments describe
	// the state the image just replaced.
	if d.applier, err = d.newApplier(); err != nil {
		return 0, err
	}
	at := wal.Pos{Segment: barrier, Offset: wal.HeaderSize}
	if _, _, err := d.log.AppendFrames(at, nil); err != nil {
		return 0, err
	}
	d.setPosition(at)
	d.noteCheckpoint(barrier)
	return barrier, nil
}

// Follow is the follower's journal: frames streamed from the primary's
// log at position at are written verbatim there and only then applied. It
// returns how many records the valid prefix of frames held and the
// position just past them. An error wrapping wal.ErrDiverged — frames
// offered elsewhere than the log's end, or a written record that failed to
// apply — means only a fresh Bootstrap repairs the follower; any other
// leaves it where it was, to be retried. Follow has one caller, the stream
// loop. When at opens a later segment the roll is its own step, so that a
// due checkpoint is taken between one segment's last record and the next's
// first.
func (d *Durable) Follow(at wal.Pos, frames []byte) (applied int, next wal.Pos, err error) {
	if at.Offset == wal.HeaderSize && at.Segment > d.Position().Segment {
		if _, _, err := d.follow(at, nil); err != nil {
			return 0, wal.Pos{}, err
		}
		d.mu.Lock()
		due := d.checkpointDue
		d.mu.Unlock()
		if due {
			if err := d.Checkpoint(); err != nil {
				d.opts.Logf("store: follower checkpoint at segment %d: %v", at.Segment, err)
			}
		}
	}
	return d.follow(at, frames)
}

// follow writes frames at at through the disk-fault funnel, under the read
// side of the checkpoint barrier, and applies what was written.
func (d *Durable) follow(at wal.Pos, frames []byte) (int, wal.Pos, error) {
	d.barrier.RLock()
	defer d.barrier.RUnlock()
	var (
		recs []wal.Record
		next wal.Pos
	)
	err := d.journalWrite(func() (err error) {
		recs, next, err = d.log.AppendFrames(at, frames)
		return err
	})
	for i := 0; err == nil && i < len(recs); i++ {
		if aerr := d.applier.Apply(recs[i]); aerr != nil {
			err = fmt.Errorf("%w: streamed record written but not applied: %v", wal.ErrDiverged, aerr)
		}
	}
	if err != nil {
		return 0, wal.Pos{}, err
	}
	d.applier.RestoreAuditTimestamps()
	d.setPosition(next)
	return len(recs), next, nil
}

// Promote ends the follower role: the log creates the fresh segment
// OpenDurable would have opened, commit runs — the caller's point of no
// return, taking the primary role — and only if it succeeds does the
// journal switch over to record appends; nothing is replayed and no image
// read. Mutations that pass the caller's role check meanwhile wait on the
// checkpoint barrier and land in the new segment. If the segment cannot be
// created or commit fails, the store is still following, untouched.
func (d *Durable) Promote(commit func() error) error {
	d.barrier.Lock()
	defer d.barrier.Unlock()
	if err := d.log.EndFollowing(commit); err != nil {
		return err
	}
	d.mu.Lock()
	d.following = false
	d.mu.Unlock()
	d.applier = nil
	return nil
}
