// Package audit provides the append-only audit trail that the TDM requires
// for tag suppression (§3.1): "Along with a suppressed tag, we also store an
// identifier of the user who initiated the suppression and a justification
// to facilitate future audits."
package audit

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"github.com/lsds/browserflow/internal/clock"
)

// Action classifies an audit entry.
type Action string

const (
	// ActionSuppress records a user declassifying a tag on a segment.
	ActionSuppress Action = "suppress"

	// ActionAllocate records a user allocating a custom tag.
	ActionAllocate Action = "allocate"

	// ActionGrant records a tag being added to a service privilege label.
	ActionGrant Action = "grant"

	// ActionRevoke records a tag being removed from a service privilege label.
	ActionRevoke Action = "revoke"

	// ActionOverride records a user overriding a Block/Warn decision.
	ActionOverride Action = "override"

	// ActionDegraded records a decision made while the shared tag service
	// was unreachable (fail-open in advisory mode, fail-closed in
	// enforcing mode). The justification carries the failure cause.
	ActionDegraded Action = "degraded"

	// ActionRecovered records the tag service becoming reachable again
	// and the buffered observations being replayed.
	ActionRecovered Action = "recovered"
)

// Entry is one immutable audit record.
type Entry struct {
	Seq           uint64    `json:"seq"`
	Time          time.Time `json:"time"`
	User          string    `json:"user"`
	Action        Action    `json:"action"`
	Tag           string    `json:"tag,omitempty"`
	Segment       string    `json:"segment,omitempty"`
	Service       string    `json:"service,omitempty"`
	Justification string    `json:"justification,omitempty"`
}

// Log is an append-only, thread-safe audit trail.
type Log struct {
	mu      sync.RWMutex
	clock   clock.Clock
	entries []Entry
}

// NewLog returns an empty Log stamping entries with the real clock.
func NewLog() *Log { return NewLogWithClock(nil) }

// NewLogWithClock returns an empty Log stamping entries with c (nil means
// the real clock).
func NewLogWithClock(c clock.Clock) *Log {
	return &Log{clock: clock.Or(c)}
}

// Append records e (its Seq and Time are assigned by the log) and returns
// the stored entry.
func (l *Log) Append(e Entry) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = uint64(len(l.entries) + 1)
	e.Time = l.clock.Now()
	l.entries = append(l.entries, e)
	return e
}

// Len returns the number of entries.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Entries returns a copy of all entries in append order.
func (l *Log) Entries() []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Since returns a copy of the entries appended after the first n (i.e.
// entries[n:]). The durability journal uses it to capture exactly the
// audit records one registry operation produced.
func (l *Log) Since(n int) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n < 0 {
		n = 0
	}
	if n >= len(l.entries) {
		return nil
	}
	out := make([]Entry, len(l.entries)-n)
	copy(out, l.entries[n:])
	return out
}

// Amend overwrites the entry whose Seq matches e.Seq with e, preserving
// append order. It reports whether a matching entry was found. Recovery
// uses it to restore the original timestamps of audit records regenerated
// during WAL replay.
func (l *Log) Amend(e Entry) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.entries {
		if l.entries[i].Seq == e.Seq {
			l.entries[i] = e
			return true
		}
	}
	return false
}

// Filter returns the entries for which keep returns true, in append order.
func (l *Log) Filter(keep func(Entry) bool) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Entry
	for _, e := range l.entries {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Replace swaps the log's contents for a previously captured entry list
// (used when restoring persisted state).
func (l *Log) Replace(entries []Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = make([]Entry, len(entries))
	copy(l.entries, entries)
}

// WriteJSON streams the log as JSON lines to w.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Entries() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSON loads JSON-lines entries from r, replacing the log's contents.
func (l *Log) ReadJSON(r io.Reader) error {
	dec := json.NewDecoder(r)
	var entries []Entry
	for {
		var e Entry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = entries
	return nil
}
