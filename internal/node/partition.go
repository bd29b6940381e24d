package node

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/segment"
)

// partState is a partition node's view of the cluster topology: the ring
// it loaded (and persists across flips), its own partition ID, and an
// optional key-range override for a split target whose partition the ring
// does not name yet. It implements tagserver.PartitionState.
type partState struct {
	id   string
	path string

	mu       sync.Mutex
	ring     *partition.Ring
	encoded  []byte
	override *segment.KeyRange
}

func newPartState(id, path string, override *segment.KeyRange) (*partState, error) {
	ring, err := partition.LoadRingFile(path)
	if err != nil {
		return nil, err
	}
	encoded, err := partition.EncodeRing(ring)
	if err != nil {
		return nil, err
	}
	if override == nil {
		if _, ok := ring.ByID(id); !ok {
			return nil, fmt.Errorf("partition %q is not in ring v%d (use -split-range for a not-yet-published split target)", id, ring.Version)
		}
	}
	return &partState{id: id, path: path, ring: ring, encoded: encoded, override: override}, nil
}

func (ps *partState) ID() string { return ps.id }

func (ps *partState) RingVersion() uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.ring.Version
}

// Owns reports whether seg's key falls in this node's range: the
// explicit split override when one is active, otherwise this partition's
// ring entry. A node whose partition is absent from the ring owns
// nothing — fail closed rather than accept observations the routing tier
// will never find.
func (ps *partState) Owns(seg segment.ID) bool {
	key := segment.Key(seg)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.override != nil {
		return ps.override.Contains(key)
	}
	p, ok := ps.ring.ByID(ps.id)
	return ok && p.Contains(key)
}

func (ps *partState) KeyRange() (lo, hi uint32) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.override != nil {
		return ps.override.Lo, ps.override.Hi
	}
	if p, ok := ps.ring.ByID(ps.id); ok {
		return p.Lo, p.Hi
	}
	return 1, 0 // empty range
}

// Sole reports whether this node can resolve observations alone: a
// one-partition ring with no split in progress.
func (ps *partState) Sole() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.override == nil && len(ps.ring.Partitions) == 1
}

func (ps *partState) Resharding() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.override != nil
}

func (ps *partState) RingBytes() []byte {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.encoded
}

// SetRing installs a newer ring version, persisting it so a restart
// comes back with the flipped topology. Once the installed ring names
// this node's partition, any split override is retired — the ring is now
// the authority for the range.
func (ps *partState) SetRing(encoded []byte) (uint64, error) {
	ring, err := partition.DecodeRing(encoded)
	if err != nil {
		return 0, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ring.Version <= ps.ring.Version {
		return 0, fmt.Errorf("ring v%d is not newer than installed v%d", ring.Version, ps.ring.Version)
	}
	if err := partition.SaveRingFile(ps.path, ring); err != nil {
		return 0, fmt.Errorf("persist ring: %w", err)
	}
	ps.ring = ring
	ps.encoded = append([]byte(nil), encoded...)
	if ps.override != nil {
		if _, ok := ring.ByID(ps.id); ok {
			ps.override = nil
		}
	}
	logf("partition %s: installed ring v%d (%d partitions)", ps.id, ring.Version, len(ring.Partitions))
	return ring.Version, nil
}

// parseSplitRange parses "lo:hi" (inclusive 32-bit bounds).
func parseSplitRange(v string) (*segment.KeyRange, error) {
	lo, hi, ok := strings.Cut(v, ":")
	if !ok {
		return nil, fmt.Errorf("-split-range wants lo:hi, got %q", v)
	}
	l, err := strconv.ParseUint(lo, 10, 32)
	if err != nil {
		return nil, fmt.Errorf("-split-range lo: %w", err)
	}
	h, err := strconv.ParseUint(hi, 10, 32)
	if err != nil {
		return nil, fmt.Errorf("-split-range hi: %w", err)
	}
	if l > h {
		return nil, fmt.Errorf("-split-range %q: inverted", v)
	}
	return &segment.KeyRange{Lo: uint32(l), Hi: uint32(h)}, nil
}
