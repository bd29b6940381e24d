// Package partition implements BrowserFlow's horizontal partitioning
// subsystem: a consistent-hash ring that assigns contiguous ranges of the
// 32-bit segment keyspace to partitions (each an ordinary replicated
// primary group from internal/replication), and a stateless routing tier
// that scatter-gathers cross-partition disclosure queries so partitioned
// verdicts stay byte-identical to a single node.
//
// The ring is a versioned document. Every node and every router holds a
// copy; writes carry no ring state, but a node that no longer owns a
// segment answers 421 with an X-BF-Ring-Version header so stale routers
// refetch the ring (GET /v1/part/ring) and re-dispatch. Ring versions only
// move forward; a split publishes version v+1 after the target partition
// has been promoted under a bumped fencing term, so the 421s from both the
// fencing guard and the ownership check converge on the new topology.
package partition

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/lsds/browserflow/internal/segment"
)

// Partition is one entry of the ring: a named primary group owning the
// inclusive key range [Lo, Hi].
type Partition struct {
	// ID names the partition ("p0", "p1", ...). IDs are unique within a
	// ring and stable across ring versions; a split reuses the source's ID
	// for the shrunk range and mints a new ID for the moved range.
	ID string `json:"id"`

	// Lo and Hi bound the owned key range, inclusive on both ends, so the
	// full 32-bit keyspace [0, MaxUint32] is coverable without overflow.
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`

	// Nodes lists the group's member base URLs. By convention the first
	// entry is the bootstrap primary; routers confirm the actual primary
	// through the usual 421/healthz discovery of tagserver.Client, so the
	// order only seeds discovery and does not need updating on failover.
	Nodes []string `json:"nodes"`
}

// Contains reports whether key falls inside the partition's range.
func (p *Partition) Contains(key uint32) bool {
	return key >= p.Lo && key <= p.Hi
}

// Ring is one version of the cluster topology. The zero value is invalid;
// construct through DecodeRing/ParseRing or validate with Validate.
type Ring struct {
	// Version is the monotone topology version. Nodes reject SetRing calls
	// that do not increase it.
	Version uint64 `json:"version"`

	// Partitions cover the keyspace exactly: sorted by Lo, contiguous,
	// non-overlapping, first Lo = 0, last Hi = MaxUint32.
	Partitions []Partition `json:"partitions"`

	// byID interns partition IDs for O(1) lookup. Built by Validate.
	byID map[string]int
}

// Validate checks structural invariants and builds the interned ID table.
// A ring that fails validation must not be installed: routing with partial
// coverage would silently drop segments, which for a DLP system means
// silently not tracking them — fail closed instead.
func (r *Ring) Validate() error {
	if len(r.Partitions) == 0 {
		return fmt.Errorf("ring v%d: no partitions", r.Version)
	}
	if !sort.SliceIsSorted(r.Partitions, func(i, j int) bool {
		return r.Partitions[i].Lo < r.Partitions[j].Lo
	}) {
		return fmt.Errorf("ring v%d: partitions not sorted by lo", r.Version)
	}
	byID := make(map[string]int, len(r.Partitions))
	for i := range r.Partitions {
		p := &r.Partitions[i]
		if p.ID == "" {
			return fmt.Errorf("ring v%d: partition %d has empty id", r.Version, i)
		}
		if _, dup := byID[p.ID]; dup {
			return fmt.Errorf("ring v%d: duplicate partition id %q", r.Version, p.ID)
		}
		byID[p.ID] = i
		if p.Lo > p.Hi {
			return fmt.Errorf("ring v%d: partition %q range inverted [%d, %d]", r.Version, p.ID, p.Lo, p.Hi)
		}
		if len(p.Nodes) == 0 {
			return fmt.Errorf("ring v%d: partition %q has no nodes", r.Version, p.ID)
		}
		for _, n := range p.Nodes {
			if n == "" {
				return fmt.Errorf("ring v%d: partition %q has an empty node address", r.Version, p.ID)
			}
		}
		if i == 0 {
			if p.Lo != 0 {
				return fmt.Errorf("ring v%d: keyspace starts at %d, want 0", r.Version, p.Lo)
			}
		} else if prev := &r.Partitions[i-1]; p.Lo != prev.Hi+1 {
			return fmt.Errorf("ring v%d: gap or overlap between %q (hi %d) and %q (lo %d)",
				r.Version, prev.ID, prev.Hi, p.ID, p.Lo)
		}
	}
	if last := &r.Partitions[len(r.Partitions)-1]; last.Hi != math.MaxUint32 {
		return fmt.Errorf("ring v%d: keyspace ends at %d, want %d", r.Version, last.Hi, uint32(math.MaxUint32))
	}
	r.byID = byID
	return nil
}

// Find returns the partition owning key. The ranges cover the keyspace, so
// on a validated ring Find always succeeds; the boolean guards the
// unvalidated zero value.
func (r *Ring) Find(key uint32) (*Partition, bool) {
	// Binary search for the first partition with Hi >= key.
	i := sort.Search(len(r.Partitions), func(i int) bool {
		return r.Partitions[i].Hi >= key
	})
	if i >= len(r.Partitions) || !r.Partitions[i].Contains(key) {
		return nil, false
	}
	return &r.Partitions[i], true
}

// Home returns the partition owning seg.
func (r *Ring) Home(seg segment.ID) (*Partition, bool) {
	return r.Find(segment.Key(seg))
}

// ByID returns the partition with the given ID.
func (r *Ring) ByID(id string) (*Partition, bool) {
	if r.byID != nil {
		i, ok := r.byID[id]
		if !ok {
			return nil, false
		}
		return &r.Partitions[i], true
	}
	for i := range r.Partitions {
		if r.Partitions[i].ID == id {
			return &r.Partitions[i], true
		}
	}
	return nil, false
}

// Clone returns a deep copy safe to mutate (e.g. to build version v+1).
func (r *Ring) Clone() *Ring {
	c := &Ring{Version: r.Version, Partitions: make([]Partition, len(r.Partitions))}
	copy(c.Partitions, r.Partitions)
	for i := range c.Partitions {
		c.Partitions[i].Nodes = append([]string(nil), r.Partitions[i].Nodes...)
	}
	return c
}

// ringMagic frames the on-disk ring file. The trailing CRC32C covers the
// JSON payload so a torn write or bit flip fails closed at load instead of
// routing with a corrupt topology.
const ringMagic = "BFRING01"

var ringCRCTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeRing serialises the ring in the framed on-disk format:
// magic | uint32 payload length | JSON payload | uint32 CRC32C(payload).
func EncodeRing(r *Ring) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(ringMagic)+8+len(payload))
	out = append(out, ringMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, ringCRCTable))
	return out, nil
}

// DecodeRing parses a framed ring file. Any framing, checksum, JSON or
// structural error fails closed with an error; DecodeRing never returns a
// partially-valid ring and never panics on corrupt input (FuzzDecodeRing
// holds it to that).
func DecodeRing(data []byte) (*Ring, error) {
	if len(data) < len(ringMagic)+8 {
		return nil, fmt.Errorf("ring: truncated file (%d bytes)", len(data))
	}
	if string(data[:len(ringMagic)]) != ringMagic {
		return nil, fmt.Errorf("ring: bad magic %q", data[:len(ringMagic)])
	}
	n := binary.LittleEndian.Uint32(data[len(ringMagic):])
	body := data[len(ringMagic)+4:]
	if uint64(n)+4 != uint64(len(body)) {
		return nil, fmt.Errorf("ring: payload length %d does not match file size", n)
	}
	payload, sum := body[:n], binary.LittleEndian.Uint32(body[n:])
	if got := crc32.Checksum(payload, ringCRCTable); got != sum {
		return nil, fmt.Errorf("ring: checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	return ParseRing(payload)
}

// ParseRing parses and validates the bare JSON ring document — the form
// exchanged over /v1/part/ring, where HTTP already frames the bytes.
func ParseRing(payload []byte) (*Ring, error) {
	var r Ring
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// LoadRingFile reads and decodes a framed ring file.
func LoadRingFile(path string) (*Ring, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := DecodeRing(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// SaveRingFile atomically persists the ring in the framed format: write to
// a temp file in the same directory, fsync, rename over the destination,
// fsync the directory. A crash leaves either the old or the new version,
// never a torn file (and DecodeRing rejects a torn file anyway).
func SaveRingFile(path string, r *Ring) error {
	data, err := EncodeRing(r)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ring-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// SingleRing returns a one-partition ring covering the whole keyspace —
// the degenerate topology under which the router behaves exactly like a
// plain tagserver.Client over the same node list.
func SingleRing(id string, nodes ...string) *Ring {
	r := &Ring{
		Version: 1,
		Partitions: []Partition{{
			ID: id, Lo: 0, Hi: math.MaxUint32, Nodes: nodes,
		}},
	}
	if err := r.Validate(); err != nil {
		panic(err) // impossible: full coverage by construction
	}
	return r
}

// SplitRing returns version v+1 of r with partition srcID's range split at
// key `at`: the source keeps [lo, at], the new partition newID owns
// [at+1, hi] on the given nodes. It fails if the split point does not fall
// strictly inside the source range (each side must keep at least one key).
func SplitRing(r *Ring, srcID string, at uint32, newID string, nodes []string) (*Ring, error) {
	src, ok := r.ByID(srcID)
	if !ok {
		return nil, fmt.Errorf("ring v%d: no partition %q", r.Version, srcID)
	}
	if at < src.Lo || at >= src.Hi {
		return nil, fmt.Errorf("split at %d outside (%d, %d)", at, src.Lo, src.Hi)
	}
	if _, dup := r.ByID(newID); dup {
		return nil, fmt.Errorf("ring v%d: partition %q already exists", r.Version, newID)
	}
	next := r.Clone()
	next.Version = r.Version + 1
	for i := range next.Partitions {
		if next.Partitions[i].ID == srcID {
			moved := Partition{ID: newID, Lo: at + 1, Hi: next.Partitions[i].Hi, Nodes: append([]string(nil), nodes...)}
			next.Partitions[i].Hi = at
			rest := append([]Partition{moved}, next.Partitions[i+1:]...)
			next.Partitions = append(next.Partitions[:i+1], rest...)
			break
		}
	}
	if err := next.Validate(); err != nil {
		return nil, err
	}
	return next, nil
}
