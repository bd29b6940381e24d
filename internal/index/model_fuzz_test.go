package index

import (
	"fmt"
	"slices"
	"testing"

	"github.com/lsds/browserflow/internal/segment"
)

// FuzzIndexModel decodes its input into a stream of updates, removals,
// late postings, clock jumps, expiries, merges and snapshot restores, and
// applies it to the reference model and to the model rig's standard
// layouts: head-only, merging inline as soon as a head holds a thirty-second
// of its run, and merging only when told to, each at 1, 64 and 256
// shards. After every operation each DB must answer as the model
// does for every hash of the pool — hashes on bucket and shard edges, and
// hashes that share a head-table probe chain — and all must encode the
// same image, which restores to the model. An update carries a decision by
// its operation byte (0: one that discloses nothing, 1: one with sources,
// 2: none), and after every operation each entry must answer exactly the
// model's memoised decision. Seeds 5–7 remove a segment after an edit — straight
// away, after an expiry took its first version's postings, and after a
// restore rebuilt its posted union, late postings included — and then post
// its first version's hashes again, which must find no holder left. Seed 8
// builds every one of spliceCases in turn. Seeds 9–13 each follow a
// decision with one operation: an undecided update with a new fingerprint
// (which empties the memo), one with the same fingerprint (which keeps
// it), a removal, an expiry and a restore (which empty it).
func FuzzIndexModel(f *testing.F) {
	for _, seed := range modelSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { replayModel(t, data) })
}

// modelSeeds are FuzzIndexModel's seeds.
var modelSeeds = [][]byte{
	{0, 0, 3, 1, 2, 3, 0, 1, 2, 4, 5, 6, 5, 3, 0, 6},
	{0, 1, 7, 10, 11, 12, 13, 14, 15, 16, 7, 0, 0, 2, 3, 10, 11, 12, 1, 2, 5, 0, 3, 4},
	{0, 0, 2, 20, 21, 7, 1, 0, 1, 2, 21, 22, 5, 8, 1, 6, 7, 2, 3, 2, 5, 4, 0, 6, 3, 1},
	{0, 2, 6, 30, 31, 32, 33, 34, 35, 0, 3, 6, 30, 31, 32, 33, 34, 35, 3, 2, 3, 3, 5, 4, 1},
	{0, 0, 2, 1, 2, 7, 0, 0, 2, 3, 4, 3, 0, 0, 1, 2, 1, 2, 7, 3, 1},
	{0, 0, 2, 1, 2, 0, 0, 2, 3, 4, 0, 2, 1, 5, 6, 1, 0, 0, 2, 1, 2, 3, 0, 0, 1, 3, 1, 2, 3},
	{0, 0, 2, 1, 2, 4, 0, 2, 6, 7, 3, 0, 0, 2, 3, 4, 8, 3, 0, 0, 1, 4, 1, 2, 6, 7, 8, 3, 1},
	{0, 0, 4, 1, 2, 12, 4, 0, 1, 2, 1, 4, 7, 0, 2, 4, 1, 2, 3, 5, 7, 4, 0, 2, 15, 17, 0, 7, 0, 3, 1, 14, 5, 1, 4, 0, 1, 16, 0, 7,
		5, 3, 4, 0, 1, 13, 0, 7, 0, 4, 1, 0, 7, 3, 1, 7},
	{1, 0, 2, 1, 2, 2, 0, 2, 3, 4},
	{1, 0, 2, 1, 2, 2, 0, 2, 1, 2},
	{1, 0, 2, 1, 2, 3, 0},
	{1, 0, 2, 1, 2, 0, 1, 2, 3, 4, 6, 1},
	{1, 0, 2, 1, 2, 0, 1, 1, 3, 8},
}

// modelDecisions are the decisions an update's operation byte carries
// (the first three), and, last, a decision made a generation before the
// update (see modelRig.update), which must not be memoised.
var modelDecisions = [4]*Decision{
	{},
	{Sources: []Source{{Seg: "origin#p0", Disclosure: 0.75, Threshold: 0.5}}},
	nil,
	{Sources: []Source{{Seg: "origin#p0", Disclosure: 0.75, Threshold: 0.5}}, Gen: 1},
}

// replayModel decodes data into an operation stream, applies it to the
// model rig, which checks every DB after every operation, and returns the
// rig.
func replayModel(t *testing.T, data []byte) *modelRig {
	if len(data) > 256 {
		data = data[:256]
	}
	in := data
	next := func() int {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return int(b)
	}
	pool := append(runEdgeHashes(DefaultShards), chainHashes(16)...)
	rig := newModelRig(t, &segment.Table{}, standardLayouts(), pool)
	seg := func() segment.ID { return segment.ID(fmt.Sprintf("doc%d#p0", next()%8)) }
	hashes := func() []uint32 { // ascending and distinct, as a fingerprint holds them
		var hs []uint32
		for n := next() % 8; n > 0; n-- {
			hs = append(hs, pool[next()%len(pool)])
		}
		slices.Sort(hs)
		return slices.Compact(hs)
	}
	for len(in) > 0 {
		switch op := next() % 9; op {
		case 0, 1, 2:
			s, hs := seg(), hashes()
			rig.update(s, hs, modelDecisions[op])
		case 3:
			rig.remove(seg())
		case 4:
			s, hs := seg(), hashes()
			seq := rig.m.clock - min(rig.m.clock, uint64(next()%8))
			rig.post(s, hs, seq)
		case 5:
			jump := []uint64{1, 1 << 16, 1<<31 + 1, 1 << 40}[next()%4]
			rig.floor(rig.m.clock + jump)
		case 6:
			stamps := append(rig.m.stamps(), rig.m.clock)
			cut := stamps[next()%len(stamps)]
			rig.expire(cut)
		case 7:
			rig.compact()
		case 8:
			rig.restoreAll()
		}
	}
	return rig
}

// TestModelSeedsMeetSpliceCases: FuzzIndexModel's seeds between them make
// a merge meet every one of spliceCases, so the fuzz smoke checks each of
// splice's edges against the model even before it generates an input.
func TestModelSeedsMeetSpliceCases(t *testing.T) {
	t.Parallel()
	met := map[string]bool{}
	for _, seed := range modelSeeds {
		for c := range replayModel(t, seed).cases {
			met[c] = true
		}
	}
	for _, c := range spliceCases {
		if !met[c] {
			t.Errorf("no seed's merges meet %q", c)
		}
	}
}
