package index

// The quotiented run against a reference: a run stores each group's low 16
// bits under a bucket directory, so every hash that shares a low half with
// another in the same shard — or that lies outside the directory — is a
// place a lookup can go wrong. A map from hash to holders, driven through
// the same inserts, removals, expiries, merges and restores, says what
// every lookup must answer.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// refPosting is one holder of a hash in the reference model.
type refPosting struct {
	seg segment.ID
	seq uint64
}

// refModel is the reference: every live posting by hash, oldest first, and
// every live segment's stamp. Each segment is observed once, so all its
// postings carry its stamp.
type refModel struct {
	postings map[uint32][]refPosting
	segs     map[segment.ID]refPosting
}

func (m *refModel) update(db *DB, seg segment.ID, hs []uint32) {
	seq := db.Update(seg, fingerprint.FromHashes(hs))
	m.segs[seg] = refPosting{seg, seq}
	for _, h := range hs {
		m.postings[h] = append(m.postings[h], refPosting{seg, seq})
	}
}

// drop removes every posting of the segments keep rejects.
func (m *refModel) drop(keep func(refPosting) bool) {
	for h, ps := range m.postings {
		if ps = slices.DeleteFunc(ps, func(p refPosting) bool { return !keep(m.segs[p.seg]) }); len(ps) == 0 {
			delete(m.postings, h)
		} else {
			m.postings[h] = ps
		}
	}
	for seg, p := range m.segs {
		if !keep(p) {
			delete(m.segs, seg)
		}
	}
}

// runEdgeHashes are the hashes where a quotiented run's arithmetic can
// slip, for a DB of the given shard count: both ends of the low half and
// of the high half, the first and last hash of every shard, and hashes
// that share a low half across buckets and shards.
func runEdgeHashes(shards int) []uint32 {
	hs := []uint32{0, 1, 0xFFFF, 0x10000, 0x1FFFF, 0x20000, 0xFFFFFFFF, 0xFFFF0000, 0x7FFFFFFF, 0x80000000}
	db := NewWithShards(nil, 0, shards)
	for s := uint64(0); s < uint64(shards); s++ {
		first := uint32(s << db.hashShift)
		last := uint32((s+1)<<db.hashShift - 1)
		hs = append(hs, first, last, first|0x1234, last&^0xFFFF|0x1234)
	}
	return hs
}

// checkAgainstModel compares db with the reference: the lookup a probe
// does (find, then the group's low half), the oldest holder, every holder
// in posting order, the per-shard digests and the image a restore reads.
// probes may hold hashes the model lacks; those must be absent.
func checkAgainstModel(t *testing.T, step string, db *DB, m *refModel, probes []uint32) {
	t.Helper()
	for _, h := range probes {
		want := m.postings[h]
		sh := &db.hashShards[db.hashShardIdx(h)]
		sh.mu.RLock()
		g := sh.run.find(h)
		_, inHead := sh.head[h]
		ref, seq, ok := db.oldestLocked(sh, h)
		sh.mu.RUnlock()
		if g >= 0 && sh.run.lo[g] != uint16(h) {
			t.Fatalf("%s: find(%#x) = group %d holding low half %#x", step, h, g, sh.run.lo[g])
		}
		if len(want) > 0 && g < 0 && !inHead {
			t.Fatalf("%s: hash %#x with %d holders is in neither tier", step, h, len(want))
		}
		if len(want) == 0 && g >= 0 && sh.run.segs[g] != tombstoneRef {
			t.Fatalf("%s: absent hash %#x found live at group %d", step, h, g)
		}
		if ok != (len(want) > 0) || ok && (db.tab.ID(ref) != want[0].seg || seq != want[0].seq) {
			t.Fatalf("%s: oldest holder of %#x = (%s, %d, %v), want %v", step, h, db.tab.ID(ref), seq, ok, want)
		}
		var segs []segment.ID
		for _, p := range want {
			segs = append(segs, p.seg)
		}
		if got := db.Holders(h); !reflect.DeepEqual(got, segs) {
			t.Fatalf("%s: holders of %#x = %v, want %v", step, h, got, segs)
		}
	}

	wantShards := make([]uint64, db.NumShards())
	for h, ps := range m.postings {
		for _, p := range ps {
			wantShards[db.hashShardIdx(h)] ^= postingCode(h, segDigestKey(string(p.seg)), p.seq)
		}
	}
	if got, _ := db.ShardDigests(); !slices.Equal(got, wantShards) {
		t.Fatalf("%s: shard digests %x, want %x", step, got, wantShards)
	}
	if st := db.Stats(); st.DistinctHashes != len(m.postings) || st.Segments != len(m.segs) {
		t.Fatalf("%s: %d hashes in %d segments, want %d in %d", step, st.DistinctHashes, st.Segments, len(m.postings), len(m.segs))
	}
	checkInvariants(t, db)
}

// TestQuotientedRunMatchesReference drives a DB of 1, 64 and 256 shards and
// the reference model through one random sequence of inserts, removals,
// expiries, merges and restores, over hashes at every bucket and shard
// edge plus a hot hash with enough holders for a membership set. After
// every step each DB answers as the model does for every edge hash and its
// low-half twins, present or absent, and all three encode the same image.
func TestQuotientedRunMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			shardCounts := []int{1, DefaultShards, 256}
			// A hash space where edges recur: every edge hash of every
			// layout, winnowed-like small hashes that crowd the low shards'
			// first buckets, and uniform ones.
			var pool []uint32
			for _, n := range shardCounts {
				pool = append(pool, runEdgeHashes(n)...)
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				pool = append(pool, uint32(rng.Intn(1<<20)), rng.Uint32())
			}
			const hot = uint32(0x00012345)
			// Probes: the pool, and every pool hash moved to the
			// neighbouring buckets with its low half kept — present or
			// absent, a lookup that ignored the bucket would confuse them.
			var probes []uint32
			for _, h := range pool {
				probes = append(probes, h, h+0x10000, h-0x10000, h^0x80000)
			}
			probes = append(probes, hot)
			slices.Sort(probes)
			probes = slices.Compact(probes)

			dbs := make([]*DB, len(shardCounts))
			for i, n := range shardCounts {
				dbs[i] = NewWithShards(nil, 0.5, n)
				dbs[i].SetCompactThreshold(16)
			}
			model := &refModel{postings: map[uint32][]refPosting{}, segs: map[segment.ID]refPosting{}}
			check := func(step string) {
				t.Helper()
				for i, db := range dbs {
					checkAgainstModel(t, fmt.Sprintf("%s/shards=%d", step, shardCounts[i]), db, model, probes)
				}
				img := dbs[0].AppendSnapshot(nil)
				for i, db := range dbs[1:] {
					if !bytes.Equal(db.AppendSnapshot(nil), img) {
						t.Fatalf("%s: %d shards encode another image than 1 shard", step, shardCounts[i+1])
					}
				}
			}

			next, sawBig := 0, false
			for step := 0; step < 160; step++ {
				var name string
				switch op := rng.Intn(20); {
				case op < 14:
					seg := segment.ID(fmt.Sprintf("doc%d#p%d", next/8, next%8))
					next++
					hs := []uint32{}
					for j := 0; j < 4+rng.Intn(24); j++ {
						hs = append(hs, pool[rng.Intn(len(pool))])
					}
					hs = append(hs, hot)
					slices.Sort(hs)
					hs = slices.Compact(hs)
					for _, db := range dbs[1:] {
						db.Update(seg, fingerprint.FromHashes(hs))
					}
					model.update(dbs[0], seg, hs)
					name = "update " + string(seg)
				case op < 15:
					if len(model.segs) == 0 {
						continue
					}
					segs := make([]segment.ID, 0, len(model.segs))
					for seg := range model.segs {
						segs = append(segs, seg)
					}
					slices.Sort(segs)
					gone := segs[rng.Intn(len(segs))]
					for _, db := range dbs {
						db.RemoveSegment(gone)
					}
					model.drop(func(p refPosting) bool { return p.seg != gone })
					name = "remove " + string(gone)
				case op < 16:
					now := dbs[0].Now()
					cut := now - min(now, uint64(rng.Intn(200)))
					for _, db := range dbs {
						db.ExpireBefore(cut)
					}
					model.drop(func(p refPosting) bool { return p.seq >= cut })
					name = fmt.Sprintf("expire before %d", cut)
				case op < 18:
					for _, db := range dbs {
						db.Compact()
					}
					name = "compact"
				default:
					for i, db := range dbs {
						restored := NewWithShards(nil, 0, shardCounts[i])
						restored.SetCompactThreshold(16)
						if err := restored.LoadSnapshot(db.AppendSnapshot(nil)); err != nil {
							t.Fatal(err)
						}
						dbs[i] = restored
					}
					name = "restore"
				}
				check(fmt.Sprintf("step %d (%s)", step, name))
				if name == "compact" || name == "restore" {
					// A fresh run gives a group of bigGroupMin holders its
					// membership set.
					big := len(model.postings[hot]) >= bigGroupMin
					for i, db := range dbs {
						if got := db.hashShards[db.hashShardIdx(hot)].big[hot] != nil; got != big {
							t.Fatalf("step %d (%s)/shards=%d: hot hash with %d holders has a membership set: %v", step, name, shardCounts[i], len(model.postings[hot]), got)
						}
					}
					sawBig = sawBig || big
				}
			}
			if !sawBig {
				t.Error("the hot hash never reached a membership set")
			}
			for _, db := range dbs {
				db.Compact()
			}
			check("final compact")
		})
	}
}

// TestRunDirectoryBounds pins find's two ways of answering absent without
// a search — a hash below the run's lowest bucket and one past its
// highest — and that a directory only spans the buckets it holds.
func TestRunDirectoryBounds(t *testing.T) {
	var r run
	for _, h := range []uint32{0x00050001, 0x00050002, 0x00070000, 0x0007FFFF} {
		r.add(h, 1, 0)
	}
	r.buildDir()
	if want := []uint32{0, 2, 2, 4}; !slices.Equal(r.dir, want) || r.key0 != 5 {
		t.Fatalf("dir %v from key %d, want %v from 5", r.dir, r.key0, want)
	}
	for h, want := range map[uint32]int{
		0x00050001: 0, 0x00050002: 1, 0x00070000: 2, 0x0007FFFF: 3,
		0x00040001: -1, 0x00060001: -1, 0x00080000: -1, 0x0008FFFF: -1, 0xFFFF0001: -1, 0x00070001: -1,
	} {
		if got := r.find(h); got != want {
			t.Errorf("find(%#x) = %d, want %d", h, got, want)
		}
	}
	var hs []uint32
	for c := (runCursor{r: &r}); c.ok(); c.next() {
		hs = append(hs, c.hash())
	}
	if want := []uint32{0x00050001, 0x00050002, 0x00070000, 0x0007FFFF}; !slices.Equal(hs, want) {
		t.Errorf("cursor walks %#x, want %#x", hs, want)
	}
	var empty run
	empty.buildDir()
	if empty.dir != nil || empty.find(0) != -1 {
		t.Errorf("empty run: dir %v, find(0) = %d", empty.dir, empty.find(0))
	}
}
