package index

// Scenarios: scripts through the model rig (model_test.go), each named
// after the behaviour it exercises. A scenario asserts nothing of its own
// beyond a few answers the paper fixes; the rig holds every read of every
// layout, every image and a restored copy to the reference model.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// runOps runs ops, space-separated operations, on a rig of
// standardLayouts at the given shard counts (see run).
func runOps(t *testing.T, ops string, shards ...int) *modelRig {
	return runScript(t, script(ops), shards...)
}

// script is a script of ops for run.
func script(ops string) func(r *modelRig) { return func(r *modelRig) { r.run(ops) } }

// run applies ops, space-separated operations:
//
//	seg:h,h,…   Update seg's fingerprint to the hashes, with no decision;
//	            a hash is a number, fN is edgeFP(N)'s and fN<k its first k
//	seg+:h,…    the same with a decision made at the current generation,
//	            which discloses origin#p0
//	seg~:h,…    the same with one made a generation before it
//	seg@n:h,…   post seg's postings of the hashes, stamped n
//	-seg        RemoveSegment
//	seg=t       SetThreshold
//	expire:n    ExpireBefore
//	floor:n     SetClockFloor
//	compact     Compact
//	restore     replace every DB with one restored from its image
func (r *modelRig) run(ops string) {
	r.t.Helper()
	num := func(s string) uint64 {
		n, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			r.t.Fatalf("script: %v", err)
		}
		return n
	}
	for _, op := range strings.Fields(ops) {
		name, arg, _ := strings.Cut(op, ":")
		seg, at, late := strings.Cut(name, "@")
		var hs []uint32
		for _, h := range strings.Split(arg, ",") {
			if base, ok := strings.CutPrefix(h, "f"); ok {
				base, k, cut := strings.Cut(base, "<")
				fp := edgeFP(int(num(base)))
				if cut {
					fp = fp[:num(k)]
				}
				hs = append(hs, fp...)
			} else if h != "" {
				hs = append(hs, uint32(num(h)))
			}
		}
		switch {
		case op == "compact":
			r.compact()
		case op == "restore":
			r.restoreAll()
		case name == "expire":
			r.expire(num(arg))
		case name == "floor":
			r.floor(num(arg))
		case op[0] == '-':
			r.remove(segment.ID(op[1:]))
		case strings.Contains(op, "="):
			seg, t, _ := strings.Cut(op, "=")
			f, _ := strconv.ParseFloat(t, 64)
			r.threshold(segment.ID(seg), f)
		case late:
			r.post(segment.ID(seg), fingerprint.FromHashes(hs).Hashes(), num(at))
		case strings.HasSuffix(name, "+"):
			r.update(segment.ID(strings.TrimSuffix(name, "+")), hs, modelDecisions[1])
		case strings.HasSuffix(name, "~"):
			r.update(segment.ID(strings.TrimSuffix(name, "~")), hs, modelDecisions[3])
		default:
			r.update(segment.ID(name), hs, nil)
		}
	}
}

// edgeSeg is the i-th segment, and edgeFP the 20 hashes at base (bases 10
// apart share none, adjacent ones share half), of workload's universe.
func edgeSeg(i int) segment.ID { return segment.ID(fmt.Sprintf("doc%d#p%d", i/12, i%12)) }

func edgeFP(base int) []uint32 {
	hs := make([]uint32, 0, 20)
	for j := 0; j < 20; j++ {
		hs = append(hs, uint32(base*10+j)*0x9e3779b1)
	}
	return fingerprint.FromHashes(hs).Hashes()
}

// workload applies ops random operations over edgeSeg's 96 segments and
// edgeFP's 40 fingerprints — updates (with each of modelDecisions),
// removals, thresholds, and expiries up to a stamp among the
// oldest quarter of the live ones, so they cut into the state at any
// length — and runs tick (nil: none) then checks after each every.
func workload(r *modelRig, seed int64, ops, every int, tick func()) {
	r.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for done := 0; done < ops; done += every {
		r.batch(fmt.Sprintf("workload op %d", done+every), func() {
			for i := 0; i < every; i++ {
				seg := edgeSeg(rng.Intn(96))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5, 6:
					r.update(seg, edgeFP(rng.Intn(40)), modelDecisions[rng.Intn(len(modelDecisions))])
				case 7:
					r.remove(seg)
				case 8:
					r.threshold(seg, 0.25)
				case 9:
					stamps := append(r.m.stamps(), r.m.clock)
					r.expire(stamps[rng.Intn(len(stamps)/4+1)])
				}
			}
			if tick != nil {
				tick()
			}
		})
	}
}

// edgeScript replays, inside workload's universe, the cases a layout that
// keeps a hash's first holder inline can get wrong, checking after each.
func edgeScript(r *modelRig) {
	r.t.Helper()
	segs := func(lo, hi int, fp int) {
		for i := lo; i < hi; i++ {
			r.update(edgeSeg(i), edgeFP(fp), nil)
		}
	}
	r.batch("segments cleared", func() {
		for i := 0; i < 96; i++ {
			r.remove(edgeSeg(i))
		}
	})
	// A multi-holder group loses its first holder: the spill promotes.
	// Then the promoted one goes too, with a third holder still spilled
	// and a fourth in the head.
	r.batch("first holders removed", func() {
		segs(0, 3, 0)
		r.run("compact -doc0#p0 doc0#p3:f0 -doc0#p1 compact")
	})
	// A group crosses bigGroupMin, shrinks under it by removals and is
	// joined from the head by a new holder and by a removed one returning.
	r.batch("membership set", func() {
		segs(4, 4+bigGroupMin+6, 2)
		r.compact()
		for i := 4; i < 14; i++ {
			r.remove(edgeSeg(i))
		}
		r.run("doc6#p8:f2 doc0#p4:f2")
	})
	// A head bucket crosses memberMapThreshold, loses its inline holder
	// and a member, and gets a repeat of a present holder.
	r.batch("overflow bucket", func() {
		segs(84, 84+memberMapThreshold+4, 4)
		r.run("-doc7#p0 -doc7#p6 doc7#p1:f5 doc7#p1:f4 compact")
	})
	r.expire(r.m.clock - 30)
	// Stamps are drawn before shard locks are taken, so an older stamp can
	// reach a hash after a newer one: within the head (the late one takes
	// the inline slot), in the head under a newer run holder, and in the
	// head under a run whose every holder is newer (the head is
	// authoritative).
	now := r.m.clock
	r.batch("late stamps", func() {
		r.run(fmt.Sprintf("floor:%d doc1#p8:f6 doc1#p10@%[1]d:f6 doc1#p9@%d:f6 floor:%d doc1#p11:f6 "+
			"compact doc2#p0@%[3]d:f6 floor:%d doc2#p1:f8 compact doc2#p2@%[4]d:f8", now+2, now+1, now+4, now+6))
	})
}

func TestUpdateAndLookup(t *testing.T) { runOps(t, "doc#p0:1,2,3 doc#p1:3,4") }
func TestOldestHolder(t *testing.T)    { runOps(t, "a:10,11 b:10,12") }
func TestStats(t *testing.T)           { runOps(t, "a:1,2 b:2,3") }
func TestSegmentsSorted(t *testing.T)  { runOps(t, "zz:1 aa:2 mm:3") }

// TestHoldersOrder: first seen first; late postings stamped like x and y
// come after them.
func TestHoldersOrder(t *testing.T) { runOps(t, "x:7 y:7 z:7 w@1:7 v@2:7") }

// TestFirstSeenSurvivesReupdate: a re-update neither loses nor refreshes
// a's first-seen posting of 10.
func TestFirstSeenSurvivesReupdate(t *testing.T) { runOps(t, "a:10 b:10 a:10,20") }

// TestThresholds: a threshold of its own, and one on an unseen segment,
// which makes its entry.
func TestThresholds(t *testing.T) { runOps(t, "a:1 a=0.8 new=0.1") }

// TestAuthoritativeCount: b is authoritative only for 4.
func TestAuthoritativeCount(t *testing.T) { runOps(t, "a:1,2,3 b:2,3,4") }

// TestAuthoritativeOverlap is Figure 7: B is a superset of A, and C copies
// the text they share. A is authoritative for {1, 2}, B only for {3}, so
// C overlaps A fully and B only by hashes B is not authoritative for.
func TestAuthoritativeOverlap(t *testing.T) {
	r := runOps(t, "A:1,2 B:1,2,3")
	c := fingerprint.FromHashes([]uint32{1, 2})
	for i, db := range r.dbs {
		a, lenA := db.AuthoritativeOverlap("A", c)
		b, lenB := db.AuthoritativeOverlap("B", c)
		if a != 2 || lenA != 2 || b != 0 || lenB != 3 {
			t.Errorf("%v: overlaps (%d of %d, %d of %d), want (2 of 2, 0 of 3)", r.layouts[i], a, lenA, b, lenB)
		}
	}
}

// TestRemoveSegmentPromotesYounger, and removing a segment without an
// entry does nothing.
func TestRemoveSegmentPromotesYounger(t *testing.T)       { runOps(t, "old:5 young:5 -old -ghost") }
func TestRemoveSegmentDropsEmptyHashEntries(t *testing.T) { runOps(t, "only:42 -only") }

// TestExpireBefore: a's posting of 1 expires and a's entry with it.
func TestExpireBefore(t *testing.T) { runOps(t, "a:1 b:1,2 expire:2") }

// TestExportImportRoundTrip: a threshold, the default one and the clock
// survive a restore, which resumes the clock past the image's.
func TestExportImportRoundTrip(t *testing.T) { runOps(t, "a:1,2,3 b:2,4 b=0.8 restore c:9") }
func TestExportDeterministic(t *testing.T)   { runOps(t, "z:5,6 a:5,7") }

// TestMemoAnswersUntilAChange: a decision is memoised until the next
// change that can alter what Algorithm 1 answers — an update that changes
// a fingerprint, a threshold, a removal, an expiry or a restore — and
// survives what cannot: an unchanged re-observation, a removal of a
// segment never seen, a clock floor and a merge.
func TestMemoAnswersUntilAChange(t *testing.T) {
	runOps(t, "a+:1,2 b+:3,4 a+:1,2 c:5 a+:1,2 b+:3,4 b=0.8 a+:1,2 -c a+:1,2 -never a:1,2 floor:100 compact "+
		"a+:1,2 b+:3,4 expire:1 a+:1,2 restore a+:1,2 b:1,2,3")
}

// TestStaleDecisionIsNotMemoised: a decision made before the generation
// last moved read a state that has changed since, so neither an update
// that changes the fingerprint nor one that leaves it memoises it.
func TestStaleDecisionIsNotMemoised(t *testing.T) {
	runOps(t, "a~:1,2 a~:1,2 b:3 a~:1,2 a+:1,2 b~:3,4 b~:3,4")
}

// decideAll updates segments lo … hi−1 to hashes shared with their
// neighbours', so every shard holds run and head postings of one hash,
// then re-observes each unchanged with a decision, so the memo holds one
// for every segment: every third one discloses a source.
func decideAll(r *modelRig, lo, hi int) {
	r.batch(fmt.Sprintf("segments %d to %d decided", lo, hi-1), func() {
		for pass := 0; pass < 2; pass++ {
			for i := lo; i < hi; i++ {
				hs := make([]uint32, 0, 24)
				for j := 0; j < 24; j++ {
					hs = append(hs, uint32((i*5+j*17)%96)*0x9e3779b1)
				}
				d := &Decision{}
				if i%3 == 0 {
					d.Sources = []Source{{Seg: edgeSeg(i + 100), Disclosure: 0.75, Threshold: 0.5}}
				}
				r.update(edgeSeg(i), hs, d)
			}
		}
	})
}

// TestExpireBeforeEvictsExactlyOnceAcrossLayouts: an expiry takes exactly
// the rows of the segments it drops, and every decision, whether their
// postings are in the heads, the runs, both, or a restore rebuilt them; a
// second expiry at the same cutoff has nothing left to drop.
func TestExpireBeforeEvictsExactlyOnceAcrossLayouts(t *testing.T) {
	for _, layout := range []string{"head", "compacted", "split", "restored"} {
		t.Run(layout, func(t *testing.T) {
			runScript(t, func(r *modelRig) {
				decideAll(r, 0, 8)
				if layout != "head" {
					r.compact() // the old segments' postings in the runs
				}
				decideAll(r, 8, 16)
				switch layout {
				case "compacted":
					r.compact() // "split" keeps the young ones in the heads
				case "restored":
					r.restoreAll() // no decision survives: make the young ones again
					decideAll(r, 8, 16)
				}
				r.run("expire:9 expire:9")
			})
		})
	}
}

// TestRemoveSegmentEvictsExactlyOnceAcrossLayouts: a removal takes the
// row once, and every decision; removing it again, or a segment never
// seen, drops nothing; re-added undecided, then decided and removed again.
func TestRemoveSegmentEvictsExactlyOnceAcrossLayouts(t *testing.T) {
	for _, layout := range []string{"head", "compacted", "restored"} {
		t.Run(layout, func(t *testing.T) {
			runScript(t, func(r *modelRig) {
				decideAll(r, 0, 6)
				switch layout {
				case "compacted":
					r.compact()
				case "restored":
					r.restoreAll()
					decideAll(r, 0, 6)
				}
				r.run("-doc0#p3 -doc0#p3 -wiki/never#p0 doc0#p3:1")
				decideAll(r, 3, 4)
				if layout == "compacted" {
					r.compact()
				}
				r.remove(edgeSeg(3))
			})
		})
	}
}

// TestStatsCountersMaintained: overlapping updates (each shares half its
// hashes with the last), a changed re-update, a threshold-only entry,
// repeated and unknown removals, an expiry and one of everything.
func TestStatsCountersMaintained(t *testing.T) {
	for _, shards := range []int{1, 4, DefaultShards} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runScript(t, func(r *modelRig) {
				for i := 0; i < 20; i++ {
					hs := make([]uint32, 0, 16)
					for j := 0; j < 16; j++ {
						hs = append(hs, uint32(i*8+j)*0x9e3779b1)
					}
					r.update(segment.ID(fmt.Sprintf("doc#p%d", i)), hs, nil)
				}
				r.run("doc#p3:1,2,3 thresholds-only=0.9 -doc#p5 -doc#p5 -never-existed expire:11 expire:22")
			}, shards)
		})
	}
}

// TestStatsLargeExact: each of 200 segments shares half its 64 hashes
// with its predecessor: 200 × 64 postings of 64 + 199 × 32 hashes.
func TestStatsLargeExact(t *testing.T) {
	r := runScript(t, func(r *modelRig) {
		r.batch("200 segments", func() {
			for i := 0; i < 200; i++ {
				hs := make([]uint32, 64)
				for j := range hs {
					hs[j] = uint32(i*32 + j)
				}
				r.update(segment.ID(fmt.Sprintf("s#%d", i)), hs, nil)
			}
		})
	}, DefaultShards)
	if s := r.dbs[0].Stats(); s.Segments != 200 || s.Postings != 200*64 || s.DistinctHashes != 64+199*32 {
		t.Fatalf("Stats = %+v, want 200 segments, %d postings, %d hashes", s, 200*64, 64+199*32)
	}
}

// TestCompactionObservableEquivalence: the random workload, then the
// inline-holder edges.
func TestCompactionObservableEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4, DefaultShards} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runScript(t, func(r *modelRig) {
					workload(r, seed, 42, 7, r.compact)
					edgeScript(r)
					r.compact()
				}, shards)
			})
		}
	}
}

// TestDigestMaintainedMatchesRecomputed: the digests as operations land,
// with postings in the heads, merged now and then, and on DBs restored
// from their images mid-stream.
func TestDigestMaintainedMatchesRecomputed(t *testing.T) {
	for _, layout := range []string{"head", "compacted", "restored"} {
		t.Run(layout, func(t *testing.T) {
			runScript(t, func(r *modelRig) {
				workload(r, 1, 120, 30, map[string]func(){"head": nil, "compacted": r.compact, "restored": r.restoreAll}[layout])
			})
		})
	}
}

// TestDigestReplayOrderInvariant: one history merged at other boundaries —
// as a replica's chunked apply is — at any shard count.
func TestDigestReplayOrderInvariant(t *testing.T) {
	runScript(t, func(r *modelRig) {
		workload(r, 2, 60, 13, r.compact)
		workload(r, 3, 60, 30, nil)
	})
}

func TestDigestSnapshotRoundTrip(t *testing.T) {
	runScript(t, func(r *modelRig) { workload(r, 4, 60, 30, r.restoreAll) })
}

// TestSnapshotDeterministic: the image is a function of the logical state,
// whatever the shard count and merge history, and a restore encodes it
// again.
func TestSnapshotDeterministic(t *testing.T) {
	runScript(t, func(r *modelRig) { workload(r, 7, 120, 20, r.compact) })
}

// snapshotCases are the states the codec has to get right: the random
// workload, the inline-holder edges, and one small state per place where
// the image stores a fact indirectly — a fingerprint as flags on
// postings, a stamp as a distance from its holder's base, a tail of later
// holders as a repeat, a threshold only when it is not the default.
var snapshotCases = []struct {
	name   string
	script func(r *modelRig)
}{
	{"workload", func(r *modelRig) { workload(r, 1, 72, 12, r.compact) }},
	{"workload and edges", func(r *modelRig) {
		workload(r, 2, 72, 12, r.compact)
		edgeScript(r)
	}},
	// s0 keeps half of its first version's hashes; s2, shrunk to hashes it
	// had posted, posts nothing new, and the expiry leaves it a fingerprint
	// without one posting.
	{"fingerprint hashes whose postings expired", script("s0:f0 s2:f4 compact s0:f1 s1:f1 s2:f4<7 expire:3")},
	// What an image written before RemoveSegment took every version's
	// postings can hold; nothing the DB does makes it any more.
	{"postings without a DBpar entry", func(r *modelRig) {
		m, hs := newRefModel(), edgeFP(0)
		m.clock = 9
		m.post(edgeSeg(0), hs, 2)
		m.post(edgeSeg(1), hs, 5)
		m.segs[edgeSeg(1)] = refSeg{hashes: hs, posted: hs, updated: 5, threshold: 0.5}
		r.load(noEntryImage(), m)
		r.run("doc0#p2:f0 compact")
	}},
	// An entry that is only a threshold, one of its own, one the default.
	{"thresholds", script("s0=0.9 s1:f0 s1=0.25 s2:f0 s2=0.5")},
	{"posted union larger than the fingerprint", script("s0:f0 s1:f1 compact s0:f1 s0:f4")},
	// s0 updated 2^40 above its first postings; an old stamp arriving late
	// for a segment without an entry, and a posting stamped after its
	// holder's last update.
	{"wide stamps on both sides of a clock-floor jump",
		script("s0:f0 s1:f0 compact floor:0x10000000000 s2:f0 s0:f1 s3@3:f1 floor:0x10000000003 s1@0x10000000003:f2")},
	// s0 edited on both sides of a 2^40 jump: its postings' distances below
	// its updated run from a few ticks to 2^41 in one stream, so the
	// adaptive code's parameter climbs to a wide distance and comes down.
	{"an edit history straddling a clock-floor jump",
		script("s0:f0 s1:f1 s0:f0,f2 s0:f0,f2,f4 floor:0x10000000000 s0:f0,f2,f4,f6 s1:f1,f3 s0:f0,f2,f4,f6,f8")},
	// Layouts that do not merge inline keep the tombstones.
	{"multi-holder groups with the inline holder tombstoned", script("s0:f0 s1:f0 s2:f0 s3:f0 compact -s0 -s2 s4:f0")},
	// s0 leads every group; f4's hashes, its alone, fall between those of
	// f0, which two later segments also hold: each later group repeats
	// the tail its first spelled.
	{"repeated tails after single-holder groups", script("s0:f0,f4 compact s1:f0 s2:f0")},
	// Behind the first two holders of f0, alternate hashes have a third
	// holder and a fourth: no tail is the one before it.
	{"tails that differ in one ref", func(r *modelRig) {
		r.run("s0:f0 s1:f0 compact")
		var alternate [2][]uint32
		for i, h := range edgeFP(0) {
			alternate[i%2] = append(alternate[i%2], h)
		}
		r.update("s2", alternate[0], nil)
		r.update("s3", alternate[1], nil)
	}},
	// Four holders of f0, then the third is edited to a superset (its
	// postings of f0 are now below its updated) and the fourth to other
	// hashes (its postings left its fingerprint): the tail cannot repeat
	// and is spelled out with flags.
	{"stale and stamped later holders", script("s0:f0 s1:f0 s2:f0 s3:f0 compact s2:f0,f4 s3:f8")},
	// Hashes at both edges of the first, second, fourth and last 1/64;
	// the third and the 59 after the fourth are empty.
	{"empty parts of the hash space and the top hash",
		script("s0:0,1,0x3ffffff,0x4000000,0xc000000,0xfffffff,0xfc000000,0xfffffffe,0xffffffff compact s1:0,0xffffffff")},
	{"a table of 2^6 segments", func(r *modelRig) { tableOf(r, 64) }},
	{"a table of 2^6+1 segments", func(r *modelRig) { tableOf(r, 65) }},
	// 64 segments share 400 hashes: as repeats, 25 600 postings in about
	// 2 KB. The encoder spells tails out to keep within a posting a bit,
	// which is what the decoder holds an image to.
	{"more repeated postings than the image has bits", func(r *modelRig) {
		hs := make([]uint32, 400)
		for j := range hs {
			hs[j] = uint32(j) * 0x9e3779b1
		}
		r.batch("64 holders of 400 hashes", func() {
			for i := 0; i < 64; i++ {
				r.update(edgeSeg(i), hs, nil)
				if i == 32 {
					r.compact()
				}
			}
		})
		if n, bits := r.dbs[0].Stats().Postings, 8*len(snapshot(r.dbs[0])); n != 64*400 || n > bits {
			r.t.Fatalf("%d postings in an image of %d bits; want 25600, within the bits", n, bits)
		}
	}},
}

// tableOf has n segments each hold a hash of its own and one they share,
// so one group spells out a tail of n−1 refs at the table's width.
func tableOf(r *modelRig, n int) {
	r.batch(fmt.Sprintf("a table of %d", n), func() {
		for i := 0; i < n; i++ {
			r.update(edgeSeg(i), []uint32{uint32(i+1) * 0x9e3779b1, 0xdeadbeef}, nil)
			if i == n/2 {
				r.compact()
			}
		}
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range snapshotCases {
		t.Run(tc.name, func(t *testing.T) { runScript(t, tc.script) })
	}
}

// TestSeqRangeAcrossClockFloor: SetClockFloor takes a router's Lamport
// stamp, so two holders of one hash can be first seen 2^40 apart. Merged,
// merged again and restored, the first holder's removal promotes one from
// the far side of the jump, and expiries cut on either side of it.
func TestSeqRangeAcrossClockFloor(t *testing.T) {
	const built = "old:0x10,0x11,0x12 compact floor:0x10000000000 new:0x11,0x12,0x13 compact newer:0x12,0x14 "
	for _, variant := range [][2]string{{"merged", ""}, {"merged again", "compact "}, {"restored", "restore "}} {
		t.Run("built/"+variant[0], func(t *testing.T) {
			runOps(t, built+variant[1]+"expire:0x10000000000 expire:0x10000000002")
		})
		t.Run("first holder removed/"+variant[0], func(t *testing.T) {
			runOps(t, built+variant[1]+"-old expire:0x10000000002")
		})
	}
}
