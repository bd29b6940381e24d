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
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// refPosting is one holder of a hash in the reference model.
type refPosting struct {
	seg segment.ID
	seq uint64
}

// refSeg is a segment's DBpar entry in the reference model; posted is its
// posted union, every hash it holds a posting of since the entry was made
// (postings made by post aside), ascending; decided marks that it holds
// the decision made for hashes, whose sources are sources.
type refSeg struct {
	hashes, posted []uint32
	updated        uint64
	decided        bool
	sources        []Source
}

// refModel is the reference: every live posting by hash, oldest first
// (arrival order on equal stamps), every DBpar entry, and the clock.
type refModel struct {
	postings map[uint32][]refPosting
	segs     map[segment.ID]refSeg
	clock    uint64
}

func newRefModel() *refModel {
	return &refModel{postings: map[uint32][]refPosting{}, segs: map[segment.ID]refSeg{}}
}

// update is DB.Update: the entry's decision becomes d (nil: none), an
// unchanged fingerprint changes nothing else, a new one ticks the clock
// and posts every hash seg does not hold yet. It returns the stamp Update
// must return.
func (m *refModel) update(seg segment.ID, hs []uint32, d *Decision) uint64 {
	decided, sources := d != nil, []Source(nil)
	if decided {
		sources = d.Sources
	}
	if s, ok := m.segs[seg]; ok && slices.Equal(s.hashes, hs) {
		s.decided, s.sources = decided, sources
		m.segs[seg] = s
		return s.updated
	}
	m.clock++
	m.post(seg, hs, m.clock)
	posted := slices.Clone(hs)
	if s, ok := m.segs[seg]; ok {
		posted = append(posted, s.posted...)
		slices.Sort(posted)
		posted = slices.Compact(posted)
	}
	m.segs[seg] = refSeg{hashes: hs, posted: posted, updated: m.clock, decided: decided, sources: sources}
	return m.clock
}

// post records (h, seg, seq) for every h of hs that seg does not hold,
// with no DBpar change: what postAt does.
func (m *refModel) post(seg segment.ID, hs []uint32, seq uint64) {
	for _, h := range hs {
		ps := m.postings[h]
		if slices.ContainsFunc(ps, func(p refPosting) bool { return p.seg == seg }) {
			continue
		}
		i := len(ps)
		for i > 0 && ps[i-1].seq > seq {
			i--
		}
		m.postings[h] = slices.Insert(ps, i, refPosting{seg, seq})
	}
}

// remove is DB.RemoveSegment: the entry goes, and the postings of its
// posted union, earlier versions' included.
func (m *refModel) remove(seg segment.ID) {
	s, ok := m.segs[seg]
	if !ok {
		return
	}
	for _, h := range s.posted {
		m.dropPostings(h, func(p refPosting) bool { return p.seg == seg })
	}
	delete(m.segs, seg)
}

// expire is DB.ExpireBefore: each surviving entry's union keeps the
// hashes whose posting survived.
func (m *refModel) expire(cut uint64) {
	for h := range m.postings {
		m.dropPostings(h, func(p refPosting) bool { return p.seq < cut })
	}
	for seg, s := range m.segs {
		if s.updated < cut {
			delete(m.segs, seg)
			continue
		}
		s.posted = slices.DeleteFunc(slices.Clone(s.posted), func(h uint32) bool { return !m.holds(seg, h) })
		m.segs[seg] = s
	}
}

// restore is what a snapshot restore makes of the entries: each one's
// union is every hash its segment holds a posting of, post's included, and
// no decision survives (an image holds none).
func (m *refModel) restore() {
	for seg, s := range m.segs {
		s.decided, s.sources = false, nil
		s.posted = nil
		for h := range m.postings {
			if m.holds(seg, h) {
				s.posted = append(s.posted, h)
			}
		}
		slices.Sort(s.posted)
		m.segs[seg] = s
	}
}

// holds reports whether seg holds a posting of h.
func (m *refModel) holds(seg segment.ID, h uint32) bool {
	return slices.ContainsFunc(m.postings[h], func(p refPosting) bool { return p.seg == seg })
}

func (m *refModel) dropPostings(h uint32, del func(refPosting) bool) {
	if ps := slices.DeleteFunc(m.postings[h], del); len(ps) == 0 {
		delete(m.postings, h)
	} else {
		m.postings[h] = ps
	}
}

// stamps returns the distinct live stamps, ascending.
func (m *refModel) stamps() []uint64 {
	var out []uint64
	for _, ps := range m.postings {
		for _, p := range ps {
			out = append(out, p.seq)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// modelRig drives DBs and the reference through the same operations,
// checking each DB against the model after every one.
type modelRig struct {
	t          *testing.T
	tab        *segment.Table // shared by every DB, so refs are the same in all
	dbs        []*DB
	shards     []int // each DB's shard count
	compactMin []int // each DB's compact threshold
	m          *refModel
	probe      []uint32
	cases      map[string]bool // the spliceCases compact has met
}

func newModelRig(t *testing.T, tab *segment.Table, shards, thresholds []int, probes []uint32) *modelRig {
	rig := &modelRig{t: t, tab: tab, shards: shards, compactMin: thresholds, m: newRefModel(), probe: probes, cases: map[string]bool{}}
	for i := range shards {
		rig.dbs = append(rig.dbs, rig.newDB(i))
	}
	return rig
}

func (rig *modelRig) newDB(i int) *DB {
	db := NewWithShards(rig.tab, 0.5, rig.shards[i])
	db.SetCompactThreshold(rig.compactMin[i])
	return db
}

func (rig *modelRig) update(seg segment.ID, hs []uint32, d *Decision) {
	rig.t.Helper()
	want := rig.m.update(seg, hs, d)
	for i, db := range rig.dbs {
		if got := db.Update(seg, fingerprint.FromHashes(hs), d); got != want {
			rig.t.Fatalf("update %s on db %d: stamp %d, want %d", seg, i, got, want)
		}
	}
}

func (rig *modelRig) post(seg segment.ID, hs []uint32, seq uint64) {
	rig.m.post(seg, hs, seq)
	for _, db := range rig.dbs {
		postAt(db, seg, hs, seq)
	}
}

func (rig *modelRig) remove(seg segment.ID) {
	rig.m.remove(seg)
	for _, db := range rig.dbs {
		db.RemoveSegment(seg)
	}
}

func (rig *modelRig) expire(cut uint64) {
	rig.m.expire(cut)
	for _, db := range rig.dbs {
		db.ExpireBefore(cut)
	}
}

func (rig *modelRig) floor(f uint64) {
	rig.m.clock = max(rig.m.clock, f)
	for _, db := range rig.dbs {
		db.SetClockFloor(f)
	}
}

// compact merges every DB, recording the splice cases each merge meets.
func (rig *modelRig) compact() {
	for _, db := range rig.dbs {
		for si := range db.hashShards {
			for c := range spliceCasesOf(&db.hashShards[si]) {
				rig.cases[c] = true
			}
		}
		db.Compact()
	}
}

// spliceCases are the shapes of a merge where splicing a run's untouched
// groups over can slip (see run.splice).
var spliceCases = []string{
	"stretch copied across a bit offset", "ref column widened", "stamp column widened",
	"run with tombstones", "wide stamp in a copied stretch", "head hash below the run's first bucket",
	"head hash past the run's last bucket", "head hash at a bucket's first group",
	"head hash at a bucket's last group", "spill split by a head hash",
}

// spliceCasesOf returns the spliceCases the next merge of sh meets, read
// off the shard before it merges.
func spliceCasesOf(sh *hashShard) map[string]bool {
	r, cases := &sh.run, map[string]bool{}
	if sh.dead > 0 {
		cases["run with tombstones"] = true
		return cases // every group is decoded
	}
	if len(r.lo) == 0 || sh.headPostings == 0 {
		return cases
	}
	var maxRef, maxStamp uint32
	code := func(ref uint32, seq uint64) {
		maxRef = max(maxRef, ref)
		if c := stampCode(seq, *r.born.At(ref)); c != wideSeq {
			maxStamp = max(maxStamp, c)
		}
	}
	keys := sh.headKeys()
	for _, key := range keys {
		i := int(uint32(key))
		code(sh.head.rows[i].ref&^moreBit, sh.head.seq(i))
	}
	for _, b := range sh.over {
		for _, p := range b.postings {
			code(p.ref, p.seq)
		}
	}
	refWidth := max(r.refs.width, codeWidth(refCode(maxRef|moreBit)))
	held := map[int]bool{} // run groups the head holds too
	next, inserted, copied := 0, 0, false
	for j := 0; j <= len(keys); j++ {
		end, found := len(r.lo), false
		var h uint32
		if j < len(keys) {
			h = uint32(keys[j] >> 32)
			end, found = r.search(h)
		}
		if end > next {
			copied = true
			if uint(next)*refWidth%64 != uint(next+inserted)*refWidth%64 {
				cases["stretch copied across a bit offset"] = true
			}
		}
		if j == len(keys) {
			break
		}
		next = end
		b := h>>16 - r.key0
		switch {
		case h>>16 < r.key0:
			cases["head hash below the run's first bucket"] = true
		case b >= uint32(len(r.dir)-1):
			cases["head hash past the run's last bucket"] = true
		case found && r.dir[b+1]-r.dir[b] >= 2 && end == int(r.dir[b]):
			cases["head hash at a bucket's first group"] = true
		case found && r.dir[b+1]-r.dir[b] >= 2 && end == int(r.dir[b+1])-1:
			cases["head hash at a bucket's last group"] = true
		}
		if k, _ := slices.BinarySearch(r.moreHashes, h); k > 0 && k < len(r.moreHashes) && r.moreHashes[k] > h {
			cases["spill split by a head hash"] = true
		}
		if found {
			held[end] = true
			next++
		} else {
			inserted++
		}
	}
	if copied && refWidth > r.refs.width {
		cases["ref column widened"] = true
	}
	if copied && codeWidth(maxStamp) > r.stamps.width {
		cases["stamp column widened"] = true
	}
	for key := range r.wide {
		g := int(key)
		if key&moreBit != 0 {
			g = r.find(r.moreHashes[key&^moreBit])
		}
		if !held[g] {
			cases["wide stamp in a copied stretch"] = true
		}
	}
	return cases
}

// missingCases returns the spliceCases the rig's merges have not met.
func (rig *modelRig) missingCases() []string {
	var missing []string
	for _, c := range spliceCases {
		if !rig.cases[c] {
			missing = append(missing, c)
		}
	}
	return missing
}

// restore replaces every DB with one restored from its image, on the same
// segment table: the image's refs are renumbered to the table's, so the
// restore re-packs the run's ref columns.
func (rig *modelRig) restore() {
	rig.t.Helper()
	rig.m.restore()
	for i, db := range rig.dbs {
		restored := rig.newDB(i)
		if err := restored.LoadSnapshot(db.AppendSnapshot(nil)); err != nil {
			rig.t.Fatal(err)
		}
		rig.dbs[i] = restored
	}
}

// check compares every DB with the model, and their images with each
// other's.
func (rig *modelRig) check(step string) {
	rig.t.Helper()
	for i, db := range rig.dbs {
		checkAgainstModel(rig.t, fmt.Sprintf("%s/shards=%d,min=%d", step, rig.shards[i], rig.compactMin[i]), db, rig.m, rig.probe)
	}
	img := rig.dbs[0].AppendSnapshot(nil)
	for i, db := range rig.dbs[1:] {
		if !bytes.Equal(db.AppendSnapshot(nil), img) {
			rig.t.Fatalf("%s: db %d encodes another image than db 0", step, i+1)
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
		inHead := sh.head.find(h) >= 0
		ref, seq, ok := db.oldestLocked(sh, h, true)
		sh.mu.RUnlock()
		if g >= 0 && sh.run.lo[g] != uint16(h) {
			t.Fatalf("%s: find(%#x) = group %d holding low half %#x", step, h, g, sh.run.lo[g])
		}
		if len(want) > 0 && g < 0 && !inHead {
			t.Fatalf("%s: hash %#x with %d holders is in neither tier", step, h, len(want))
		}
		if len(want) == 0 && g >= 0 && sh.run.first(g) != tombstoneRef {
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
	decided, sourced := 0, 0
	for seg, s := range m.segs {
		ss := db.segShardFor(seg)
		ss.mu.RLock()
		_, row := db.lookupRow(seg)
		posted := ss.postedOf(row)
		ss.mu.RUnlock()
		if !slices.Equal(posted, s.posted) && len(posted)+len(s.posted) > 0 {
			t.Fatalf("%s: posted union of %s = %#x, want %#x", step, seg, posted, s.posted)
		}
		// The decision answers the fingerprint the entry holds, and no
		// other: not one that differs from it in a single hash.
		sources, ok := db.Decision(seg, s.hashes)
		if ok != s.decided || !slices.Equal(sources, s.sources) {
			t.Fatalf("%s: decision of %s = %v (%v), want %v (%v)", step, seg, sources, ok, s.sources, s.decided)
		}
		if len(s.hashes) > 0 {
			if _, ok := db.Decision(seg, s.hashes[1:]); ok {
				t.Fatalf("%s: %s answers a decision for a fingerprint it does not hold", step, seg)
			}
		}
		if s.decided {
			decided++
		}
		if len(s.sources) > 0 {
			sourced++
		}
	}
	if d, s := db.Decisions(); d != decided || s != sourced {
		t.Fatalf("%s: %d decided entries, %d with sources; want %d, %d", step, d, s, decided, sourced)
	}
	checkInvariants(t, db)
}

// fillTable interns filler segments until tab issues ref n next.
func fillTable(tab *segment.Table, n int) {
	for tab.Len() < n {
		tab.Intern(segment.ID(fmt.Sprintf("filler#%d", tab.Len())))
	}
}

// liveSeg returns one of the model's segments with an entry, chosen by rng.
func (m *refModel) liveSeg(rng *rand.Rand) (segment.ID, bool) {
	segs := make([]segment.ID, 0, len(m.segs))
	for seg := range m.segs {
		segs = append(segs, seg)
	}
	if len(segs) == 0 {
		return "", false
	}
	slices.Sort(segs)
	return segs[rng.Intn(len(segs))], true
}

// stampCodeOf returns the stamp code of ref's posting of h in db's run,
// and whether the run holds one.
func stampCodeOf(db *DB, h, ref uint32) (code uint32, ok bool) {
	r := &db.hashShards[db.hashShardIdx(h)].run
	g := r.find(h)
	if g < 0 {
		return 0, false
	}
	if r.first(g)&^moreBit == ref {
		return r.stamps.at(g), true
	}
	for k, hi := r.more(h); k < hi; k++ {
		if r.moreRef(k) == ref {
			return r.moreStamps.at(k), true
		}
	}
	return 0, false
}

// TestQuotientedRunMatchesReference drives a DB of 1, 64 and 256 shards and
// the reference model through one random sequence of inserts, removals,
// expiries, clock jumps, merges and restores, over hashes at every bucket
// and shard edge plus a hot hash with enough holders for a membership set.
// After every step each DB answers as the model does for every edge hash
// and its low-half twins, present or absent, and all three encode the same
// image.
//
// The packed columns' widths are crossed on purpose: the DBs share a
// segment table whose fillers push the refs of new segments across 2^15
// and 2^16, and edits after clock jumps code stamps at distances from
// their holders' born stamps across bit boundaries. A final phase builds
// the stamp codes holder-relative coding can get wrong: a holder born
// before a 2^40 jump that posts after it (a wide code), a restored holder
// whose postings are older than its updated (a negative code), and a
// removal that moves a spilled successor with another born stamp, the
// run's widest ref and the run's widest code into the inline slot.
//
// Each seed's explicit merges must between them meet every one of
// spliceCases — stretches copied across bit offsets, columns widened by a
// head code, tombstones, wide stamps in a copied stretch, head hashes
// outside the run's directory and at a bucket's ends, a spill column cut
// by a head hash — so the model checks each of splice's edges.
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

			tab := &segment.Table{}
			fillTable(tab, 1<<15-4)
			rig := newModelRig(t, tab, shardCounts, []int{16, 16, 16}, probes)

			next, sawBig, sawWide := 0, false, false
			refWidths, stampWidths := map[uint]bool{}, map[uint]bool{}
			for step := 0; step < 160; step++ {
				if step == 60 {
					fillTable(tab, 1<<16-4)
				}
				var name string
				switch op := rng.Intn(25); {
				case op >= 22:
					// An edit: the segment keeps some of its hashes and
					// posts new ones, at a distance from its born stamp.
					seg, ok := rig.m.liveSeg(rng)
					if !ok {
						continue
					}
					hs := slices.Clone(rig.m.segs[seg].hashes[:len(rig.m.segs[seg].hashes)/2])
					for j := 0; j < 1+rng.Intn(6); j++ {
						hs = append(hs, pool[rng.Intn(len(pool))])
					}
					slices.Sort(hs)
					hs = slices.Compact(hs)
					rig.update(seg, hs, nil)
					name = "edit " + string(seg)
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
					rig.update(seg, hs, nil)
					name = "update " + string(seg)
				case op < 15:
					gone, ok := rig.m.liveSeg(rng)
					if !ok {
						continue
					}
					rig.remove(gone)
					name = "remove " + string(gone)
				case op < 16:
					// Among the oldest quarter of the live stamps, so a clock
					// jump does not make every expiry a wipe.
					stamps := append(rig.m.stamps(), rig.m.clock)
					cut := stamps[rng.Intn(len(stamps)/4+1)]
					rig.expire(cut)
					name = fmt.Sprintf("expire before %d", cut)
				case op < 18:
					rig.compact()
					name = "compact"
				case op < 20:
					rig.restore()
					name = "restore"
				case op < 21:
					jump := []uint64{1<<15 - 2, 1 << 16, 1<<31 + 7}[rng.Intn(3)]
					rig.floor(rig.m.clock + jump)
					name = fmt.Sprintf("clock +%d", jump)
				case op < 22:
					rig.floor(rig.m.clock + 1<<40)
					name = "clock +2^40"
				}
				rig.check(fmt.Sprintf("step %d (%s)", step, name))
				if name == "compact" || name == "restore" {
					// A fresh run gives a group of bigGroupMin holders its
					// membership set.
					big := len(rig.m.postings[hot]) >= bigGroupMin
					for i, db := range rig.dbs {
						if got := db.hashShards[db.hashShardIdx(hot)].big[hot] != nil; got != big {
							t.Fatalf("step %d (%s)/shards=%d: hot hash with %d holders has a membership set: %v", step, name, shardCounts[i], len(rig.m.postings[hot]), got)
						}
					}
					sawBig = sawBig || big
					for _, db := range rig.dbs {
						for si := range db.hashShards {
							r := &db.hashShards[si].run
							refWidths[r.refs.width] = true
							stampWidths[r.stamps.width] = true
							sawWide = sawWide || len(r.wide) > 0
						}
					}
				}
			}
			if !sawBig {
				t.Error("the hot hash never reached a membership set")
			}
			if !sawWide || !refWidths[16] || !refWidths[17] || !refWidths[18] || len(stampWidths) < 3 {
				t.Errorf("runs held wide stamps: %v; ref widths %v, want 16, 17 and 18 among them; stamp widths %v, want three or more",
					sawWide, refWidths, stampWidths)
			}
			rig.compact()
			rig.check("final compact")
			if missing := rig.missingCases(); len(missing) > 0 {
				t.Errorf("no merge met %q", missing)
			}
			for _, ref := range []uint32{1<<15 - 1, 1 << 15, 1<<16 - 1, 1 << 16, 1<<16 + 1} {
				if int(ref) >= tab.Len() || !strings.HasPrefix(string(tab.ID(ref)), "doc") {
					t.Fatalf("ref %d is not a segment of the sequence", ref)
				}
			}

			// A holder born before a 2^40 jump posts after it: old is born
			// at x, jumps, then edits to post x+1 at a code only the wide
			// table holds.
			x := uint32(0x00ABC000)
			for rig.m.postings[x] != nil || rig.m.postings[x+1] != nil {
				x += 2
			}
			rig.update("widest/old#p0", []uint32{x}, nil)
			rig.floor(rig.m.clock + 1<<40)
			rig.update("widest/old#p0", []uint32{x, x + 1}, nil)
			// The successor is interned last, at the run's widest ref, and
			// born 2^40 after old; a 2^20 jump later it posts x, so its
			// spilled posting holds the run's widest code.
			fillTable(tab, 1<<17-1)
			rig.update("widest/succ#p0", []uint32{x + 2}, nil)
			rig.floor(rig.m.clock + 1<<20)
			rig.update("widest/succ#p0", []uint32{x, x + 2}, nil)
			rig.compact()
			rig.check("holder-relative fixtures built")
			old, _ := tab.Lookup("widest/old#p0")
			// succ's posting of x is 2^20 + 1 after its born stamp.
			const succ, succCode = 1<<17 - 1, 2 * (1<<20 + 1)
			for i, db := range rig.dbs {
				if c, ok := stampCodeOf(db, x+1, old); !ok || c != wideSeq {
					t.Fatalf("shards=%d: old's posting after the jump has code %d (%v), want the wide sentinel", shardCounts[i], c, ok)
				}
				r := &db.hashShards[db.hashShardIdx(x)].run
				k, hi := r.more(x)
				c, _ := stampCodeOf(db, x, succ)
				if r.first(r.find(x))&^moreBit != old || hi != k+1 || r.moreRef(k) != succ || c != succCode {
					t.Fatalf("shards=%d: fixture is not old inline and one spilled successor at ref %d with code %d", shardCounts[i], succ, succCode)
				}
				if *db.born.At(old) == *db.born.At(succ) {
					t.Fatalf("shards=%d: old and its successor share a born stamp", shardCounts[i])
				}
				for g := range r.lo {
					if first := r.first(g); first != tombstoneRef && first&^moreBit > succ || r.stamps.at(g) != wideSeq && r.stamps.at(g) > c {
						t.Fatalf("shards=%d: group %d holds a ref or code wider than the successor's", shardCounts[i], g)
					}
				}
			}
			// Removing old moves the successor inline, coded against its
			// own born stamp, and takes old's postings of both versions.
			rig.remove("widest/old#p0")
			rig.check("successor moved inline")
			for i, db := range rig.dbs {
				if c, ok := stampCodeOf(db, x, succ); !ok || c != succCode {
					t.Fatalf("shards=%d: the moved successor has code %d (%v), want %d", shardCounts[i], c, ok, succCode)
				}
			}

			// A holder edited after its first postings: restored, its born
			// stamp is its updated, so the older postings code negative.
			rig.update("neg/held#p0", []uint32{x + 4}, nil)
			rig.update("neg/other#p0", []uint32{x + 8}, nil)
			rig.update("neg/held#p0", []uint32{x + 4, x + 6}, nil)
			rig.restore()
			rig.check("edited holder restored")
			held, _ := tab.Lookup("neg/held#p0")
			for i, db := range rig.dbs {
				if c, ok := stampCodeOf(db, x+4, held); !ok || c != 3 {
					t.Fatalf("shards=%d: the restored holder's older posting has code %d (%v), want zigzag(-2) = 3", shardCounts[i], c, ok)
				}
			}
			rig.remove("neg/held#p0")
			rig.check("edited holder removed after the restore")
		})
	}
}

// chainHashes returns n hashes of the lowest 256-shard shard whose homes
// in a head table coincide at every capacity below 2^16: their products
// with the table's multiplier share the top 16 bits.
func chainHashes(n int) []uint32 {
	var hs []uint32
	for h := uint32(1); len(hs) < n; h++ {
		if (h*0x9e3779b1)>>16 == (uint32(1)*0x9e3779b1)>>16 {
			hs = append(hs, h)
		}
	}
	return hs
}

// TestHeadTableMatchesReference is the head-only pass of the reference
// test: DBs that never merge on their own, so every operation lands in the
// head tables. Its hashes share a probe chain, its removals take holders
// out of the middle of the chain, its shard fills past two resizes, and
// late postings carry stamps older than the table's base, some by more
// than 32 bits.
func TestHeadTableMatchesReference(t *testing.T) {
	shardCounts := []int{1, DefaultShards, 256}
	chain := chainHashes(12)
	var fill []uint32 // more hashes of the same shard
	for h := uint32(1); len(fill) < 120; h += 0x1F3 {
		if !slices.Contains(chain, h) {
			fill = append(fill, h)
		}
	}
	probes := append(slices.Clone(chain), fill...)
	slices.Sort(probes)
	rig := newModelRig(t, &segment.Table{}, shardCounts, []int{-1, -1, -1}, probes)
	seg := func(i int) segment.ID { return segment.ID(fmt.Sprintf("chain#p%d", i)) }

	// The table's base is a stamp 2^40 up the clock.
	rig.floor(1 << 40)
	for i, h := range chain {
		rig.update(seg(i), []uint32{h}, nil)
		rig.check(fmt.Sprintf("chain hash %d", i))
	}
	for _, db := range rig.dbs {
		t0 := &db.hashShards[0].head
		for _, h := range chain[1:] {
			if t0.home(h) != t0.home(chain[0]) {
				t.Fatalf("shards=%d: chain hashes %#x and %#x have different homes", db.NumShards(), h, chain[0])
			}
		}
	}
	// Out of the middle of the chain, then its head and its tail.
	for _, i := range []int{5, 6, 0, 11} {
		rig.remove(seg(i))
		rig.check(fmt.Sprintf("removed chain hash %d", i))
	}
	// Late postings older than the base: by a few stamps, and by more
	// than 32 bits. The second displaces the row's holder to the overflow
	// bucket.
	base := rig.dbs[0].hashShards[0].head.base
	rig.post("late#p0", chain[1:3], base-3)
	rig.post("late#p1", chain[2:4], 5)
	rig.check("late stamps")
	for _, db := range rig.dbs {
		t0 := &db.hashShards[0].head
		if i := t0.find(chain[1]); i < 0 || t0.rows[i].off != -3 || len(t0.wide) == 0 {
			t.Fatalf("shards=%d: late stamps are not a negative offset and a wide one", db.NumShards())
		}
	}
	// Grow the shard's table, a few hashes at a time.
	grows := make([]int, len(rig.dbs))
	for i := 0; i < len(fill); i += 6 {
		rows := make([]int, len(rig.dbs))
		for j, db := range rig.dbs {
			rows[j] = len(db.hashShards[0].head.rows)
		}
		rig.update(segment.ID(fmt.Sprintf("fill#p%d", i)), fill[i:i+6], nil)
		if i%24 == 0 {
			rig.floor(rig.m.clock + 1<<32) // stamps above the base by more than 32 bits
		}
		for j, db := range rig.dbs {
			if len(db.hashShards[0].head.rows) != rows[j] {
				grows[j]++
			}
		}
		rig.check(fmt.Sprintf("fill %d", i))
		if i%18 == 12 {
			rig.remove(segment.ID(fmt.Sprintf("fill#p%d", i-6)))
			rig.remove(seg(i/18 + 7))
			rig.check(fmt.Sprintf("removal after fill %d", i))
		}
	}
	for j, n := range grows {
		if n < 2 {
			t.Errorf("shards=%d: the head table grew %d times, want at least 2", shardCounts[j], n)
		}
	}
	rig.expire(base + 2)
	rig.check("expiry between the late stamps")
	rig.compact()
	rig.check("compact")
}

// TestRunDirectoryBounds pins find's two ways of answering absent without
// a search — a hash below the run's lowest bucket and one past its
// highest — and that a directory only spans the buckets it holds.
func TestRunDirectoryBounds(t *testing.T) {
	var born segment.Column[uint64]
	*born.Make(1) = 7
	r := newRun(&born, 0, 0, 0, 0)
	for i, h := range []uint32{0x00050001, 0x00050002, 0x00070000, 0x0007FFFF} {
		r.add(h, 1, uint64(7+i))
	}
	r.finish()
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
	for g := range r.lo {
		if seq := r.firstSeq(g); seq != uint64(7+g) {
			t.Errorf("group %d stamped %d, want %d", g, seq, 7+g)
		}
	}
	var empty run
	empty.finish()
	if empty.dir != nil || empty.find(0) != -1 {
		t.Errorf("empty run: dir %v, find(0) = %d", empty.dir, empty.find(0))
	}
}
