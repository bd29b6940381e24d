package index

// The reference model is the index's spec. refModel holds every live
// posting by hash and every DBpar entry, and from them says what each
// public read of a DB must answer. modelRig drives DBs of several layouts
// and the model through the same operations and, after each one, compares
// every read of every DB with the model, each DB's image with the others',
// and a copy restored from that image with what a restore makes of the
// model. A test of the index is a script of operations; what the answers
// must be is the model's business, whatever the layout behind them.

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// TestMain runs the package's tests with the collector at a quarter of
// its default frequency. The rig encodes and restores an image per DB per
// check — hundreds of megabytes over a live heap of a few — and at the
// default GOGC a fifth of the package's CPU went to collecting it. The
// memory budgets read the heap after explicit collections and the
// allocation pins count allocations; neither depends on this.
func TestMain(m *testing.M) {
	debug.SetGCPercent(400)
	os.Exit(m.Run())
}

// refPosting is one holder of a hash in the reference model.
type refPosting struct {
	seg segment.ID
	seq uint64
}

// refSeg is a segment's DBpar entry in the reference model; posted is its
// posted union, every hash it holds a posting of since the entry was made
// (postings made by post aside), ascending.
type refSeg struct {
	hashes, posted []uint32
	updated        uint64
	threshold      float64
}

// refModel is the reference: every live posting by hash, oldest first
// (arrival order on equal stamps), every DBpar entry, the clock, the
// default threshold and the memo: the sources of each decision made since
// the last change that can alter what Algorithm 1 answers.
type refModel struct {
	postings map[uint32][]refPosting
	segs     map[segment.ID]refSeg
	clock    uint64
	def      float64
	memo     map[segment.ID][]Source
}

func newRefModel() *refModel {
	return &refModel{postings: map[uint32][]refPosting{}, segs: map[segment.ID]refSeg{}, def: 0.5, memo: map[segment.ID][]Source{}}
}

// held is the segments an image's table names, ascending: the DBpar
// entries and the holders of live postings.
func (m *refModel) held() []segment.ID {
	var out []segment.ID
	for seg := range m.segs {
		out = append(out, seg)
	}
	for _, ps := range m.postings {
		for _, p := range ps {
			out = append(out, p.seg)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// update is DB.Update: an unchanged fingerprint changes nothing, a new
// one ticks the clock, posts every hash seg does not hold yet and empties
// the memo. Then d, unless it is nil or stale (the rig's d.Gen counts the
// generations it was made before the update), is memoised. It returns
// the stamp Update must return.
func (m *refModel) update(seg segment.ID, hs []uint32, d *Decision) uint64 {
	defer func() {
		if d != nil && d.Gen == 0 {
			m.memo[seg] = d.Sources
		}
	}()
	s, ok := m.segs[seg]
	if !ok {
		s.threshold = m.def
	}
	if ok && slices.Equal(s.hashes, hs) {
		return s.updated
	}
	m.moved()
	m.clock++
	m.post(seg, hs, m.clock)
	s.posted = append(slices.Clone(hs), s.posted...)
	slices.Sort(s.posted)
	s.posted = slices.Compact(s.posted)
	s.hashes, s.updated = hs, m.clock
	m.segs[seg] = s
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

// moved empties the memo, as a move of the generation does.
func (m *refModel) moved() { m.memo = map[segment.ID][]Source{} }

// setThreshold is DB.SetThreshold: an unknown segment gets an entry with
// no fingerprint, updated at 0.
func (m *refModel) setThreshold(seg segment.ID, t float64) {
	s := m.segs[seg]
	s.threshold = t
	m.segs[seg] = s
	m.moved()
}

// remove is DB.RemoveSegment: the entry goes, and the postings of its
// posted union, earlier versions' included.
func (m *refModel) remove(seg segment.ID) {
	s, ok := m.segs[seg]
	if !ok {
		return
	}
	m.moved()
	for _, h := range s.posted {
		m.dropPostings(h, func(p refPosting) bool { return p.seg == seg })
	}
	delete(m.segs, seg)
}

// expire is DB.ExpireBefore, returning the postings it drops: each
// surviving entry's union keeps the hashes whose posting survived.
func (m *refModel) expire(cut uint64) (removed int) {
	m.moved()
	for h, ps := range m.postings {
		n := len(ps)
		m.dropPostings(h, func(p refPosting) bool { return p.seq < cut })
		removed += n - len(m.postings[h])
	}
	for seg, s := range m.segs {
		if s.updated < cut {
			delete(m.segs, seg)
			continue
		}
		s.posted = slices.DeleteFunc(slices.Clone(s.posted), func(h uint32) bool { return !m.holds(seg, h) })
		m.segs[seg] = s
	}
	return removed
}

// restored returns what a snapshot restore makes of the model: the same
// postings (shared, not to be modified), entries whose union is every hash
// their segment holds a posting of, post's included, and an empty memo (an
// image holds no decision).
func (m *refModel) restored() *refModel {
	held := map[segment.ID][]uint32{}
	for h, ps := range m.postings {
		for _, p := range ps {
			held[p.seg] = append(held[p.seg], h)
		}
	}
	r := &refModel{postings: m.postings, segs: make(map[segment.ID]refSeg, len(m.segs)), clock: m.clock, def: m.def,
		memo: map[segment.ID][]Source{}}
	for seg, s := range m.segs {
		s.posted = held[seg]
		slices.Sort(s.posted)
		r.segs[seg] = s
	}
	return r
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

// authoritative counts the hashes of seg's fingerprint, of those in target
// (ascending) unless it is nil, whose oldest holder is seg.
func (m *refModel) authoritative(seg segment.ID, target []uint32) (n int) {
	for _, h := range m.segs[seg].hashes {
		if _, in := slices.BinarySearch(target, h); (target == nil || in) && len(m.postings[h]) > 0 && m.postings[h][0].seg == seg {
			n++
		}
	}
	return n
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

// liveSeg returns one of the model's segments with an entry, chosen by rng.
func (m *refModel) liveSeg(rng *rand.Rand) (segment.ID, bool) {
	segs := sortedKeys(m.segs)
	if len(segs) == 0 {
		return "", false
	}
	return segs[rng.Intn(len(segs))], true
}

// sortedKeys returns m's keys, ascending.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// layout is one way a rig's DB holds its postings: its shard count,
// whether it merges inline (headOnly: never on its own) and whether the
// rig's compact op merges it.
type layout struct {
	shards           int
	headOnly, merges bool
}

func (l layout) String() string {
	return fmt.Sprintf("%d shards, head-only: %v, merged when told: %v", l.shards, l.headOnly, l.merges)
}

// standardLayouts are, at each shard count (1, 64 and 256 when none is
// given), a head-only DB (only an expiry merges it), one merging inline
// as the merge policy says, and one merging only at the script's compact
// ops.
func standardLayouts(shards ...int) []layout {
	if len(shards) == 0 {
		shards = []int{1, DefaultShards, 256}
	}
	var ls []layout
	for _, n := range shards {
		ls = append(ls, layout{n, true, false}, layout{n, false, true}, layout{n, true, true})
	}
	return ls
}

// layoutsAt are DBs of the given shard counts, head-only or merging
// inline, merged at the compact ops too.
func layoutsAt(headOnly bool, shards ...int) []layout {
	var ls []layout
	for _, n := range shards {
		ls = append(ls, layout{n, headOnly, true})
	}
	return ls
}

// modelRig drives DBs and the reference through the same operations,
// checking each DB against the model after every one (but inside batch).
type modelRig struct {
	t       *testing.T
	tab     *segment.Table // shared by every DB, so refs are the same in all
	layouts []layout
	dbs     []*DB
	m       *refModel
	probes  []uint32            // every hash looked up, ascending
	probed  map[uint32]bool     // probes as a set
	names   map[segment.ID]bool // every segment an op named, and one never named
	cases   map[string]bool     // the spliceCases compact has met
	ops     int                 // operations applied
	quiet   bool                // inside batch: no check per op
	copied  []byte              // the image check last restored a copy from
	// noCopies stops check restoring copies, for a script whose own
	// restore ops replace its DBs often enough.
	noCopies bool
}

// newModelRig returns a rig over DBs of the given layouts on tab, probing
// probes and every hash an op posts. The rig's tests are one goroutine
// with no shared state, which the race detector cannot find fault with,
// so they run without it (make check runs them in its non-race step).
func newModelRig(t *testing.T, tab *segment.Table, layouts []layout, probes []uint32) *modelRig {
	if raceEnabled {
		t.Skip("the model rig runs one goroutine; make check runs it without -race")
	}
	r := &modelRig{t: t, tab: tab, layouts: layouts, m: newRefModel(), probed: map[uint32]bool{},
		names: map[segment.ID]bool{"absent#p0": true}, cases: map[string]bool{}}
	r.probe(probes)
	for _, l := range layouts {
		db := NewWithShards(tab, 0.5, l.shards)
		db.headOnly = l.headOnly
		r.dbs = append(r.dbs, db)
	}
	return r
}

// runScript runs script, in parallel with the other scripts, on a rig of
// standardLayouts at the given shard counts, which probes every hash the
// script posts.
func runScript(t *testing.T, script func(r *modelRig), shards ...int) *modelRig {
	t.Parallel()
	r := newModelRig(t, &segment.Table{}, standardLayouts(shards...), nil)
	script(r)
	return r
}

// probe adds hs to the hashes every check looks up.
func (r *modelRig) probe(hs []uint32) {
	for _, h := range hs {
		if !r.probed[h] {
			r.probed[h] = true
			r.probes = append(r.probes, h)
		}
	}
	slices.Sort(r.probes)
}

// done counts an operation and, outside batch, checks every DB.
func (r *modelRig) done(what string) {
	r.t.Helper()
	if r.ops++; !r.quiet {
		r.check(fmt.Sprintf("op %d (%s)", r.ops, what))
	}
}

// batch runs ops without a check per operation, then checks once.
func (r *modelRig) batch(what string, ops func()) {
	r.t.Helper()
	r.quiet = true
	ops()
	r.quiet = false
	r.check(what)
}

// update is DB.Update of the fingerprint of hs on every DB, with d made
// d.Gen generations before each DB's current one (nil: no decision).
func (r *modelRig) update(seg segment.ID, hs []uint32, d *Decision) {
	r.t.Helper()
	fp := fingerprint.FromHashes(hs)
	hs = fp.Hashes()
	r.names[seg] = true
	r.probe(hs)
	want := r.m.update(seg, hs, d)
	for i, db := range r.dbs {
		var made *Decision
		if d != nil {
			made = &Decision{Sources: d.Sources, Gen: db.Generation() - d.Gen}
		}
		if got := db.Update(seg, fp, made); got != want {
			r.t.Fatalf("update %s on %v: stamp %d, want %d", seg, r.layouts[i], got, want)
		}
	}
	r.done("update " + string(seg))
}

// post makes seg's postings of hs (ascending) stamped seq, with no DBpar
// change, on every DB.
func (r *modelRig) post(seg segment.ID, hs []uint32, seq uint64) {
	r.t.Helper()
	r.probe(hs)
	r.m.post(seg, hs, seq)
	r.apply(fmt.Sprintf("post %s at %d", seg, seq), seg, func(db *DB) { postAt(db, seg, hs, seq) })
}

func (r *modelRig) threshold(seg segment.ID, t float64) {
	r.t.Helper()
	r.m.setThreshold(seg, t)
	r.apply(fmt.Sprintf("threshold of %s %v", seg, t), seg, func(db *DB) { db.SetThreshold(seg, t) })
}

func (r *modelRig) remove(seg segment.ID) {
	r.t.Helper()
	r.m.remove(seg)
	r.apply("remove "+string(seg), seg, func(db *DB) { db.RemoveSegment(seg) })
}

func (r *modelRig) floor(f uint64) {
	r.t.Helper()
	r.m.clock = max(r.m.clock, f)
	r.apply(fmt.Sprintf("clock floor %d", f), "", func(db *DB) { db.SetClockFloor(f) })
}

// apply applies op, which names seg (none: ""), to every DB.
func (r *modelRig) apply(what string, seg segment.ID, op func(db *DB)) {
	r.t.Helper()
	if seg != "" {
		r.names[seg] = true
	}
	for _, db := range r.dbs {
		op(db)
	}
	r.done(what)
}

func (r *modelRig) expire(cut uint64) {
	r.t.Helper()
	want := r.m.expire(cut)
	for i, db := range r.dbs {
		if got := db.ExpireBefore(cut); got != want {
			r.t.Fatalf("expire before %d on %v: %d postings removed, want %d", cut, r.layouts[i], got, want)
		}
	}
	r.done(fmt.Sprintf("expire before %d", cut))
}

// compact merges every DB whose layout merges when told, recording the
// splice cases each merge meets.
func (r *modelRig) compact() {
	r.t.Helper()
	for i, db := range r.dbs {
		if !r.layouts[i].merges {
			continue
		}
		for si := range db.hashShards {
			for c := range spliceCasesOf(&db.hashShards[si]) {
				r.cases[c] = true
			}
		}
		db.Compact()
	}
	r.done("compact")
}

// restoreAll replaces every DB with one restored from its image on the
// rig's segment table.
func (r *modelRig) restoreAll() {
	r.t.Helper()
	r.m = r.m.restored()
	for i, db := range r.dbs {
		r.dbs[i] = r.restored(r.tab, snapshot(db), i)
	}
	r.done("restore")
}

// load restores every DB from img, an image of the state m.
func (r *modelRig) load(img []byte, m *refModel) {
	r.t.Helper()
	for i := range r.dbs {
		r.dbs[i] = r.restored(r.tab, img, i)
	}
	for seg := range m.segs {
		r.names[seg] = true
	}
	for h := range m.postings {
		r.probe([]uint32{h})
	}
	r.m = m
	r.done("load an image")
}

// restored returns a DB of layout i restored from img on tab, whose refs
// the image's are renumbered to. Its own default threshold is not the
// image's, which must win.
func (r *modelRig) restored(tab *segment.Table, img []byte, i int) *DB {
	r.t.Helper()
	db := NewWithShards(tab, 0, r.layouts[i].shards)
	db.headOnly = r.layouts[i].headOnly
	if err := loadSnapshot(db, img); err != nil {
		r.t.Fatalf("restore into %v: %v", r.layouts[i], err)
	}
	return db
}

// check compares every DB with the model, their images and digests with
// each other's, and a copy restored from the image — in one layout, in
// turn, on a table of its own — with the restored model, unless the last
// check restored one from the same image or noCopies is set; restored,
// the copy encodes the image it came from.
func (r *modelRig) check(step string) {
	r.t.Helper()
	names := sortedKeys(r.names)
	want := r.m.answers(r.probes, names)
	for i, db := range r.dbs {
		want.check(r.t, fmt.Sprintf("%s/%v", step, r.layouts[i]), db)
	}
	img, table := r.dbs[0].AppendSnapshot(nil)
	if want := r.m.held(); !slices.Equal(table, want) {
		r.t.Fatalf("%s: the image's segment table is %v, want %v", step, table, want)
	}
	digest := r.dbs[0].Digest()
	for i, db := range r.dbs[1:] {
		if !bytes.Equal(snapshot(db), img) || db.Digest() != digest {
			r.t.Fatalf("%s: %v encodes another image or digest than %v", step, r.layouts[i+1], r.layouts[0])
		}
	}
	if r.noCopies || bytes.Equal(img, r.copied) {
		return // the copy restored from it answered already
	}
	r.copied = img
	i := r.ops % len(r.dbs)
	c := r.restored(&segment.Table{}, img, i)
	var live []uint32 // a restore builds runs only: the DBs above probed what it lacks
	for _, h := range r.probes {
		if len(r.m.postings[h]) > 0 {
			live = append(live, h)
		}
	}
	r.m.restored().answers(live, names).check(r.t, fmt.Sprintf("%s/restored into %v", step, r.layouts[i]), c)
	if !bytes.Equal(snapshot(c), img) {
		r.t.Fatalf("%s: restored into %v, the image encodes differently", step, r.layouts[i])
	}
}

// answers is what the model says every public read of a DB answers, for
// the probes (ascending; hashes the model lacks must be absent) and the
// named segments (ascending), each of whose authoritative overlap is
// read with the fingerprint of the next.
type answers struct {
	m              *refModel
	probes         []uint32
	absent         uint32 // a probe the model lacks, if any
	names, segs    []segment.ID
	refs           []OldestRef
	oldest         []segment.ID
	postings       int
	digests        map[int][2][]uint64 // per shard count: posting and DBpar shard digests
	count, overlap []int               // per name

	gotRefs   []OldestRef // scratch for the DBs' answers
	gotOldest []segment.ID
}

func (m *refModel) answers(probes []uint32, names []segment.ID) *answers {
	a := &answers{m: m, probes: probes, names: names, segs: sortedKeys(m.segs), digests: map[int][2][]uint64{}}
	for i, h := range probes {
		if ps := m.postings[h]; len(ps) > 0 {
			a.refs = append(a.refs, OldestRef{i, ps[0].seg, ps[0].seq})
			a.oldest = append(a.oldest, ps[0].seg)
		} else {
			a.absent = h
		}
	}
	for _, ps := range m.postings {
		a.postings += len(ps)
	}
	for i, seg := range names {
		a.count = append(a.count, m.authoritative(seg, nil))
		a.overlap = append(a.overlap, m.authoritative(seg, append([]uint32{}, m.segs[names[(i+1)%len(names)]].hashes...)))
	}
	return a
}

// shardDigests returns the posting and DBpar digests of each of n shards.
func (a *answers) shardDigests(n int) [2][]uint64 {
	if d, ok := a.digests[n]; ok {
		return d
	}
	d := [2][]uint64{make([]uint64, n), make([]uint64, n)}
	shift := NewWithShards(nil, 0, n).hashShift
	for h, ps := range a.m.postings {
		for _, p := range ps {
			d[0][uint64(h)>>shift] ^= postingCode(h, segDigestKey(string(p.seg)), p.seq)
		}
	}
	for seg, s := range a.m.segs {
		d[1][segment.Key(seg)&uint32(n-1)] ^= parCode(segDigestKey(string(seg)), s.threshold, s.updated, s.hashes)
	}
	a.digests[n] = d
	return d
}

// check compares every public read of db with the answers: the lookup a
// probe does (find, then the group's low half), the oldest holder alone
// and with its stamp, every holder in posting order, the digests, the
// counters, the clock, each named segment's entry, its authoritative
// count and overlap and its decision, then the structural invariants.
func (a *answers) check(t *testing.T, step string, db *DB) {
	t.Helper()
	m := a.m
	var holders []segment.ID
	for _, h := range a.probes {
		want := m.postings[h]
		sh := &db.hashShards[db.hashShardIdx(h)] // one goroutine: no lock
		g := sh.run.find(h)
		inHead := sh.head.find(h) >= 0
		if g >= 0 && sh.run.lo[g] != uint16(h) {
			t.Fatalf("%s: find(%#x) = group %d holding low half %#x", step, h, g, sh.run.lo[g])
		}
		if len(want) > 0 && g < 0 && !inHead {
			t.Fatalf("%s: hash %#x with %d holders is in neither tier", step, h, len(want))
		}
		if len(want) == 0 && g >= 0 && sh.run.first(g) != tombstoneRef {
			t.Fatalf("%s: absent hash %#x found live at group %d", step, h, g)
		}
		holders = db.AppendHolders(h, holders[:0])
		if !slices.EqualFunc(holders, want, func(seg segment.ID, p refPosting) bool { return seg == p.seg }) {
			t.Fatalf("%s: holders of %#x = %v, want %v", step, h, holders, want)
		}
	}
	if a.gotRefs = db.AppendOldestRefs(a.probes, a.gotRefs[:0]); !slices.Equal(a.gotRefs, a.refs) {
		t.Fatalf("%s: oldest refs %v, want %v", step, a.gotRefs, a.refs)
	}
	if a.gotOldest = db.AppendOldestHolders(a.probes, a.gotOldest[:0]); !slices.Equal(a.gotOldest, a.oldest) {
		t.Fatalf("%s: oldest holders %v, want %v", step, a.gotOldest, a.oldest)
	}
	for _, ref := range a.refs {
		if seg, ok := db.OldestHolder(a.probes[ref.Idx]); !ok || seg != ref.Seg {
			t.Fatalf("%s: oldest holder of %#x = (%s, %v), want %s", step, a.probes[ref.Idx], seg, ok, ref.Seg)
		}
	}
	if len(a.refs) < len(a.probes) {
		if seg, ok := db.OldestHolder(a.absent); ok {
			t.Fatalf("%s: absent hash %#x has an oldest holder, %s", step, a.absent, seg)
		}
	}

	want := a.shardDigests(len(db.hashShards))
	var d Digest
	for i := range want[0] {
		d.Postings, d.Pars = d.Postings^want[0][i], d.Pars^want[1][i]
	}
	if postings, pars := db.ShardDigests(); !slices.Equal(postings, want[0]) || !slices.Equal(pars, want[1]) {
		t.Fatalf("%s: shard digests %x and %x, want %x and %x", step, postings, pars, want[0], want[1])
	}
	if got := db.Digest(); got.Postings != d.Postings || got.Pars != d.Pars || got.Clock != m.clock {
		t.Fatalf("%s: digest %+v, want postings %x, pars %x at clock %d", step, got, d.Postings, d.Pars, m.clock)
	}
	if st := db.Stats(); st.DistinctHashes != len(m.postings) || st.Segments != len(m.segs) || st.Postings != a.postings {
		t.Fatalf("%s: %d hashes, %d postings in %d segments; want %d, %d in %d", step,
			st.DistinctHashes, st.Postings, st.Segments, len(m.postings), a.postings, len(m.segs))
	}
	if db.Now() != m.clock || db.defaultThreshold != m.def {
		t.Fatalf("%s: clock %d, default threshold %v; want %d, %v", step, db.Now(), db.defaultThreshold, m.clock, m.def)
	}
	if got := db.Segments(); !slices.Equal(got, a.segs) {
		t.Fatalf("%s: segments %v, want %v", step, got, a.segs)
	}

	for i, seg := range a.names {
		s, ok := m.segs[seg]
		if !ok {
			s.threshold = m.def
		}
		hashes, threshold, got := db.Origin(seg)
		fp, _ := db.Fingerprint(seg)
		if got != ok || !slices.Equal(hashes, s.hashes) || threshold != s.threshold || db.Threshold(seg) != s.threshold ||
			ok != (fp != nil) || fp != nil && !slices.Equal(fp.Hashes(), s.hashes) {
			t.Fatalf("%s: entry of %s = %#x, threshold %v (%v); want %#x, %v (%v)", step, seg, hashes, threshold, got, s.hashes, s.threshold, ok)
		}
		if got, _ := db.AuthoritativeOverlap(seg, fingerprint.FromSortedHashes(s.hashes)); got != a.count[i] {
			t.Fatalf("%s: authoritative count of %s = %d, want %d", step, seg, got, a.count[i])
		}
		target := m.segs[a.names[(i+1)%len(a.names)]].hashes
		if overlap, n := db.AuthoritativeOverlap(seg, fingerprint.FromSortedHashes(target)); overlap != a.overlap[i] || n != len(s.hashes) {
			t.Fatalf("%s: authoritative overlap of %s with %#x = %d of %d, want %d of %d", step, seg, target, overlap, n, a.overlap[i], len(s.hashes))
		}
		if !ok {
			continue
		}
		ss := db.segShardFor(seg)
		ss.mu.RLock()
		_, row := db.lookupRow(seg)
		posted := ss.postedOf(row)
		ss.mu.RUnlock()
		if !slices.Equal(posted, s.posted) && len(posted)+len(s.posted) > 0 {
			t.Fatalf("%s: posted union of %s = %#x, want %#x", step, seg, posted, s.posted)
		}
		// The memoised decision answers the fingerprint the entry holds,
		// and no other: not one that differs from it in a single hash.
		want, decided := m.memo[seg]
		sources, ok := db.Decision(seg, s.hashes)
		if ok != decided || !slices.Equal(sources, want) {
			t.Fatalf("%s: decision of %s = %v (%v), want %v (%v)", step, seg, sources, ok, want, decided)
		}
		if len(s.hashes) > 0 {
			if _, ok := db.Decision(seg, s.hashes[1:]); ok {
				t.Fatalf("%s: %s answers a decision for a fingerprint it does not hold", step, seg)
			}
		}
	}
	if n := db.MemoLen(); n != len(m.memo) {
		t.Fatalf("%s: %d memoised decisions, want %d", step, n, len(m.memo))
	}
	checkInvariants(t, db)
}

// postAt records seg's postings for hs (ascending) stamped seq, with no
// DBpar change: late stamps, and the holders without an entry an image
// can hold. A ref without a born stamp is born at seq.
func postAt(db *DB, seg segment.ID, hs []uint32, seq uint64) {
	ref := db.tab.Intern(seg)
	if born := db.born.Make(ref); *born == 0 {
		*born = max(seq, 1)
	}
	db.insertPostings(postingWriter{ref: ref, segKey: segDigestKey(string(seg)), seq: seq}, hs)
}

// fillTable interns filler segments until tab issues ref n next.
func fillTable(tab *segment.Table, n int) {
	for tab.Len() < n {
		tab.Intern(segment.ID("filler#" + strconv.Itoa(tab.Len())))
	}
}
