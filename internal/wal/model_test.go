package wal_test

// The reference model is the log's spec. refLog holds every record with
// the position its frame starts at, the segment boundaries, what of each
// segment a crash cannot take (the synced prefix under the log's
// SyncPolicy, and whether its directory entry is durable), and the
// truncation floor; from them it says what each public read of a Log must
// answer. logRig drives one Log on a faultinject.MemFS and a clock.Fake
// and the model through the same operations and, after each one, compares
// every read with the model. A test of the log is a script of operations.
//
// A following log mirrors a stream, which is a second refLog the rig ships
// frames from, so positions are computed in one place for both roles.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/wal"
)

// refRec is one record of the model and where its frame starts.
type refRec struct {
	typ  byte
	data string
	pos  wal.Pos
}

func (r refRec) size() int64 { return int64(wal.FrameOverhead + len(r.data)) }
func (r refRec) end() wal.Pos {
	return wal.Pos{Segment: r.pos.Segment, Offset: r.pos.Offset + r.size()}
}
func (r refRec) frame() []byte { return wal.EncodeFrame(wal.Record{Type: r.typ, Data: []byte(r.data)}) }

// refSeg is a live segment: its length, the prefix of it a crash cannot
// take, and whether its directory entry survives a crash.
type refSeg struct {
	idx          uint64
	size, synced int64
	entry        bool
}

// refLog is the reference for one open Log: its live records and
// segments (the last one current), the floor TruncateBefore left, the
// segments whose positions are gone, the quarantined segment files, and
// the Stats the Log must report.
type refLog struct {
	policy     wal.SyncPolicy
	segBytes   int64
	minSeg     uint64
	following  bool
	closed     bool
	dirty      bool // written since the current segment was last synced
	tornTail   bool // a failed write left bytes past the current segment's end
	recs       []refRec
	segs       []refSeg
	floor      wal.Pos
	gone       []uint64
	quarantine []uint64

	appended, bytes, recovered, torn, quarantined int64
	gaps                                          int
}

func (m *refLog) end() wal.Pos {
	if len(m.segs) == 0 {
		return wal.Pos{}
	}
	c := m.segs[len(m.segs)-1]
	return wal.Pos{Segment: c.idx, Offset: c.size}
}

func (m *refLog) cur() *refSeg { return &m.segs[len(m.segs)-1] }

func (m *refLog) seg(idx uint64) (refSeg, bool) {
	for _, s := range m.segs {
		if s.idx == idx {
			return s, true
		}
	}
	return refSeg{}, false
}

// recsIn returns the records of segment idx at or after offset off.
func (m *refLog) recsIn(idx uint64, off int64) []refRec {
	var out []refRec
	for _, r := range m.recs {
		if r.pos.Segment == idx && r.pos.Offset >= off {
			out = append(out, r)
		}
	}
	return out
}

// image is what segment idx must hold: its header and its records' frames.
func (m *refLog) image(idx uint64) []byte {
	out := wal.SegmentHeader(idx)
	for _, r := range m.recsIn(idx, 0) {
		out = append(out, r.frame()...)
	}
	return out
}

// from returns the records at or after p.
func (m *refLog) from(p wal.Pos) []refRec {
	i := 0
	for i < len(m.recs) && m.recs[i].pos.Less(p) {
		i++
	}
	return m.recs[i:]
}

// sync makes the current segment durable, unless a failed write closed it.
func (m *refLog) sync() {
	if len(m.segs) > 0 && !m.tornTail {
		m.cur().synced, m.dirty = m.cur().size, false
	}
}

// seal is what leaving the current segment does; ok says the operation
// succeeded, so its syncs happened.
func (m *refLog) seal(ok bool) {
	if ok && len(m.segs) > 0 && (m.policy != wal.SyncNone || m.dirty) {
		m.sync()
	}
}

// create makes segment idx current; unless the policy is SyncNone its
// header and directory entry are durable once creation succeeded.
func (m *refLog) create(idx uint64, ok bool) {
	s := refSeg{idx: idx, size: wal.HeaderSize}
	if ok && m.policy != wal.SyncNone {
		s.synced, s.entry = wal.HeaderSize, true
	}
	m.segs = append(m.segs, s)
	m.dirty, m.tornTail = false, false
}

// write puts rec at the end of the current segment.
func (m *refLog) write(typ byte, data string) {
	c := m.cur()
	r := refRec{typ: typ, data: data, pos: wal.Pos{Segment: c.idx, Offset: c.size}}
	m.recs = append(m.recs, r)
	c.size += r.size()
	m.appended++
	m.bytes += r.size()
	m.dirty = true
}

// append is Log.Append; ok says it returned nil (a failed one is in the
// page cache at most, and nothing it would have synced is durable).
func (m *refLog) append(typ byte, data string, ok bool) {
	if c := m.cur(); c.size > wal.HeaderSize && c.size+int64(wal.FrameOverhead+len(data)) > m.segBytes {
		m.rotate(ok)
	}
	m.write(typ, data)
	if ok && m.policy == wal.SyncAlways {
		m.sync()
	}
}

func (m *refLog) rotate(ok bool) {
	m.seal(ok)
	m.create(m.cur().idx+1, ok)
}

// appendFrames is a following log's AppendFrames of recs at at.
func (m *refLog) appendFrames(at wal.Pos, recs []refRec, ok bool) {
	if at != m.end() {
		m.seal(ok)
		m.create(at.Segment, ok)
	}
	for _, r := range recs {
		m.write(r.typ, r.data)
	}
	if ok && len(recs) > 0 && m.policy != wal.SyncNone {
		m.sync()
	}
}

// syncDir makes every directory entry durable.
func (m *refLog) syncDir() {
	for i := range m.segs {
		m.segs[i].entry = true
	}
}

// drop removes the segments del selects and their records.
func (m *refLog) drop(del func(s refSeg) bool) (removed []refSeg) {
	kept := m.segs[:0]
	for _, s := range m.segs {
		if del(s) {
			removed = append(removed, s)
			m.gone = append(m.gone, s.idx)
		} else {
			kept = append(kept, s)
		}
	}
	m.segs = kept
	m.recs = slices.DeleteFunc(m.recs, func(r refRec) bool {
		_, live := m.seg(r.pos.Segment)
		return !live
	})
	return removed
}

// truncate is a successful TruncateBefore(seg).
func (m *refLog) truncate(seg uint64) {
	cur := m.cur().idx
	removed := m.drop(func(s refSeg) bool { return s.idx < seg && s.idx != cur })
	for _, s := range removed {
		m.floor = wal.Pos{Segment: s.idx, Offset: s.size}
	}
	if len(removed) > 0 {
		m.syncDir()
	}
}

// canQuarantine reports whether Quarantine(idx) must succeed.
func (m *refLog) canQuarantine(idx uint64) bool {
	_, live := m.seg(idx)
	return !m.closed && live && idx != m.cur().idx
}

func (m *refLog) quarantineSeg(idx uint64) {
	m.drop(func(s refSeg) bool { return s.idx == idx })
	if !slices.Contains(m.quarantine, idx) {
		m.quarantine = append(m.quarantine, idx)
	}
	m.quarantined++
	m.syncDir()
}

// mustSurvive returns the records a power loss cannot take: those of
// segments whose directory entry is durable, within their synced prefix.
func (m *refLog) mustSurvive() []refRec {
	var out []refRec
	for _, r := range m.recs {
		if s, _ := m.seg(r.pos.Segment); s.entry && r.end().Offset <= s.synced {
			out = append(out, r)
		}
	}
	return out
}

// open is what Open (OpenFollowing when following) makes of the segment
// files on disk, images, after a reboot when rebooted. A model segment
// whose entry was not durable may be gone. Of the files, the newest is the
// tail: it keeps the records it holds whole, and goes when not even its
// header survived. Any other file that is not exactly what was written is
// quarantined.
func (m *refLog) open(images map[uint64][]byte, rebooted bool) {
	m.torn, m.quarantined = 0, 0
	m.drop(func(s refSeg) bool { _, ok := images[s.idx]; return !ok })
	var files []uint64
	for idx := range images {
		files = append(files, idx)
	}
	slices.Sort(files)
	for i, idx := range files {
		img, tail, want := images[idx], i == len(files)-1, m.image(idx)
		s, _ := m.seg(idx)
		switch {
		case len(img) < wal.HeaderSize || !bytes.Equal(img[:wal.HeaderSize], wal.SegmentHeader(idx)):
			if !tail {
				m.quarantineSeg(idx)
				continue
			}
			m.drop(func(s refSeg) bool { return s.idx == idx })
			m.torn += int64(len(img))
		case bytes.Equal(img, want):
		case !tail:
			m.quarantineSeg(idx)
		default:
			size := int64(wal.HeaderSize)
			m.recs = slices.DeleteFunc(m.recs, func(r refRec) bool {
				if r.pos.Segment != idx {
					return false
				}
				if r.pos.Offset == size && r.end().Offset <= int64(len(img)) && bytes.Equal(img[size:r.end().Offset], r.frame()) {
					size = r.end().Offset
					return false
				}
				return true
			})
			for k := range m.segs {
				if m.segs[k].idx == idx {
					m.segs[k].size, m.segs[k].synced = size, min(size, s.synced)
				}
			}
			m.torn += int64(len(img)) - size
		}
	}
	m.gaps = 0
	for i := 1; i < len(m.segs); i++ {
		m.gaps += int(m.segs[i].idx - m.segs[i-1].idx - 1)
	}
	for _, q := range m.quarantine {
		if q+1 >= m.minSeg && (len(m.segs) == 0 || q < m.segs[0].idx) {
			m.gaps++
		}
	}
	for i := range m.segs {
		if rebooted {
			m.segs[i].synced, m.segs[i].entry = m.segs[i].size, true
		}
	}
	m.recovered, m.appended, m.bytes = int64(len(m.recs)), 0, 0
	m.closed, m.dirty, m.tornTail, m.floor = false, false, false, wal.Pos{}
	if !m.following {
		m.create(m.nextSegment(), true)
	}
}

// nextSegment is the index a fresh append segment takes.
func (m *refLog) nextSegment() uint64 {
	next := uint64(1)
	if n := len(m.segs); n > 0 {
		next = m.segs[n-1].idx + 1
	}
	return max(next, m.minSeg)
}

// isGone reports whether a read at p must answer ErrPositionGone.
func (m *refLog) isGone(p wal.Pos) bool {
	if m.closed {
		return false
	}
	if len(m.segs) == 0 {
		return true
	}
	if p.IsZero() {
		return false
	}
	if s, live := m.seg(p.Segment); live {
		return p.Offset > s.size
	}
	return p != m.floor || p.Segment > m.cur().idx
}

// normalize is where a read from p starts: the zero position and the
// floor at the oldest live segment, the end of a sealed segment at the
// next one.
func (m *refLog) normalize(p wal.Pos) wal.Pos {
	if p.IsZero() || p == m.floor {
		p = wal.Pos{Segment: m.segs[0].idx, Offset: wal.HeaderSize}
	}
	for i, s := range m.segs {
		if s.idx == p.Segment && p.Offset == s.size && i < len(m.segs)-1 {
			p = wal.Pos{Segment: m.segs[i+1].idx, Offset: wal.HeaderSize}
		}
	}
	return p
}

// diskFS is the rig's filesystem: a MemFS whose crash can also fire at an
// fsync (the armed one fails, and every write and sync after it, until
// the rig reboots the MemFS), and whose next ReadFile can run a step
// first.
type diskFS struct {
	*faultinject.MemFS
	mu         sync.Mutex
	syncsLeft  int
	down       bool
	beforeRead func()
}

func (d *diskFS) syncErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.syncsLeft > 0 {
		d.syncsLeft--
		d.down = d.syncsLeft == 0
	}
	if d.down {
		return faultinject.ErrCrashed
	}
	return nil
}

func (d *diskFS) crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down || d.MemFS.Crashed()
}

func (d *diskFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if d.crashed() {
		return nil, faultinject.ErrCrashed
	}
	f, err := d.MemFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return diskFile{f, d}, nil
}

func (d *diskFS) SyncDir(dir string) error {
	if err := d.syncErr(); err != nil {
		return err
	}
	return d.MemFS.SyncDir(dir)
}

func (d *diskFS) ReadFile(name string) ([]byte, error) {
	d.mu.Lock()
	before := d.beforeRead
	d.beforeRead = nil
	d.mu.Unlock()
	if before != nil {
		before()
	}
	return d.MemFS.ReadFile(name)
}

type diskFile struct {
	wal.File
	d *diskFS
}

func (f diskFile) Write(p []byte) (int, error) {
	if f.d.crashed() {
		return 0, faultinject.ErrCrashed
	}
	return f.File.Write(p)
}

func (f diskFile) Sync() error {
	if err := f.d.syncErr(); err != nil {
		return err
	}
	return f.File.Sync()
}

// reboot is power loss and restart: the MemFS keeps what its crash
// semantics keep, and what survived is on the medium, so durable.
func (d *diskFS) reboot(t *testing.T, dir string) {
	d.mu.Lock()
	d.down, d.syncsLeft = false, 0
	d.mu.Unlock()
	d.MemFS.Crash()
	names, _ := d.MemFS.ReadDirNames(dir)
	for _, name := range names {
		f, err := d.MemFS.OpenFile(filepath.Join(dir, name), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Sync()  //nolint:errcheck
		f.Close() //nolint:errcheck
	}
}

// logSetup configures a rig: the policy (zero: SyncAlways), segment and
// record bounds (zero: the defaults), the role, where the followed stream
// starts (zero: segment 1), and the seed of the MemFS and of random ops.
type logSetup struct {
	policy    wal.SyncPolicy
	segBytes  int64
	maxRecord int
	following bool
	start     uint64
	seed      int64
}

// waiter is a WaitFrom parked at from.
type waiter struct {
	from   wal.Pos
	done   chan error
	cancel context.CancelFunc
}

// logRig drives a Log and the model through the same operations, checking
// every read after each one.
type logRig struct {
	t       *testing.T
	set     logSetup
	rng     *rand.Rand
	fs      *diskFS
	clk     *clock.Fake
	l       *wal.Log
	m       *refLog
	stream  *refLog // what a following log mirrors
	waiters []*waiter
	made    int  // records made so far
	ops     int  // operations applied
	armed   bool // a crash is scheduled
	history []string
}

const rigDir = "/wal"

func newLogRig(t *testing.T, set logSetup) *logRig {
	if set.policy == 0 {
		set.policy = wal.SyncAlways
	}
	if set.segBytes == 0 {
		set.segBytes = wal.DefaultSegmentBytes
	}
	r := &logRig{t: t, set: set, rng: rand.New(rand.NewSource(set.seed)), fs: &diskFS{MemFS: faultinject.NewMemFS(set.seed)},
		m: &refLog{policy: set.policy, segBytes: set.segBytes, following: set.following}}
	if set.following {
		r.stream = &refLog{policy: wal.SyncAlways, segBytes: 1 << 62}
		r.stream.create(max(set.start, 1), true)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed %d, ops: %s", set.seed, strings.Join(r.history, " "))
		}
		r.release()
		if r.l != nil && !r.m.closed {
			r.l.Close() //nolint:errcheck
		}
	})
	r.open(false)
	return r
}

// runLog runs script on a fresh rig.
func runLog(t *testing.T, set logSetup, script string) *logRig {
	t.Helper()
	r := newLogRig(t, set)
	r.run(script)
	return r
}

// open opens the directory in the model's role, after a reboot when
// rebooted, closing the log first if it is open.
func (r *logRig) open(rebooted bool) {
	r.t.Helper()
	if r.l != nil && !r.m.closed {
		r.close()
	}
	images := map[uint64][]byte{}
	segs, _ := wal.ListSegments(r.fs, rigDir)
	for _, idx := range segs {
		images[idx], _ = r.fs.ReadFile(filepath.Join(rigDir, wal.SegmentName(idx)))
	}
	for _, s := range r.m.segs {
		if _, ok := images[s.idx]; !ok && s.entry {
			r.t.Fatalf("op %d: segment %d, whose entry was durable, is gone", r.ops, s.idx)
		}
	}
	for idx := range images {
		if _, known := r.m.seg(idx); !known {
			r.t.Fatalf("op %d: segment %d, which the log removed, is back", r.ops, idx)
		}
	}
	r.clk = clock.NewFake(time.Unix(1000, 0))
	opts := wal.Options{Dir: rigDir, FS: r.fs, Clock: r.clk, Policy: r.set.policy, Interval: time.Second,
		SegmentBytes: r.set.segBytes, MaxRecordBytes: r.set.maxRecord, MinSegment: r.m.minSeg}
	open := wal.Open
	if r.m.following {
		open = wal.OpenFollowing
	}
	r.m.closed = true
	l, err := open(opts)
	if err != nil && r.fs.crashed() {
		r.crash() // the crash armed fired in Open
		return
	}
	if err != nil {
		r.t.Fatalf("op %d: open: %v", r.ops, err)
	}
	r.l = l
	r.m.open(images, rebooted)
}

// record returns the type and payload of the next record made: payloads
// of every length from empty to a few dozen bytes.
func (r *logRig) record() (byte, string) {
	r.made++
	if r.made%7 == 3 {
		return byte(r.made % 9), ""
	}
	return byte(1 + r.made%9), fmt.Sprintf("r%d-%s", r.made, strings.Repeat("ab", r.made%9))
}

// run applies ops, space-separated operations:
//
//	a, aN        append one record, or N (following: to the stream)
//	big          append a record over MaxRecordBytes: refused
//	sync, tick   Sync; advance the clock one group-commit interval
//	rot, rot:N   Rotate (following: the stream moves N segments on)
//	trunc        TruncateBefore the current segment; truncto:N segment N
//	racetrunc    ReadFrom the oldest sealed segment, truncated under it
//	q:N          Quarantine segment N
//	park         park a WaitFrom at End
//	close, open  Close; reopen
//	crash        power loss, then reopen
//	crashw:N     crash at the Nth write from now, torn; crashs:N at the
//	             Nth fsync
//	tear:N       append N bytes of a frame to the newest segment at rest
//	flip:K       corrupt the K-th live segment's first frame (its header
//	             when it has none) at rest
//	ship         copy the stream into the following log
//	diverge      offer frames anywhere but End or a later header
//	end, endfail EndFollowing with a commit that succeeds, or fails
//	reset        Reset
//	eio:N, full:N, heal   fail writes after N bytes, leave N bytes of
//	             room, or undo both
func (r *logRig) run(script string) {
	r.t.Helper()
	for _, op := range strings.Fields(script) {
		name, arg, _ := strings.Cut(op, ":")
		n, err := strconv.Atoi(arg)
		if k, kerr := strconv.Atoi(strings.TrimPrefix(name, "a")); kerr == nil {
			name, n = "a", k
		} else if err != nil {
			n = 1
		}
		r.ops++
		r.history = append(r.history, op)
		r.apply(name, n)
		if r.fs.crashed() {
			r.crash()
		}
		r.check(op)
	}
}

func (r *logRig) apply(name string, n int) {
	r.t.Helper()
	m := r.m
	switch name {
	case "a":
		for i := 0; i < n && !r.fs.crashed(); i++ {
			typ, data := r.record()
			if m.following {
				r.stream.append(typ, data, true)
				continue
			}
			err := r.l.Append(wal.Record{Type: typ, Data: []byte(data)})
			r.failed(err, "append")
			m.append(typ, data, err == nil)
		}
	case "big":
		if err := r.l.Append(wal.Record{Type: 1, Data: make([]byte, r.l.MaxRecordBytes()+1)}); err == nil {
			r.t.Fatalf("op %d: an oversized record was appended", r.ops)
		}
	case "sync":
		err := r.l.Sync()
		r.failed(err, "sync")
		if err == nil {
			m.sync()
		}
	case "tick":
		if r.set.policy == wal.SyncInterval && !m.closed {
			r.clk.Advance(time.Second)
			r.clk.WaitArmed(1)
			if !r.fs.crashed() && m.dirty {
				m.sync()
			}
		}
	case "rot":
		if m.following {
			r.stream.create(r.stream.cur().idx+uint64(n), true)
			return
		}
		idx, err := r.l.Rotate()
		r.failed(err, "rotate")
		m.rotate(err == nil)
		if err == nil && idx != m.cur().idx {
			r.t.Fatalf("op %d: Rotate = %d, want %d", r.ops, idx, m.cur().idx)
		}
	case "trunc", "truncto":
		seg := m.cur().idx
		if name == "truncto" {
			seg = uint64(n)
		}
		err := r.l.TruncateBefore(seg)
		r.failed(err, "truncate")
		if err == nil {
			m.truncate(seg)
		}
	case "racetrunc":
		if len(m.segs) < 2 || len(m.recsIn(m.segs[0].idx, 0)) == 0 {
			return
		}
		from, seg := wal.Pos{Segment: m.segs[0].idx, Offset: wal.HeaderSize}, m.cur().idx
		r.fs.mu.Lock()
		r.fs.beforeRead = func() {
			if err := r.l.TruncateBefore(seg); err != nil && !r.fs.crashed() {
				r.t.Errorf("op %d: truncate: %v", r.ops, err)
			}
		}
		r.fs.mu.Unlock()
		if _, _, _, _, err := r.l.ReadFrom(from, 0); !errors.Is(err, wal.ErrPositionGone) {
			r.t.Fatalf("op %d: ReadFrom(%v) racing a truncation: %v, want ErrPositionGone", r.ops, from, err)
		}
		if !r.fs.crashed() {
			m.truncate(seg)
		}
	case "q":
		err := r.l.Quarantine(uint64(n))
		if err != nil && r.fs.crashed() {
			return // the rename is not durable
		}
		if want := m.canQuarantine(uint64(n)); (err == nil) != want {
			r.t.Fatalf("op %d: Quarantine(%d) = %v, want success %v", r.ops, n, err, want)
		}
		if err == nil {
			m.quarantineSeg(uint64(n))
		}
	case "park":
		r.park()
	case "close":
		r.close()
	case "open":
		r.open(false)
	case "crash":
		r.crash()
	case "crashw":
		r.armed = true
		r.fs.SetTornWrites(true)
		r.fs.SetBitFlipProb(0.3)
		r.fs.CrashAfterWrites(n)
	case "crashs":
		r.armed = true
		r.fs.mu.Lock()
		r.fs.syncsLeft = n
		r.fs.mu.Unlock()
	case "tear":
		r.atRest()
		c := m.segs[len(m.segs)-1]
		f, err := r.fs.OpenFile(filepath.Join(rigDir, wal.SegmentName(c.idx)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			r.t.Fatal(err)
		}
		typ, data := r.record()
		frame := wal.EncodeFrame(wal.Record{Type: typ, Data: []byte(data + "-torn-torn")})
		f.Write(frame[:min(n, len(frame)-1)]) //nolint:errcheck
		f.Close()
	case "flip":
		r.flip(m.segs[n].idx)
	case "ship":
		r.ship()
	case "diverge":
		r.diverge()
	case "end", "endfail":
		r.endFollowing(name == "end")
	case "reset":
		if err := r.l.Reset(); err != nil {
			r.failed(err, "reset")
			return // the removals are not durable
		}
		m.drop(func(refSeg) bool { return true })
		m.dirty, m.tornTail = false, false
	case "eio":
		r.fs.FailWritesAfter(int64(n))
	case "full":
		r.fs.SetCapacity(r.fs.Used() + int64(n))
	case "heal":
		r.fs.ClearWriteError()
		r.fs.SetCapacity(0)
	default:
		r.t.Fatalf("script: unknown op %q", name)
	}
}

// failed fails the test on an error no crash explains.
func (r *logRig) failed(err error, what string) {
	r.t.Helper()
	if err != nil && !r.fs.crashed() {
		r.t.Fatalf("op %d: %s: %v", r.ops, what, err)
	}
}

// atRest closes the log, if it is open, for an operation on its files.
func (r *logRig) atRest() {
	r.t.Helper()
	if !r.m.closed {
		r.close()
	}
}

// release cancels every parked waiter.
func (r *logRig) release() {
	for _, w := range r.waiters {
		w.cancel()
		<-w.done
	}
	r.waiters = nil
}

func (r *logRig) park() {
	if r.m.closed || r.m.following {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &waiter{from: r.m.end(), done: make(chan error, 1), cancel: cancel}
	l, sel := r.l, &selectCtx{Context: ctx, selected: make(chan struct{})}
	go func() { w.done <- l.WaitFrom(sel, w.from) }()
	select { // parked: it holds the wake-up channel of the log as it is now
	case <-sel.selected:
	case err := <-w.done:
		w.done <- err // returned at once: checkWaiters reports it
	case <-time.After(5 * time.Second):
		r.t.Fatalf("op %d: WaitFrom(%v) neither parked nor returned", r.ops, w.from)
	}
	r.waiters = append(r.waiters, w)
}

// selectCtx closes selected the first time WaitFrom selects on Done, which
// it does only once it holds the log's wake-up channel.
type selectCtx struct {
	context.Context
	once     sync.Once
	selected chan struct{}
}

func (c *selectCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.selected) })
	return c.Context.Done()
}

// close closes the log and checks that every operation on it answers
// ErrClosed.
func (r *logRig) close() {
	r.t.Helper()
	err := r.l.Close()
	r.failed(err, "close")
	if err == nil && !r.m.tornTail && r.m.dirty {
		r.m.sync()
	}
	r.m.closed = true
	l, end := r.l, r.m.end()
	_, err1 := l.Rotate()
	_, _, _, _, err2 := l.ReadFrom(end, 0)
	_, err3 := l.BytesFrom(end)
	_, _, err4 := l.AppendFrames(end, nil)
	for i, err := range []error{l.Append(wal.Record{Type: 1}), l.Sync(), l.TruncateBefore(end.Segment), l.Quarantine(end.Segment),
		l.WaitFrom(context.Background(), end), l.Close(), l.Reset(), l.EndFollowing(func() error { return nil }), err1, err2, err3, err4} {
		if !errors.Is(err, wal.ErrClosed) {
			r.t.Errorf("op %d: call %d on a closed log = %v, want ErrClosed", r.ops, i, err)
		}
	}
}

// crash is power loss at once, then Open over what the model says must
// survive of it.
func (r *logRig) crash() {
	r.t.Helper()
	r.fs.mu.Lock()
	r.fs.down = true
	r.fs.mu.Unlock()
	if !r.m.closed {
		r.l.Close() //nolint:errcheck
		r.m.closed = true
	}
	r.checkWaiters()
	r.fs.reboot(r.t, rigDir)
	r.apply("heal", 0)
	r.fs.SetTornWrites(false)
	r.fs.SetBitFlipProb(0)
	r.armed = false
	must := r.m.mustSurvive()
	if r.rng.Intn(4) == 0 && len(r.m.segs) > 0 {
		r.m.minSeg = r.m.segs[len(r.m.segs)-1].idx + 2 // a checkpoint barrier above every segment
	}
	r.open(true)
	for _, x := range must {
		if !slices.Contains(r.m.recs, x) {
			r.t.Fatalf("op %d: a crash lost record %q at %v, which was synced", r.ops, x.data, x.pos)
		}
	}
}

// flip corrupts segment idx at rest and checks that the readers of files
// see it: VerifySegmentFile at the first bad byte, and Replay refusing a
// sealed segment before any of its records, or ending quietly at a torn
// newest one.
func (r *logRig) flip(idx uint64) {
	r.t.Helper()
	r.atRest()
	m := r.m
	var off int64
	if recs := m.recsIn(idx, 0); len(recs) > 0 {
		off = recs[r.rng.Intn(len(recs))].pos.Offset
	}
	path := filepath.Join(rigDir, wal.SegmentName(idx))
	if err := r.fs.FlipByte(path, off, 0x41); err != nil {
		r.t.Fatal(err)
	}
	var ce *wal.CorruptError
	if n, valid, err := wal.VerifySegmentFile(r.fs, rigDir, idx, 0); !errors.As(err, &ce) || valid != off || ce.Offset != off ||
		(off > 0 && n != len(m.recsIn(idx, 0))-len(m.recsIn(idx, off))) {
		r.t.Errorf("op %d: VerifySegmentFile of %d corrupt at %d = %d records, %d bytes, %v", r.ops, idx, off, n, valid, err)
	}
	var walked []refRec
	err := wal.Replay(r.fs, rigDir, 0, 0, func(seg uint64, rec wal.Record) error { walked = walk(walked, seg, rec); return nil })
	want := m.from(wal.Pos{})
	if sealed := idx != m.segs[len(m.segs)-1].idx; sealed {
		if !errors.As(err, &ce) || ce.Path != path || ce.Offset != off {
			r.t.Errorf("op %d: Replay over segment %d corrupt at %d = %v", r.ops, idx, off, err)
		}
		want = slices.DeleteFunc(slices.Clone(want), func(x refRec) bool { return x.pos.Segment >= idx })
	} else {
		if err != nil {
			r.t.Errorf("op %d: Replay over a torn newest segment = %v", r.ops, err)
		}
		want = slices.DeleteFunc(slices.Clone(want), func(x refRec) bool { return x.pos.Segment == idx && x.pos.Offset >= off })
	}
	r.sameRecords("Replay at rest", walked, want)
}

// walk appends rec, read back from segment seg, to out.
func walk(out []refRec, seg uint64, rec wal.Record) []refRec {
	return append(out, refRec{typ: rec.Type, data: string(rec.Data), pos: wal.Pos{Segment: seg}})
}

// sameRecords compares records read back, with their segments, to want.
func (r *logRig) sameRecords(what string, got, want []refRec) {
	r.t.Helper()
	if len(got) != len(want) {
		r.t.Fatalf("op %d: %s: %d records, want %d", r.ops, what, len(got), len(want))
	}
	for i := range want {
		if got[i].typ != want[i].typ || got[i].data != want[i].data || got[i].pos.Segment != want[i].pos.Segment {
			r.t.Fatalf("op %d: %s: record %d = {%d %q in %d}, want {%d %q in %d}", r.ops, what, i,
				got[i].typ, got[i].data, got[i].pos.Segment, want[i].typ, want[i].data, want[i].pos.Segment)
		}
	}
}

// ship copies the stream into the following log, three records per
// AppendFrames, each batch followed by a torn frame; a roll onto a later
// segment is sometimes its own call and sometimes comes with frames.
func (r *logRig) ship() {
	r.t.Helper()
	m, s := r.m, r.stream
	for !m.closed && m.following && !r.fs.crashed() {
		at := m.end()
		var recs []refRec
		if !at.IsZero() {
			recs = s.recsIn(at.Segment, at.Offset)
		}
		if len(recs) == 0 {
			i := slices.IndexFunc(s.segs, func(x refSeg) bool { return x.idx > at.Segment })
			if i < 0 {
				return
			}
			at = wal.Pos{Segment: s.segs[i].idx, Offset: wal.HeaderSize}
			if recs = s.recsIn(at.Segment, 0); r.rng.Intn(2) == 0 {
				recs = nil
			}
		}
		recs = recs[:min(3, len(recs))]
		var frames []byte
		for _, x := range recs {
			frames = append(frames, x.frame()...)
		}
		_, data := r.record()
		frames = append(frames, wal.EncodeFrame(wal.Record{Type: 1, Data: []byte(data)})[:5]...)
		before := m.end()
		got, next, err := r.l.AppendFrames(at, frames)
		if err != nil {
			if r.fs.crashed() {
				m.appendFrames(at, recs, false)
				return
			}
			if !errors.Is(err, syscall.EIO) && !errors.Is(err, syscall.ENOSPC) {
				r.t.Fatalf("op %d: AppendFrames(%v): %v", r.ops, at, err)
			}
			if at != before && r.l.End() == at {
				m.appendFrames(at, nil, true) // the roll went through
			}
			m.tornTail = true
			return
		}
		m.appendFrames(at, recs, true)
		var walked []refRec
		for _, x := range got {
			walked = walk(walked, at.Segment, x)
		}
		r.sameRecords("AppendFrames", walked, recs)
		if next != m.end() {
			r.t.Fatalf("op %d: AppendFrames(%v) next = %v, want %v", r.ops, at, next, m.end())
		}
	}
}

// diverge offers frames where a following log must refuse them: beyond
// its end, behind it, inside a later segment, and at the zero position.
func (r *logRig) diverge() {
	r.t.Helper()
	end := r.m.end()
	frame := wal.EncodeFrame(wal.Record{Type: 1, Data: []byte("diverged")})
	wrong := []wal.Pos{{}, {Segment: end.Segment, Offset: end.Offset + 9}, {Segment: end.Segment + 1, Offset: wal.HeaderSize + 1}}
	if end.Offset > wal.HeaderSize {
		wrong = append(wrong, wal.Pos{Segment: end.Segment, Offset: wal.HeaderSize})
	}
	if end.Segment > 1 {
		wrong = append(wrong, wal.Pos{Segment: end.Segment - 1, Offset: wal.HeaderSize})
	}
	for _, at := range wrong {
		if _, _, err := r.l.AppendFrames(at, frame); !errors.Is(err, wal.ErrDiverged) {
			r.t.Fatalf("op %d: AppendFrames(%v) with the end at %v = %v, want ErrDiverged", r.ops, at, end, err)
		}
	}
}

func (r *logRig) endFollowing(commit bool) {
	r.t.Helper()
	m := r.m
	var boom error
	if !commit {
		boom = errors.New("commit failed")
	}
	err := r.l.EndFollowing(func() error { return boom })
	switch {
	case !m.following:
		r.failed(err, "EndFollowing")
	case commit:
		r.failed(err, "EndFollowing")
		m.tornTail = false
		m.seal(err == nil)
		m.create(m.nextSegment(), err == nil)
		m.following = false
	default:
		if !errors.Is(err, boom) {
			r.t.Fatalf("op %d: EndFollowing(failing commit) = %v", r.ops, err)
		}
		m.tornTail = false
		m.seal(true)
	}
}

// checkWaiters checks every parked waiter against the model: one whose
// position the log has left, or whose log closed, has returned with nil or
// ErrClosed; any other is still parked.
func (r *logRig) checkWaiters() {
	r.t.Helper()
	kept := r.waiters[:0]
	for _, w := range r.waiters {
		var want error
		switch {
		case r.m.closed || r.fs.crashed():
			want = wal.ErrClosed
		case r.m.normalize(w.from) != r.m.end() || w.from.Segment != r.m.end().Segment:
		default:
			select {
			case err := <-w.done:
				r.t.Fatalf("op %d: WaitFrom(%v) returned %v with nothing new", r.ops, w.from, err)
			default:
			}
			kept = append(kept, w)
			continue
		}
		select {
		case err := <-w.done:
			if !errors.Is(err, want) && !(want == nil && err == nil) {
				r.t.Fatalf("op %d: WaitFrom(%v) = %v, want %v", r.ops, w.from, err, want)
			}
		case <-time.After(5 * time.Second):
			r.t.Fatalf("op %d: WaitFrom(%v) did not wake (end %v, closed %v)", r.ops, w.from, r.m.end(), r.m.closed)
		}
		w.cancel()
	}
	r.waiters = kept
}

// check compares every public read of the log with the model.
func (r *logRig) check(op string) {
	r.t.Helper()
	r.checkWaiters()
	m, l := r.m, r.l
	fail := func(format string, args ...interface{}) {
		r.t.Helper()
		r.t.Fatalf("op %d (%s): %s", r.ops, op, fmt.Sprintf(format, args...))
	}
	end := m.end()
	st := l.Stats()
	if got, want := [8]int64{st.RecordsAppended, st.BytesAppended, int64(st.Segments), int64(st.CurrentSegment), st.RecoveredRecords,
		st.TornBytesTruncated, st.QuarantinedSegments, int64(st.RecoveryGaps)},
		[8]int64{m.appended, m.bytes, int64(len(m.segs)), int64(end.Segment), m.recovered, m.torn, m.quarantined, int64(m.gaps)}; got != want {
		fail("Stats {appended, bytes, segments, current, recovered, torn, quarantined, gaps} = %v, want %v", got, want)
	}
	if m.closed {
		return
	}
	if got := l.End(); got != end {
		fail("End = %v, want %v", got, end)
	}
	var live []uint64
	for _, s := range m.segs {
		live = append(live, s.idx)
	}
	if got, sealed := l.SealedSegments(), live[:max(len(live), 1)-1]; !slices.Equal(got, sealed) {
		fail("SealedSegments = %v, want %v", got, sealed)
	}
	if got, err := wal.ListSegments(r.fs, rigDir); err != nil || !slices.Equal(got, live) {
		fail("ListSegments = %v, %v; want %v", got, err, live)
	}
	if m.following {
		if _, err := l.Rotate(); !errors.Is(err, wal.ErrFollowing) || !errors.Is(l.Append(wal.Record{Type: 1}), wal.ErrFollowing) {
			fail("Rotate or Append on a following log = %v", err)
		}
	} else if _, _, err := l.AppendFrames(end, nil); err == nil {
		fail("AppendFrames on a log that is not following succeeded")
	}

	// The files: each live segment is its header and its records' frames.
	for i, s := range m.segs {
		disk, err := r.fs.ReadFile(filepath.Join(rigDir, wal.SegmentName(s.idx)))
		if err != nil {
			fail("%v", err)
		}
		want, tail := m.image(s.idx), m.tornTail && i == len(m.segs)-1
		if !bytes.Equal(disk, want) && !(tail && bytes.HasPrefix(disk, want)) {
			fail("segment %d on disk: %d bytes, want the %d of its header and %d records", s.idx, len(disk), len(want), len(m.recsIn(s.idx, 0)))
		}
		if i < len(m.segs)-1 {
			if n, valid, err := wal.VerifySegmentFile(r.fs, rigDir, s.idx, 0); err != nil || n != len(m.recsIn(s.idx, 0)) || valid != s.size {
				fail("VerifySegmentFile(%d) = %d records, %d bytes, %v", s.idx, n, valid, err)
			}
		}
	}
	var replayed []refRec
	if err := l.Replay(0, func(seg uint64, rec wal.Record) error { replayed = walk(replayed, seg, rec); return nil }); err != nil {
		fail("Replay: %v", err)
	}
	r.sameRecords("Replay", replayed, m.recs)

	// The cursor: a walk from the zero position in small reads serves
	// every record at its position and stops at End.
	if len(m.segs) == 0 {
		if _, _, _, _, err := l.ReadFrom(wal.Pos{}, 0); !errors.Is(err, wal.ErrPositionGone) {
			fail("ReadFrom(zero) of an empty log = %v, want ErrPositionGone", err)
		}
		return
	}
	pos, i := wal.Pos{}, 0
	for {
		frames, n, start, next, err := l.ReadFrom(pos, 1+r.ops%150)
		if err != nil {
			fail("ReadFrom(%v): %v", pos, err)
		}
		if n == 0 {
			if i != len(m.recs) || start != end || next != end {
				fail("ReadFrom(%v) caught up at %v after %d records, want %v after %d", pos, start, i, end, len(m.recs))
			}
			break
		}
		var want []byte
		for _, x := range m.recs[i : i+n] {
			want = append(want, x.frame()...)
		}
		if i+n > len(m.recs) || start != m.recs[i].pos || next != m.recs[i+n-1].end() || !bytes.Equal(frames, want) {
			fail("ReadFrom(%v) = %d records %v..%v, want them from record %d of %d", pos, n, start, next, i, len(m.recs))
		}
		pos, i = next, i+n
	}
	// Counts and positions: from the zero position, every segment start,
	// the floor, a record in the middle and the end; positions below the
	// floor, in a removed segment or beyond the end are gone.
	probes := []wal.Pos{{}, end, m.floor}
	for _, s := range m.segs {
		probes = append(probes, wal.Pos{Segment: s.idx, Offset: wal.HeaderSize})
	}
	if len(m.recs) > 0 {
		probes = append(probes, m.recs[len(m.recs)/2].pos, m.recs[len(m.recs)/2].end())
	}
	for _, g := range m.gone[max(0, len(m.gone)-3):] {
		probes = append(probes, wal.Pos{Segment: g, Offset: wal.HeaderSize})
	}
	probes = append(probes, wal.Pos{Segment: end.Segment, Offset: end.Offset + 1}, wal.Pos{Segment: end.Segment + 1, Offset: wal.HeaderSize})
	for _, p := range probes {
		count, cerr := l.CountFrom(p)
		nbytes, berr := l.BytesFrom(p)
		_, _, start, _, rerr := l.ReadFrom(p, 1)
		if m.isGone(p) {
			if !errors.Is(cerr, wal.ErrPositionGone) || !errors.Is(berr, wal.ErrPositionGone) || !errors.Is(rerr, wal.ErrPositionGone) {
				fail("reads from %v = %v, %v, %v; want ErrPositionGone", p, cerr, berr, rerr)
			}
			continue
		}
		var wantBytes int64
		rest := m.from(m.normalize(p))
		for _, x := range rest {
			wantBytes += x.size()
		}
		if cerr != nil || berr != nil || rerr != nil || count != int64(len(rest)) || nbytes != wantBytes || start != m.normalize(p) {
			fail("from %v: CountFrom %d, %v; BytesFrom %d, %v; ReadFrom starts %v, %v; want %d records, %d bytes from %v",
				p, count, cerr, nbytes, berr, start, rerr, len(rest), wantBytes, m.normalize(p))
		}
	}
}

// logOps are the operations logWorkload draws from, each as often as it
// is listed; N stands for a small number, S for a live segment and K for
// its place among them. Those of the other role are replaced by an append
// or a ship, those on files at rest by an append while a crash is armed.
var logOps = strings.Fields(`a1 a2 a3 a1 a2 a3 a1 a2 a3 a1 a2 a3 sync tick tick rot rot trunc crash crashw:N crashs:N
	close_open park q:S truncto:S racetrunc close_flip:K_open close_tear:N_open big ship ship ship ship diverge eio:N_ship_heal
	reset_ship rot:2 end`)

// logWorkload applies ops random operations, checking after each.
func logWorkload(r *logRig, ops int) {
	r.t.Helper()
	m, rng := r.m, r.rng
	for i := 0; i < ops; i++ {
		op := strings.ReplaceAll(logOps[rng.Intn(len(logOps))], "_", " ")
		following := strings.Contains(op, "ship") || op == "diverge" || op == "end" || op == "rot:2"
		switch {
		case m.following && (strings.HasPrefix(op, "trunc") || op == "racetrunc" || op == "q:S" || op == "diverge" && m.end().IsZero()):
			op = "ship"
		case !m.following && following, len(m.segs) == 0 && (strings.ContainsAny(op, "SK") || strings.Contains(op, "tear")),
			r.armed && (strings.Contains(op, "close ") || strings.HasPrefix(op, "eio") || op == "racetrunc"):
			op = "a"
		}
		op = strings.ReplaceAll(op, "N", strconv.Itoa(1+rng.Intn(8)))
		if len(m.segs) > 0 {
			k := rng.Intn(len(m.segs))
			op = strings.NewReplacer("S", strconv.Itoa(int(m.segs[k].idx)), "K", strconv.Itoa(k)).Replace(op)
		}
		r.run(op)
	}
	r.release()
}
