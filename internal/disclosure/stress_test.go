package disclosure

// Tracker-level concurrency stress, run under -race by `make check`: many
// goroutines observe overlapping and disjoint segments (singular and
// batched) while expiry and Forget run concurrently. At quiescence:
//
//   - every hash of a live segment has an oldest holder whose first
//     observation is no younger than any other holder's (checked against
//     the oldest-first holder list and a copy reloaded from the image);
//   - a final observation round produces reports whose sources are all
//     live segments (a decision lives on its segment's DBpar row, so none
//     outlives a dropped segment).

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/index"
	"github.com/lsds/browserflow/internal/segment"
)

func stressText(worker, variant int) string {
	base := fmt.Sprintf("Worker %d shares the quarterly disclosure corpus sentence pool number %d. ", worker%3, variant%4)
	private := fmt.Sprintf("Private clause %d-%d keeps some hashes unique to this worker alone. ", worker, variant)
	return strings.Repeat(base, 3) + strings.Repeat(private, 2)
}

func TestTrackerConcurrentObserveExpireForget(t *testing.T) {
	tracker, err := NewTracker(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 80
	)
	// Expiry drops a posting by its age whether or not its segment is still
	// live, and only the segment's next changed observation re-posts it. So
	// the expirer stops once every worker is two cycles over its four
	// segments from the end: the closing rounds, whose texts all differ
	// from the round before, then leave every live segment fully posted —
	// the state the checks below describe.
	var (
		arrived     atomic.Int32
		expiryEnded = make(chan struct{})
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if r == rounds-8 {
					arrived.Add(1)
					<-expiryEnded
				}
				seg := segment.ID(fmt.Sprintf("w%d/doc#p%d", w, r%4))
				if r%3 == 0 {
					items := []BatchObservation{
						{Seg: seg, Text: stressText(w, r)},
						{Seg: segment.ID(fmt.Sprintf("w%d/doc#p%d", w, (r+1)%4)), Text: stressText(w, r+1)},
					}
					if _, err := tracker.ObserveBatch(items); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := tracker.ObserveParagraph(seg, stressText(w, r)); err != nil {
						t.Error(err)
						return
					}
				}
				if r%11 == 5 {
					tracker.Forget(segment.ID(fmt.Sprintf("w%d/doc#p%d", w, r%4)), segment.GranularityParagraph)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(expiryEnded)
		for arrived.Load() < workers {
			db := tracker.Paragraphs()
			if now := db.Now(); now > 120 {
				db.ExpireBefore(now - 120)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()

	db := tracker.Paragraphs()

	// The churn left the database self-consistent: its image loads, and
	// the loaded copy — rebuilt from the encoded postings alone — has the
	// counters and the digest the source maintained incrementally.
	restored := index.New(nil, 0)
	img, _ := db.AppendSnapshot(nil)
	p, err := restored.PrepareSnapshot(img)
	if err != nil {
		t.Fatalf("image of the churned database does not load: %v", err)
	}
	restored.CommitSnapshot(p)
	s, rs := db.Stats(), restored.Stats()
	if s.Postings != rs.Postings || s.Segments != rs.Segments || s.DistinctHashes != rs.DistinctHashes {
		t.Fatalf("counters drifted: Stats %+v vs reloaded %+v", s, rs)
	}
	if got, want := restored.Digest(), db.Digest(); got != want {
		t.Fatalf("incremental digest %+v, recomputed from the image %+v", want, got)
	}

	// Authoritative holder is always the oldest poster: for every hash of
	// every live segment, OldestHolder agrees with the head of the
	// oldest-first holder list, here and in the reloaded copy.
	for _, seg := range db.Segments() {
		fp, ok := db.Fingerprint(seg)
		if !ok {
			continue
		}
		for _, h := range fp.Hashes() {
			holders := db.Holders(h)
			got, ok := db.OldestHolder(h)
			if !ok || len(holders) == 0 {
				t.Fatalf("hash %#x of live segment %q has no holder", h, seg)
			}
			if got != holders[0] {
				t.Fatalf("hash %#x: OldestHolder = %q, want oldest poster %q", h, got, holders[0])
			}
			if again, _ := restored.OldestHolder(h); again != got {
				t.Fatalf("hash %#x: OldestHolder = %q, reloaded copy says %q", h, got, again)
			}
		}
	}

	// No decision outlives its segment: a fresh observation round reports
	// live sources only.
	for w := 0; w < workers; w++ {
		for r := 0; r < 4; r++ {
			report, err := tracker.ObserveParagraph(segment.ID(fmt.Sprintf("probe/w%d#p%d", w, r)), stressText(w, r))
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range report.Sources {
				if _, ok := db.Fingerprint(src.Seg); !ok {
					t.Fatalf("report names dead source %q", src.Seg)
				}
			}
		}
	}
}

// TestSameSegmentChurnKeepsDecisionWithItsFingerprint: goroutines churn
// two texts on one segment through the singular, batched and routed
// entry points. A decision is memoised in the stripe write that stores
// its fingerprint, and a hit needs the row to hold the fingerprint asked
// about with the generation unmoved since, so once the churn quiesces a
// hit implies the row holds the hit's fingerprint, and every quiesced
// observe leaves the row holding its own — the state a replay of the same
// observes reaches. A quiesced observe that resolved its sources itself
// (not the routed one, which memoises nothing) is then answered from the
// memo when repeated. With the decision kept apart from the row, two
// concurrent observes could leave the row holding B beside A's decision;
// an observe of A then hit, skipped the index update and left the row at
// B.
func TestSameSegmentChurnKeepsDecisionWithItsFingerprint(t *testing.T) {
	tracker, err := NewTracker(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const (
		seg     = segment.ID("doc#churn")
		workers = 6
	)
	// The split this guards against showed within 3 630–18 669 rounds on a
	// 2-CPU machine, and at round 1 841 of a -race run, whose rounds are
	// ten times slower.
	rounds := 20000
	if raceEnabled {
		rounds = 4000
	}
	texts := [2]string{stressText(0, 0), stressText(0, 0) + "An appended sentence gives the paragraph another fingerprint."}
	var fps [2]*fingerprint.Fingerprint
	for i, text := range texts {
		if fps[i], err = tracker.Fingerprint(text); err != nil {
			t.Fatal(err)
		}
	}
	if slices.Equal(fps[0].Hashes(), fps[1].Hashes()) {
		t.Fatal("the two texts share a fingerprint")
	}
	observe := func(w, i int) (Report, error) {
		switch w % 3 {
		case 0:
			reports, err := tracker.ObserveBatch([]BatchObservation{{Seg: seg, Text: texts[i]}})
			if err != nil {
				return Report{}, err
			}
			return reports[0], nil
		case 1:
			return tracker.ObserveResolvedFP(seg, fps[i].Clone(), segment.GranularityParagraph, nil), nil
		}
		return tracker.ObserveParagraph(seg, texts[i])
	}
	holds := func(i int) bool {
		fp, ok := tracker.Paragraphs().Fingerprint(seg)
		return ok && slices.Equal(fp.Hashes(), fps[i].Hashes())
	}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				if _, err := observe(w, (w+r)%2); err != nil {
					t.Error(err)
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for _, i := range rng.Perm(2) {
			held := holds(i)
			w := rng.Intn(3)
			report, err := observe(w, i)
			if err != nil {
				t.Fatal(err)
			}
			if report.CacheHit && !held {
				t.Fatalf("round %d: text %d hit a decision while the row held another fingerprint", r, i)
			}
			if !holds(i) {
				t.Fatalf("round %d: after a quiesced observe of text %d (hit %v) the row holds another fingerprint", r, i, report.CacheHit)
			}
			if w%3 == 1 {
				continue
			}
			if again, err := observe(w, i); err != nil || !again.CacheHit {
				t.Fatalf("round %d: a quiesced re-observe of text %d missed the memo (%v)", r, i, err)
			}
		}
	}
}

// TestConcurrentEditsLeaveNoStaleDecision: goroutines rewrite sources
// while others re-observe an unchanged copy of each. A decision Algorithm
// 1 made beside a source's rewrite read a generation the rewrite then
// moved past, so it is never memoised over it: once the churn quiesces,
// every hit answers what a fresh run of Algorithm 1 does.
func TestConcurrentEditsLeaveNoStaleDecision(t *testing.T) {
	tracker, err := NewTracker(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 4
	rounds := 400
	if raceEnabled {
		rounds = 80
	}
	src := func(p int) segment.ID { return segment.ID(fmt.Sprintf("src/doc#p%d", p)) }
	dst := func(p int) segment.ID { return segment.ID(fmt.Sprintf("dst/doc#p%d", p)) }
	hits := 0
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for p := 0; p < pairs; p++ {
			wg.Add(2)
			go func(p int) {
				defer wg.Done()
				if _, err := tracker.ObserveParagraph(src(p), stressText(p, r%3)); err != nil {
					t.Error(err)
				}
			}(p)
			go func(p int) {
				defer wg.Done()
				if _, err := tracker.ObserveParagraph(dst(p), stressText(p, 0)); err != nil {
					t.Error(err)
				}
			}(p)
		}
		wg.Wait()
		for p := 0; p < pairs; p++ {
			fp, err := tracker.Fingerprint(stressText(p, 0))
			if err != nil {
				t.Fatal(err)
			}
			fresh := tracker.QueryParagraphFP(fp, dst(p))
			got, err := tracker.ObserveParagraph(dst(p), stressText(p, 0))
			if err != nil {
				t.Fatal(err)
			}
			if got.CacheHit {
				hits++
			}
			if !slices.Equal(got.Sources, fresh) {
				t.Fatalf("round %d: %s answered %v (hit %v), Algorithm 1 now %v", r, dst(p), got.Sources, got.CacheHit, fresh)
			}
		}
	}
	if hits == 0 {
		t.Error("no quiesced re-observe hit the cache")
	}
}
