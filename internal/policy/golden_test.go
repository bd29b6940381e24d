package policy_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/expt"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/policyfile"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// The policy golden suite holds an engine built from the compiled seed
// web-app policy to the two references of its verdicts: every release
// decision and its violating tags must be what Label.ReleasableTo gives
// for the label the registry holds (or, for ad-hoc text, the union of its
// sources' explicit tags), and the sources are cross-checked against
// expt.SeedTracker, the reference Algorithm 1 engine, so a divergence in
// either layer is caught where it happens.

const (
	goldenWikiPlan   = "The 2027 acquisition plan targets Initech for three hundred million dollars pending diligence on their flux capacitor patents and the retention of their core engineering group."
	goldenWikiBudget = "Quarterly budget review: the platform group is over plan by twelve percent, driven by the new datacenter lease and unbudgeted compliance tooling for the audit."
	goldenIToolPerf  = "Performance review draft for the infrastructure team lead: exceeds expectations on incident response, needs development on cross-team communication and delegation."
	goldenDocsIntro  = "This public engineering blog post describes our migration to an incremental winnowing pipeline and the throughput lessons we learned along the way."
)

// goldenOp is one scripted engine call.
type goldenOp struct {
	kind    string // observe, check, upload, suppress, label
	service string
	seg     string
	text    string
	dest    string
	user    string
	tag     string
	why     string
	doc     bool
}

func goldenScripts() map[string][]goldenOp {
	return map[string][]goldenOp{
		// A user pastes confidential wiki content into a public docs page.
		"wiki-paste": {
			{kind: "observe", service: "wiki", seg: "wiki/acquisitions#p0", text: goldenWikiPlan},
			{kind: "observe", service: "wiki", seg: "wiki/budget#p0", text: goldenWikiBudget},
			{kind: "observe", service: "docs", seg: "docs/blog-draft#p0", text: goldenDocsIntro},
			{kind: "observe", service: "docs", seg: "docs/blog-draft#p1", text: goldenWikiPlan},
			{kind: "check", dest: "docs", text: goldenWikiPlan},
			{kind: "check", dest: "docs", text: goldenDocsIntro},
			{kind: "label", seg: "docs/blog-draft#p1"},
			{kind: "upload", seg: "docs/blog-draft#p1", dest: "docs"},
			{kind: "observe", service: "docs", seg: "docs/blog-draft#p1", text: goldenWikiPlan}, // decision cache hit
		},
		// An itool performance review copied into notes, then declassified.
		"itool-notes": {
			{kind: "observe", service: "itool", seg: "itool/reviews#p0", text: goldenIToolPerf},
			{kind: "observe", service: "notes", seg: "notes/todo#p0", text: goldenIToolPerf},
			{kind: "label", seg: "notes/todo#p0"},
			{kind: "upload", seg: "notes/todo#p0", dest: "notes"},
			{kind: "suppress", user: "alice", seg: "itool/reviews#p0", tag: "ti", why: "review published"},
			{kind: "label", seg: "itool/reviews#p0"},
			{kind: "upload", seg: "itool/reviews#p0", dest: "notes"},
		},
		// Document-granularity tracking across edits.
		"docs-edits": {
			{kind: "observe", service: "wiki", seg: "wiki/roadmap", text: goldenWikiPlan + " " + goldenWikiBudget, doc: true},
			{kind: "observe", service: "docs", seg: "docs/batch#p0", text: goldenDocsIntro, doc: true},
			{kind: "observe", service: "docs", seg: "docs/batch#p1", text: goldenWikiBudget, doc: true},
			{kind: "observe", service: "docs", seg: "docs/summary", text: goldenWikiPlan + " " + goldenDocsIntro, doc: true},
			{kind: "check", dest: "docs", text: goldenWikiBudget},
			{kind: "label", seg: "docs/summary"},
		},
	}
}

// loadSeedPolicy compiles the shipping seed-webapps fixture.
func loadSeedPolicy(t testing.TB) *policyfile.Compiled {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "policyfile", "testdata", "seed-webapps.json"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := policyfile.ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := policyfile.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newCompiledEngine builds an engine whose services carry the compiled
// policy's labels.
func newCompiledEngine(t testing.TB, c *policyfile.Compiled) *policy.Engine {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.DefaultConfig(),
		Tpar:        c.Source.Tpar,
		Tdoc:        c.Source.Tdoc,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(tracker.Table(), audit.NewLog())
	for _, rs := range c.Services {
		if err := registry.RegisterService(rs.Name, tdm.NewTagSet(rs.Privilege...), tdm.NewTagSet(rs.Confidentiality...)); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := policy.NewEngine(tracker, registry, c.Source.PolicyMode())
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// playGolden executes one op and renders the outcome as bytes: the
// JSON-marshalled verdict (or error string), so any divergence — decision,
// violating tags, sources, cache bit — shows up in the comparison.
func playGolden(t *testing.T, e *policy.Engine, o goldenOp) string {
	t.Helper()
	render := func(v policy.Verdict, err error) string {
		if err != nil {
			return "err: " + err.Error()
		}
		b, merr := json.Marshal(v)
		if merr != nil {
			t.Fatal(merr)
		}
		return string(b)
	}
	switch o.kind {
	case "observe":
		if o.doc {
			return render(e.ObserveDocumentEdit(segment.ID(o.seg), o.service, o.text))
		}
		return render(e.ObserveEdit(segment.ID(o.seg), o.service, o.text))
	case "check":
		return render(e.CheckText(o.text, o.dest))
	case "upload":
		return render(e.CheckUpload(segment.ID(o.seg), o.dest))
	case "suppress":
		if err := e.Suppress(o.user, segment.ID(o.seg), tdm.Tag(o.tag), o.why); err != nil {
			return "err: " + err.Error()
		}
		return "suppressed"
	case "label":
		label := e.Registry().Label(segment.ID(o.seg))
		if label == nil {
			return "label: <none>"
		}
		return "label: " + label.String()
	default:
		t.Fatalf("unknown op kind %q", o.kind)
		return ""
	}
}

// referenceRelease is Label.ReleasableTo's answer for the release o's
// verdict v decided: of o.seg's label for an observe or an upload, of the
// union of v's sources' explicit tags for an ad-hoc check.
func referenceRelease(t *testing.T, e *policy.Engine, o goldenOp, v policy.Verdict) (bool, []tdm.Tag) {
	t.Helper()
	svc, err := e.Registry().Service(v.Service)
	if err != nil {
		t.Fatal(err)
	}
	label := tdm.NewLabel()
	if o.kind == "check" {
		implicit := tdm.NewTagSet()
		for _, src := range v.Sources {
			if l := e.Registry().Label(src.Seg); l != nil {
				implicit = implicit.Union(l.Explicit())
			}
		}
		label.SetImplicit(implicit)
	} else if l := e.Registry().Label(segment.ID(o.seg)); l != nil {
		label = l
	}
	return label.ReleasableTo(svc.Privilege)
}

// TestGoldenReleaseVerdicts replays each scenario against an engine built
// from the compiled policy, requiring every verdict to match
// Label.ReleasableTo's and every observe's attributions to match the
// expt.SeedTracker reference.
func TestGoldenReleaseVerdicts(t *testing.T) {
	c := loadSeedPolicy(t)
	for name, script := range goldenScripts() {
		t.Run(name, func(t *testing.T) {
			e := newCompiledEngine(t, c)
			seed := expt.NewSeedTracker(disclosure.Params{
				Fingerprint: fingerprint.DefaultConfig(),
				Tpar:        c.Source.Tpar,
				Tdoc:        c.Source.Tdoc,
			})
			for i, o := range script {
				got := playGolden(t, e, o)
				if o.kind != "observe" && o.kind != "upload" && o.kind != "check" {
					continue
				}
				var v policy.Verdict
				if err := json.Unmarshal([]byte(got), &v); err != nil {
					t.Fatalf("step %d: verdict rendering not JSON: %v", i, err)
				}
				ok, violating := referenceRelease(t, e, o, v)
				if (v.Decision == policy.DecisionAllow) != ok || !reflect.DeepEqual(v.Violating, violating) {
					t.Errorf("step %d (%s %s%s): verdict %q, reference ok=%v violating=%v",
						i, o.kind, o.seg, o.dest, got, ok, violating)
				}
				if o.kind != "observe" {
					continue
				}
				// Independent oracle: the seed reference tracker must
				// attribute the same sources the engine reported.
				g := segment.GranularityParagraph
				if o.doc {
					g = segment.GranularityDocument
				}
				report, err := seed.Observe(segment.ID(o.seg), o.text, g)
				if err != nil {
					t.Fatal(err)
				}
				if len(report.Sources) != len(v.Sources) {
					t.Fatalf("step %d: seed reference found %d sources, engine found %d (%v vs %v)",
						i, len(report.Sources), len(v.Sources), report.Sources, v.Sources)
				}
				for j := range report.Sources {
					if report.Sources[j].Seg != v.Sources[j].Seg {
						t.Errorf("step %d source %d: seed=%s engine=%s", i, j, report.Sources[j].Seg, v.Sources[j].Seg)
					}
				}
			}
		})
	}
}

// TestGoldenObserveCacheHitAllocs pins the steady-state cache-hit
// ObserveEdit of an engine built from the compiled policy. A cache-hit
// observe owes the heap exactly what it returns or hands to a journal: the
// owned fingerprint (its struct and its hash slice; this segment has no
// sources, and the verdict is returned by value). The fingerprinting
// buffers come from the tracker's scratch pool and the registry's
// keystroke path, release check included, allocates nothing. Was 26 when
// every call built a fresh Scratch, a positioned fingerprint and a label
// clone.
func TestGoldenObserveCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := newCompiledEngine(t, loadSeedPolicy(t))
	seg := segment.ID("wiki/steady#p0")
	// Warm up: label the segment, create the decision-cache entry, grow
	// the pooled scratch.
	for i := 0; i < 2; i++ {
		if _, err := e.ObserveEdit(seg, "wiki", goldenWikiPlan); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		v, err := e.ObserveEdit(seg, "wiki", goldenWikiPlan)
		if err != nil {
			t.Fatal(err)
		}
		if !v.CacheHit || v.Decision != policy.DecisionAllow {
			t.Fatalf("steady state broken: %+v", v)
		}
	})
	if allocs > 2 {
		t.Errorf("cache-hit ObserveEdit allocates %.1f objects/op, want ≤ 2 (the owned fingerprint)", allocs)
	}
}

// TestGoldenCheckUploadAllocFree pins the pure release check — the
// interception path that carries no observe bookkeeping — at zero
// allocations on the allow outcome.
func TestGoldenCheckUploadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := loadSeedPolicy(t)
	e := newCompiledEngine(t, c)
	seg := segment.ID("wiki/steady#p0")
	if _, err := e.ObserveEdit(seg, "wiki", goldenWikiPlan); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		v, err := e.CheckUpload(seg, "wiki")
		if err != nil || v.Decision != policy.DecisionAllow {
			t.Fatalf("v=%+v err=%v", v, err)
		}
	})
	if allocs != 0 {
		t.Errorf("CheckUpload allocates %.1f objects/op, want 0", allocs)
	}
}

// TestGoldenCheckTextAllocs pins the ad-hoc text check — the form path —
// with two disclosure sources on the allow outcome. It allocates one
// object, the verdict's copy of the sources: the sources' explicit tags
// are unioned and checked under one registry read lock without building a
// set. The bound of 3 leaves room for a GC emptying the scratch pool
// mid-run; it was 15 while each source's label was deep-copied and
// re-unioned into a fresh set.
func TestGoldenCheckTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := newCompiledEngine(t, loadSeedPolicy(t))
	for seg, text := range map[segment.ID]string{"wiki/plan#p0": goldenWikiPlan, "wiki/budget#p0": goldenWikiBudget} {
		if _, err := e.ObserveEdit(seg, "wiki", text); err != nil {
			t.Fatal(err)
		}
	}
	text := goldenWikiPlan + " " + goldenWikiBudget
	allocs := testing.AllocsPerRun(200, func() {
		v, err := e.CheckText(text, "wiki")
		if err != nil || v.Decision != policy.DecisionAllow || len(v.Sources) != 2 {
			t.Fatalf("v=%+v err=%v", v, err)
		}
	})
	if allocs > 3 {
		t.Errorf("CheckText with two sources allocates %.1f objects/op, want ≤ 3", allocs)
	}
}

// TestEngineHeapBudget is the memory gate on the path that deploys: 4 000
// generated ~600-byte paragraphs through ObserveEdit on a policy-file engine
// must retain at most 13.7 B of heap per distinct hash (11.8 at the time
// of writing; the same ingest cost ≈ 105 before fingerprints were
// hash-only, DBpar kept one copy of each hash and segment labels were
// shared, 51.6 before both index tiers stored a hash's first holder inline,
// 31.7 while each owner of per-segment state kept a map of its own, 24.5
// while a compacted group stored its full 32-bit hash, and 23.1 while a
// group's ref and stamp were two uint32 columns and the head a builtin
// map, 16.7 while run stamps were distances below the clock and the
// segment table's index a builtin map, 14.5 while a shard merged its
// head only once it reached a quarter of its run, and 12.8 while the
// tracker kept its decisions in a cache column of its own beside DBpar).
// What a retained byte is spent on is tabulated in DESIGN.md "Corpus
// scale".
func TestEngineHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	gen := dataset.NewTextGen(11, 20000)
	texts := make([]string, 4000)
	for i := range texts {
		var sb strings.Builder
		for sb.Len() < 600 {
			sb.WriteString(gen.Sentence(8, 16))
			sb.WriteByte(' ')
		}
		texts[i] = sb.String()
	}
	segs := make([]segment.ID, len(texts))
	for i := range segs {
		segs[i] = segment.ID(fmt.Sprintf("wiki/book%d#p%d", i/50, i%50))
	}
	e := newCompiledEngine(t, loadSeedPolicy(t))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i, text := range texts {
		service := "wiki"
		if (i/50)%2 == 1 {
			service = "itool"
		}
		if _, err := e.ObserveEdit(segs[i], service, text); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	stats := e.Tracker().Paragraphs().Stats()
	perHash := float64(after-before) / float64(stats.DistinctHashes)
	t.Logf("%d segments, %d distinct hashes, heap +%.1f MB: %.1f B/hash (%d distinct labels)",
		stats.Segments, stats.DistinctHashes, float64(after-before)/1e6, perHash, e.Registry().DistinctLabels())
	if perHash > 13.7 {
		t.Errorf("engine retains %.1f B per distinct hash, budget 13.7", perHash)
	}
	runtime.KeepAlive(texts)
}

// TestMixedGranularityHeap bounds what the engine retains per segment when
// the owners of per-segment state hold different segments: N short
// paragraphs, N/20 documents (a database that holds few of the segment
// table's refs) and N/10 shadow labels set through UpsertExplicit
// (registry-only segments, as a partition node mirrors remote sources). The
// texts are one sentence, so per-segment state, not postings, dominates:
// ≤ 242 B per segment (206.3 measured; 240.9 while the tracker kept its
// decisions in a cache column of its own and each DBpar row its digest
// share, 258 while a shard merged its head
// only once it reached a quarter of its run, 286 while the segment table's
// index was a builtin map, 344 while a run group's ref and stamp were two
// uint32 columns and the head a builtin map, 521 while every owner kept a
// map of its own). A document database whose rows
// were dense over every ref, not reached through 4-byte slots, would add
// ≈ 44 B and fail it.
func TestMixedGranularityHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	// Every 20th paragraph's document is observed and every 10th gets a
	// shadow label right after it, so each owner's segments spread over
	// the whole ref range.
	const n = 20000
	gen := dataset.NewTextGen(13, 20000)
	texts := make([]string, n)
	for i := range texts {
		texts[i] = gen.Sentence(14, 20)
	}
	e := newCompiledEngine(t, loadSeedPolicy(t))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i, text := range texts {
		if _, err := e.ObserveEdit(segment.ID(fmt.Sprintf("wiki/book%d#p%d", i/20, i%20)), "wiki", text); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			if _, err := e.ObserveDocumentEdit(segment.ID(fmt.Sprintf("wiki/book%d", i/20)), "wiki", text); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			e.Registry().UpsertExplicit(segment.ID(fmt.Sprintf("itool/remote%d#p0", i/10)), []tdm.Tag{"ti"})
		}
	}
	after := heap()
	p, d := e.Tracker().Paragraphs().Stats(), e.Tracker().Documents().Stats()
	segs := n + n/20 + n/10
	perSeg := float64(after-before) / float64(segs)
	t.Logf("%d paragraphs, %d documents, %d shadow labels; %d + %d distinct hashes; heap +%.2f MB: %.1f B/segment",
		p.Segments, d.Segments, n/10, p.DistinctHashes, d.DistinctHashes, float64(after-before)/1e6, perSeg)
	if perSeg > 242 {
		t.Errorf("engine retains %.1f B per segment, budget 242", perSeg)
	}
	runtime.KeepAlive(texts)
}
