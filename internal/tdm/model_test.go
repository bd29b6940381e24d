package tdm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/lsds/browserflow/internal/segment"
)

// The model is the registry as it was before labels were shared: one
// private label and one stored-by set per segment, every operation written
// out naively. The registry must be indistinguishable from it through the
// public API, whatever it shares inside.

type modelLabel struct{ explicit, implicit, suppressed map[Tag]bool }

type modelService struct{ priv, conf map[Tag]bool }

type model struct {
	services map[string]*modelService
	labels   map[segment.ID]*modelLabel
	stored   map[segment.ID]map[string]bool
	owners   map[Tag]string
}

func tagSet(tags ...Tag) map[Tag]bool {
	m := make(map[Tag]bool)
	for _, t := range tags {
		m[t] = true
	}
	return m
}

func sortedTags(m map[Tag]bool) []Tag {
	out := make([]Tag, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *model) label(seg segment.ID) *modelLabel {
	l, ok := m.labels[seg]
	if !ok {
		l = &modelLabel{explicit: tagSet(), implicit: tagSet(), suppressed: tagSet()}
		m.labels[seg] = l
	}
	return l
}

func (m *model) observe(seg segment.ID, service string) bool {
	svc, ok := m.services[service]
	if !ok {
		return false
	}
	if m.stored[seg] == nil {
		m.stored[seg] = make(map[string]bool)
	}
	m.stored[seg][service] = true
	if _, ok := m.labels[seg]; !ok {
		m.label(seg).explicit = tagSet(sortedTags(svc.conf)...)
	}
	return true
}

func (m *model) refresh(seg segment.ID, sources []segment.ID) {
	l := m.label(seg)
	l.implicit = tagSet()
	for _, src := range sources {
		if sl, ok := m.labels[src]; ok {
			for t := range sl.explicit {
				if !l.explicit[t] {
					l.implicit[t] = true
				}
			}
		}
	}
}

func (m *model) suppress(seg segment.ID, tag Tag) bool {
	l, ok := m.labels[seg]
	if !ok || (!l.explicit[tag] && !l.implicit[tag]) {
		return false
	}
	l.suppressed[tag] = true
	return true
}

func (m *model) addTag(user string, seg segment.ID, tag Tag) bool {
	if owner, ok := m.owners[tag]; !ok || owner != user {
		return false
	}
	m.label(seg).explicit[tag] = true
	for name := range m.stored[seg] {
		m.services[name].priv[tag] = true
	}
	return true
}

func (m *model) grant(user, service string, tag Tag, add bool) bool {
	if owner, ok := m.owners[tag]; !ok || owner != user {
		return false
	}
	svc, ok := m.services[service]
	if !ok {
		return false
	}
	if add {
		svc.priv[tag] = true
	} else {
		delete(svc.priv, tag)
	}
	return true
}

func (m *model) check(seg segment.ID, service string) (ok bool, violating []Tag) {
	l, found := m.labels[seg]
	if !found {
		return true, nil
	}
	eff := tagSet(sortedTags(l.explicit)...)
	for t := range l.implicit {
		eff[t] = true
	}
	for _, t := range sortedTags(eff) {
		if !l.suppressed[t] && !m.services[service].priv[t] {
			violating = append(violating, t)
		}
	}
	return len(violating) == 0, violating
}

// checkSources is the release check of ad-hoc content disclosing sources:
// its label is the union of their explicit tags.
func (m *model) checkSources(sources []segment.ID, service string) (ok bool, violating []Tag) {
	union := make(map[Tag]bool)
	for _, s := range sources {
		if l, found := m.labels[s]; found {
			for t := range l.explicit {
				union[t] = true
			}
		}
	}
	for _, t := range sortedTags(union) {
		if !m.services[service].priv[t] {
			violating = append(violating, t)
		}
	}
	return len(violating) == 0, violating
}

// distinctEntries counts the distinct (label, stored-by) pairs of the
// labelled segments: the entries the registry must hold, no more, no less.
func (m *model) distinctEntries() int {
	seen := make(map[string]bool)
	for seg, l := range m.labels {
		stored := make([]string, 0, len(m.stored[seg]))
		for name := range m.stored[seg] {
			stored = append(stored, name)
		}
		sort.Strings(stored)
		seen[fmt.Sprint(sortedTags(l.explicit), sortedTags(l.implicit), sortedTags(l.suppressed), stored)] = true
	}
	return len(seen)
}

// checkEntryCounts fails unless every entry the map names has its own key
// and counts exactly the rows that name it, at least one, and every row
// names such an entry: a zero-count entry left in the table, a freed slot
// whose key stayed in the map, or a count off by one shows up here.
func checkEntryCounts(r *Registry) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	named := make([]int, len(r.entries))
	for ref := uint32(0); ref < uint32(r.tab.Len()); ref++ {
		if row := r.rows.At(ref); row != nil && *row != 0 {
			named[*row-1]++
		}
	}
	for key, i := range r.interned {
		if e := &r.entries[i]; e.key != key || e.refs == 0 || e.refs != named[i] {
			return fmt.Errorf("entry %d keyed %q counts %d rows, %d name it (its key %q)", i, key, e.refs, named[i], e.key)
		}
	}
	live := 0
	for _, n := range named {
		if n > 0 {
			live++
		}
	}
	if live != len(r.interned) {
		return fmt.Errorf("rows name %d entries, the map %d", live, len(r.interned))
	}
	return nil
}

// TestRegistryMatchesNaiveModel drives random operation sequences through
// a registry and the model, and after every step compares everything
// observable about every segment. A shared value mutated in place, a
// reference count off by one, or stale cached effective tags show up as
// some *other* segment's label or verdict changing. Readers run
// concurrently throughout so `-race` sees the sharing.
func TestRegistryMatchesNaiveModel(t *testing.T) {
	const segments = 50
	var (
		services = []string{"wiki", "itool", "docs", "notes"}
		users    = []string{"alice", "bob"}
		custom   = []Tag{"c0", "c1", "c2", "c3"}
		anyTag   = append([]Tag{"tw", "ti", "tn"}, custom...)
		segs     = make([]segment.ID, segments)
	)
	for i := range segs {
		segs[i] = segment.ID(fmt.Sprintf("doc/%d#p%d", i/5, i%5))
	}
	steps := 300
	if testing.Short() {
		steps = 120
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := &model{
				services: map[string]*modelService{
					"wiki":  {priv: tagSet("tw"), conf: tagSet("tw")},
					"itool": {priv: tagSet("ti"), conf: tagSet("ti")},
					"docs":  {priv: tagSet(), conf: tagSet()},
					"notes": {priv: tagSet("tn"), conf: tagSet()},
				},
				labels: make(map[segment.ID]*modelLabel),
				stored: make(map[segment.ID]map[string]bool),
				owners: make(map[Tag]string),
			}
			r := NewRegistry(nil, nil)
			for _, name := range services {
				svc := m.services[name]
				mustRegister(t, r, name, NewTagSet(sortedTags(svc.priv)...), NewTagSet(sortedTags(svc.conf)...))
			}

			// Concurrent readers: no assertions of their own beyond not
			// racing and not crashing; the step comparisons below are the
			// oracle.
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for g := 0; g < 2; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					rrng := rand.New(rand.NewSource(seed*100 + int64(g)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						seg := segs[rrng.Intn(segments)]
						if l := r.Label(seg); l != nil {
							l.AddExplicit("scribble") // a copy: must reach nobody
						}
						_, _, _ = r.CheckRelease(seg, services[rrng.Intn(len(services))])
						_ = r.StoredBy(seg)
						if rrng.Intn(16) == 0 {
							_ = r.Export()
						}
						_ = r.DistinctLabels()
					}
				}(g)
			}
			defer func() {
				close(stop)
				readers.Wait()
			}()

			for step := 0; step < steps; step++ {
				seg := segs[rng.Intn(segments)]
				user := users[rng.Intn(len(users))]
				service := services[rng.Intn(len(services))]
				var desc string
				// apply runs one operation on the registry and fails unless
				// it agrees with the model's outcome.
				apply := func(want bool, op func(r *Registry) error) {
					t.Helper()
					if err := op(r); (err == nil) != want {
						t.Fatalf("step %d %s: err=%v, model ok=%v", step, desc, err, want)
					}
				}
				switch k := rng.Intn(20); {
				case k < 6:
					desc = fmt.Sprintf("ObserveSegment(%s, %s)", seg, service)
					apply(m.observe(seg, service), func(r *Registry) error { return r.ObserveSegment(seg, service) })
				case k < 10:
					sources := make([]segment.ID, rng.Intn(4))
					for i := range sources {
						sources[i] = segs[rng.Intn(segments)]
					}
					desc = fmt.Sprintf("RefreshImplicit(%s, %v)", seg, sources)
					m.refresh(seg, sources)
					apply(true, func(r *Registry) error { r.RefreshImplicit(seg, sources); return nil })
				case k < 12:
					tags := make([]Tag, rng.Intn(3))
					for i := range tags {
						tags[i] = anyTag[rng.Intn(len(anyTag))]
					}
					desc = fmt.Sprintf("UpsertExplicit(%s, %v)", seg, tags)
					m.label(seg).explicit = tagSet(tags...)
					apply(true, func(r *Registry) error { r.UpsertExplicit(seg, tags); return nil })
				case k < 14:
					tag := anyTag[rng.Intn(len(anyTag))]
					desc = fmt.Sprintf("SuppressTag(%s, %s)", seg, tag)
					apply(m.suppress(seg, tag), func(r *Registry) error { return r.SuppressTag(user, seg, tag, "model") })
				case k < 15:
					tag := custom[rng.Intn(len(custom))]
					desc = fmt.Sprintf("AllocateTag(%s, %s)", user, tag)
					_, taken := m.owners[tag]
					if !taken {
						m.owners[tag] = user
					}
					apply(!taken, func(r *Registry) error { return r.AllocateTag(user, tag) })
				case k < 17:
					tag := custom[rng.Intn(len(custom))]
					desc = fmt.Sprintf("AddTagToSegment(%s, %s, %s)", user, seg, tag)
					apply(m.addTag(user, seg, tag), func(r *Registry) error { return r.AddTagToSegment(user, seg, tag) })
				case k < 19:
					tag, add := custom[rng.Intn(len(custom))], rng.Intn(2) == 0
					desc = fmt.Sprintf("Grant/Revoke(%s, %s, %s, add=%v)", user, service, tag, add)
					apply(m.grant(user, service, tag, add), func(r *Registry) error {
						if add {
							return r.GrantTag(user, service, tag)
						}
						return r.RevokeTag(user, service, tag)
					})
				default:
					desc = "Export→Import"
					binary := rng.Intn(2) == 0 // through the state image's codec
					apply(true, func(r *Registry) error {
						data := r.Export()
						if binary {
							var err error
							table := halfTable(data)
							if data, err = DecodeExportData(data.AppendBinary(nil, table), table); err != nil {
								return err
							}
						}
						r.Import(data)
						return nil
					})
				}

				if got, want := r.DistinctLabels(), m.distinctEntries(); got != want {
					t.Fatalf("step %d %s: holds %d entries for %d distinct (label, stored-by) pairs", step, desc, got, want)
				}
				if err := checkEntryCounts(r); err != nil {
					t.Fatalf("step %d %s: %v", step, desc, err)
				}
				exported := make(map[segment.ID]LabelRecord)
				data := r.Export()
				for _, s := range data.Segments {
					exported[s.Seg] = data.Labels[s.Label]
				}
				if len(exported) != len(m.labels) {
					t.Fatalf("step %d %s: exports %d labels, model has %d", step, desc, len(exported), len(m.labels))
				}
				for _, s := range segs {
					ml, known := m.labels[s]
					got := r.Label(s)
					if (got != nil) != known {
						t.Fatalf("step %d %s: %s known=%v, model %v", step, desc, s, got != nil, known)
					}
					wantStored := make([]string, 0)
					for name := range m.stored[s] {
						wantStored = append(wantStored, name)
					}
					sort.Strings(wantStored)
					if stored := r.StoredBy(s); !reflect.DeepEqual(stored, wantStored) {
						t.Fatalf("step %d %s: StoredBy(%s)=%v, model %v", step, desc, s, stored, wantStored)
					}
					if known {
						wantRec := LabelRecord{Explicit: sortedTags(ml.explicit), Implicit: sortedTags(ml.implicit), Suppressed: sortedTags(ml.suppressed)}
						gotRec := LabelRecord{Explicit: got.Explicit().Sorted(), Implicit: got.Implicit().Sorted(), Suppressed: got.Suppressed().Sorted()}
						if !reflect.DeepEqual(gotRec, wantRec) {
							t.Fatalf("step %d %s: Label(%s)=%+v, model %+v", step, desc, s, gotRec, wantRec)
						}
						if len(wantStored) > 0 {
							wantRec.StoredBy = wantStored
						}
						if !reflect.DeepEqual(exported[s], wantRec) {
							t.Fatalf("step %d %s: Export[%s]=%+v, model %+v", step, desc, s, exported[s], wantRec)
						}
					}
					for _, dest := range services {
						wantOK, wantViol := m.check(s, dest)
						ok, viol, err := r.CheckRelease(s, dest)
						if err != nil || ok != wantOK || !reflect.DeepEqual(viol, wantViol) {
							t.Fatalf("step %d %s: CheckRelease(%s, %s)=(%v, %v, %v), model (%v, %v)", step, desc, s, dest, ok, viol, err, wantOK, wantViol)
						}
						if !known {
							continue
						}
						// The ad-hoc check of the same effective tags answers alike.
						ok, viol, err = r.CheckTags(got.Effective(), dest)
						if err != nil || ok != wantOK || !reflect.DeepEqual(viol, wantViol) {
							t.Fatalf("step %d %s: CheckTags(%s, %s)=(%v, %v, %v), model (%v, %v)", step, desc, s, dest, ok, viol, err, wantOK, wantViol)
						}
					}
				}
				// Ad-hoc text disclosing a random few segments, known or
				// not, repeats allowed.
				sources := make([]segment.ID, rng.Intn(4))
				for i := range sources {
					sources[i] = segs[rng.Intn(segments)]
				}
				for _, dest := range services {
					wantOK, wantViol := m.checkSources(sources, dest)
					ok, viol, err := r.CheckSources(len(sources), func(i int) segment.ID { return sources[i] }, dest)
					if err != nil || ok != wantOK || !reflect.DeepEqual(viol, wantViol) {
						t.Fatalf("step %d %s: CheckSources(%v, %s)=(%v, %v, %v), model (%v, %v)", step, desc, sources, dest, ok, viol, err, wantOK, wantViol)
					}
				}
			}
		})
	}
}
