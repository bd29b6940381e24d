package segment

import (
	"fmt"
	"sync"
	"testing"
)

// TestTableInterns: refs are dense in first-seen order, stable, and name
// their IDs; Lookup never interns; Reset starts the numbering over.
func TestTableInterns(t *testing.T) {
	var tab Table
	if _, ok := tab.Lookup("a"); ok || tab.Len() != 0 {
		t.Fatal("empty table knows an ID")
	}
	ids := []ID{"wiki/a#p0", "wiki/a#p1", "wiki/a"}
	for i, id := range ids {
		if r := tab.Intern(id); r != uint32(i) {
			t.Fatalf("Intern(%s) = %d, want %d", id, r, i)
		}
	}
	for i, id := range ids {
		if r := tab.Intern(id); r != uint32(i) || tab.ID(r) != id {
			t.Fatalf("re-Intern(%s) = %d naming %q, want %d", id, r, tab.ID(r), i)
		}
		if r, ok := tab.Lookup(id); !ok || r != uint32(i) {
			t.Fatalf("Lookup(%s) = %d, %v", id, r, ok)
		}
	}
	if _, ok := tab.Lookup("unknown"); ok || tab.Len() != len(ids) {
		t.Fatalf("Lookup interned: Len = %d", tab.Len())
	}
	tab.Reset()
	if _, ok := tab.Lookup(ids[0]); ok || tab.Len() != 0 {
		t.Fatal("Reset kept an ID")
	}
	if r := tab.Intern(ids[2]); r != 0 {
		t.Fatalf("first Intern after Reset = %d, want 0", r)
	}
}

// TestColumnPages: a row's page is made at its first Make and every row of
// it starts zero; rows of other pages stay unmade; rows survive the
// directory growing past them.
func TestColumnPages(t *testing.T) {
	var c Column[uint64]
	if c.At(0) != nil {
		t.Fatal("empty column has a row")
	}
	const far = 5<<pageBits + 7
	*c.Make(far) = 42
	if c.At(0) != nil || c.At(far-pageMask-1) != nil {
		t.Fatal("Make of one row made another page")
	}
	if row := c.At(far - 1); row == nil || *row != 0 {
		t.Fatal("a fresh page's rows are not zero")
	}
	*c.Make(3) = 7
	*c.Make(40 << pageBits) = 9 // grows the directory
	if *c.At(far) != 42 || *c.At(3) != 7 || *c.At(40 << pageBits) != 9 {
		t.Fatal("rows lost across directory growth")
	}
	c.Reset()
	if c.At(far) != nil {
		t.Fatal("Reset kept a page")
	}
}

// probes counts the slots a lookup of id visits.
func probes(tab *Table, id ID) int {
	n := 0
	for i := tab.home(Key(id)); ; {
		n++
		if s := tab.index[i]; s == 0 || tab.ID(s-1) == id {
			return n
		}
		if i++; i == len(tab.index) {
			i = 0
		}
	}
}

// TestTableSpreadsOnePartition: a partition node's table holds the IDs of
// one contiguous range of keys only — here a quarter of the keyspace — and
// a lookup still visits about as many slots as linear probing at the
// table's fill predicts for uniform keys (2.5 for a hit and 8.5 for a miss
// at three quarters full), not a crowded quarter of the table.
func TestTableSpreadsOnePartition(t *testing.T) {
	var tab Table
	var held, absent []ID
	for i := 0; len(absent) < 20000; i++ {
		id := ID(fmt.Sprintf("wiki/b%03d#p%d", i/40, i%40))
		switch {
		case Key(id) < 3<<30:
		case len(held) < 20000:
			held = append(held, id)
			tab.Intern(id)
		default:
			absent = append(absent, id)
		}
	}
	hits, misses := 0, 0
	for i := range held {
		hits += probes(&tab, held[i])
		misses += probes(&tab, absent[i])
	}
	hit, miss := float64(hits)/float64(len(held)), float64(misses)/float64(len(absent))
	t.Logf("%d IDs in %d slots: %.2f slots a hit, %.2f a miss", len(held), len(tab.index), hit, miss)
	if hit > 3 || miss > 9 {
		t.Errorf("a hit visits %.2f slots and a miss %.2f, want ≤ 3 and ≤ 9", hit, miss)
	}
}

// TestTableConcurrentIntern: goroutines interning overlapping IDs agree on
// every ref, and the refs are exactly 0..n-1; lookups running beside them
// while the index grows through many resizes find every ID at the ref it
// was interned at, and never an absent one (run with -race).
func TestTableConcurrentIntern(t *testing.T) {
	var tab Table
	const workers, ids = 4, 3000
	id := func(j int) ID { return ID(fmt.Sprintf("doc%d#p%d", j/50, j%50)) }
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]uint32, ids)
			for i := 0; i < ids; i++ {
				j := (i*7 + w*1000) % ids
				r := tab.Intern(id(j))
				got[w][j] = r
				if tab.ID(r) != id(j) {
					t.Errorf("ID(%d) = %q", r, tab.ID(r))
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				j := (i*104729 + w*31) % ids
				if r, ok := tab.Lookup(id(j)); ok && tab.ID(r) != id(j) {
					t.Errorf("Lookup(%s) = %d naming %q", id(j), r, tab.ID(r))
				}
				if _, ok := tab.Lookup(ID(fmt.Sprintf("absent%d", j))); ok {
					t.Errorf("absent%d found", j)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make([]bool, ids)
	for j := 0; j < ids; j++ {
		for w := 1; w < workers; w++ {
			if got[w][j] != got[0][j] {
				t.Fatalf("ID %d interned as %d and %d", j, got[0][j], got[w][j])
			}
		}
		if r := got[0][j]; r >= ids || seen[r] {
			t.Fatalf("ref %d out of range or issued twice", r)
		}
		seen[got[0][j]] = true
		if r, ok := tab.Lookup(id(j)); !ok || r != got[0][j] {
			t.Fatalf("Lookup(%s) = %d, %v, want %d", id(j), r, ok, got[0][j])
		}
	}
	if tab.Len() != ids {
		t.Fatalf("Len = %d, want %d", tab.Len(), ids)
	}
}

// chainIDs returns n IDs whose partition keys, after the index's multiply,
// share their top 16 bits, so their homes coincide at every index capacity
// well below 2^16: one probe chain.
func chainIDs(n int) []ID {
	var ids []ID
	want := Key("chain0") * 0x9e3779b1 >> 16
	for i := 0; len(ids) < n; i++ {
		if id := ID(fmt.Sprintf("chain%d", i)); Key(id)*0x9e3779b1>>16 == want {
			ids = append(ids, id)
		}
	}
	return ids
}

// tableModel drives a Table and a map through the same interns, lookups
// and resets, checking every answer and the table's whole contents.
type tableModel struct {
	t   *testing.T
	tab Table
	m   map[ID]uint32
}

func (tm *tableModel) intern(id ID) {
	tm.t.Helper()
	want, ok := tm.m[id]
	if !ok {
		want = uint32(len(tm.m))
		tm.m[id] = want
	}
	if got := tm.tab.Intern(id); got != want {
		tm.t.Fatalf("Intern(%q) = %d, want %d", id, got, want)
	}
}

func (tm *tableModel) lookup(id ID) {
	tm.t.Helper()
	want, wok := tm.m[id]
	if got, ok := tm.tab.Lookup(id); ok != wok || got != want {
		tm.t.Fatalf("Lookup(%q) = %d, %v; want %d, %v", id, got, ok, want, wok)
	}
}

func (tm *tableModel) reset() {
	tm.tab.Reset()
	clear(tm.m)
}

func (tm *tableModel) check() {
	tm.t.Helper()
	if tm.tab.Len() != len(tm.m) {
		tm.t.Fatalf("Len = %d, want %d", tm.tab.Len(), len(tm.m))
	}
	for id, r := range tm.m {
		tm.lookup(id)
		if got := tm.tab.ID(r); got != id {
			tm.t.Fatalf("ID(%d) = %q, want %q", r, got, id)
		}
	}
	used := 0
	for _, s := range tm.tab.index {
		if s != 0 {
			used++
		}
	}
	if used != len(tm.m) || len(tm.tab.index) > 0 && used > len(tm.tab.index)*3/4 {
		tm.t.Fatalf("index holds %d of %d slots for %d IDs", used, len(tm.tab.index), len(tm.m))
	}
}

// TestTableMatchesMap holds the flat index to a map: IDs forced onto one
// probe chain, growth across several resizes, Reset and re-interning, and
// lookups of absent IDs — chain twins and plain ones — at every step.
func TestTableMatchesMap(t *testing.T) {
	tm := &tableModel{t: t, m: map[ID]uint32{}}
	chain := chainIDs(12)
	absent := append(chainIDs(16)[12:], "absent", "")
	for _, id := range absent {
		tm.lookup(id)
	}
	if tm.tab.index != nil {
		t.Fatal("a lookup made the index")
	}
	for round := 0; round < 2; round++ {
		for i, id := range chain {
			tm.intern(id)
			if i == 0 {
				for _, other := range chain[1:] {
					if tm.tab.home(Key(other)) != tm.tab.home(Key(id)) {
						t.Fatalf("chain IDs %q and %q have different homes", id, other)
					}
				}
			}
			for _, a := range absent {
				tm.lookup(a)
			}
		}
		tm.check()
		sizes := map[int]bool{len(tm.tab.index): true}
		for i := 0; i < 200; i++ {
			tm.intern(ID(fmt.Sprintf("doc%d#p%d", i/7, i%7)))
			tm.intern(chain[i%len(chain)]) // again: the existing ref
			sizes[len(tm.tab.index)] = true
			for _, a := range absent {
				tm.lookup(a)
			}
		}
		tm.check()
		if len(sizes) < 3 {
			t.Fatalf("round %d: the index took sizes %v, want at least two resizes", round, sizes)
		}
		tm.reset()
		tm.check()
		if tm.tab.index != nil {
			t.Fatal("Reset kept the index")
		}
		for _, id := range chain {
			tm.lookup(id)
		}
	}
}

// FuzzTableModel decodes its input into interns, lookups and resets over
// a pool of IDs that includes one probe chain, and holds the table to a
// map after every operation.
func FuzzTableModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 64, 65, 128, 0, 1})
	f.Add([]byte{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 74, 75, 192, 10, 74})
	pool := chainIDs(8)
	for i := 0; i < 56; i++ {
		pool = append(pool, ID(fmt.Sprintf("wiki/doc%d#p%d", i/8, i%8)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tm := &tableModel{t: t, m: map[ID]uint32{}}
		for _, b := range data {
			id := pool[int(b)%len(pool)]
			switch b >> 6 {
			case 0, 1:
				tm.intern(id)
			case 2:
				tm.lookup(id)
			case 3:
				tm.reset()
			}
		}
		tm.check()
	})
}
