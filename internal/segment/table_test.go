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

// TestTableConcurrentIntern: goroutines interning overlapping IDs agree on
// every ref, and the refs are exactly 0..n-1 (run with -race).
func TestTableConcurrentIntern(t *testing.T) {
	var tab Table
	const workers, ids = 4, 3000
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				j := (i*7 + w*1000) % ids
				r := tab.Intern(ID(fmt.Sprintf("doc%d#p%d", j/50, j%50)))
				if got[w] == nil {
					got[w] = make([]uint32, ids)
				}
				got[w][j] = r
				if id := tab.ID(r); id != ID(fmt.Sprintf("doc%d#p%d", j/50, j%50)) {
					t.Errorf("ID(%d) = %q", r, id)
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
	}
	if tab.Len() != ids {
		t.Fatalf("Len = %d, want %d", tab.Len(), ids)
	}
}
