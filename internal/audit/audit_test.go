package audit

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
)

var epoch = time.Date(2016, 12, 12, 9, 0, 0, 0, time.UTC)

func TestAppendAssignsSeqAndTime(t *testing.T) {
	clk := clock.NewFake(epoch)
	l := NewLogWithClock(clk)
	a := l.Append(Entry{User: "alice", Action: ActionSuppress, Tag: "ti"})
	clk.Advance(time.Second)
	b := l.Append(Entry{User: "bob", Action: ActionAllocate, Tag: "tn"})
	if a.Seq != 1 || b.Seq != 2 {
		t.Errorf("seqs=%d,%d, want 1,2", a.Seq, b.Seq)
	}
	if !b.Time.After(a.Time) {
		t.Error("times not monotone")
	}
	if l.Len() != 2 {
		t.Errorf("Len=%d, want 2", l.Len())
	}
}

func TestFilters(t *testing.T) {
	l := NewLogWithClock(clock.NewFake(epoch))
	l.Append(Entry{User: "alice", Action: ActionSuppress, Tag: "ti", Justification: "sharing with legal"})
	l.Append(Entry{User: "bob", Action: ActionSuppress, Tag: "tw"})
	l.Append(Entry{User: "alice", Action: ActionGrant, Tag: "tw", Service: "itool"})

	byUser := func(user string) []Entry { return l.Filter(func(e Entry) bool { return e.User == user }) }
	if got := len(byUser("alice")); got != 2 {
		t.Errorf("entries of alice: %d, want 2", got)
	}
	if got := len(l.Filter(func(e Entry) bool { return e.Tag == "tw" })); got != 2 {
		t.Errorf("entries of tag tw: %d, want 2", got)
	}
	if got := len(byUser("mallory")); got != 0 {
		t.Errorf("entries of mallory: %d, want 0", got)
	}
}

func TestEntriesIsCopy(t *testing.T) {
	l := NewLogWithClock(clock.NewFake(epoch))
	l.Append(Entry{User: "alice", Action: ActionSuppress})
	es := l.Entries()
	es[0].User = "tampered"
	if l.Entries()[0].User != "alice" {
		t.Error("Entries exposed internal state")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := NewLogWithClock(clock.NewFake(epoch))
	l.Append(Entry{User: "alice", Action: ActionSuppress, Tag: "ti", Segment: "wiki#p0", Justification: "client request"})
	l.Append(Entry{User: "bob", Action: ActionOverride, Service: "docs"})

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewLog()
	if err := restored.ReadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, want := restored.Entries(), l.Entries()
	if len(got) != len(want) {
		t.Fatalf("len=%d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].User != want[i].User || got[i].Action != want[i].Action ||
			got[i].Tag != want[i].Tag || got[i].Seq != want[i].Seq {
			t.Errorf("entry %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONBadInput(t *testing.T) {
	l := NewLog()
	if err := l.ReadJSON(bytes.NewBufferString("{not json")); err == nil {
		t.Error("want error on malformed input")
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Append(Entry{User: "u", Action: ActionSuppress})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 400 {
		t.Errorf("Len=%d, want 400", l.Len())
	}
	// Seqs must be unique and dense 1..400.
	seen := make(map[uint64]bool)
	for _, e := range l.Entries() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	for s := uint64(1); s <= 400; s++ {
		if !seen[s] {
			t.Fatalf("missing seq %d", s)
		}
	}
}
