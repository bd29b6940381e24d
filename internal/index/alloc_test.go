package index

import (
	"fmt"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// holderFixture builds a DB with nSegs segments of nHashes hashes each,
// overlapping enough that every hash has several holders, and returns the
// DB plus one resident fingerprint's hash set.
func holderFixture(tb testing.TB, nSegs, nHashes int) (*DB, []uint32) {
	tb.Helper()
	db := New(nil, 0.5)
	var probe []uint32
	for s := 0; s < nSegs; s++ {
		hs := make([]uint32, 0, nHashes)
		for i := 0; i < nHashes; i++ {
			// Stride layout: consecutive segments share most hashes.
			hs = append(hs, uint32((s*7+i*131)%(nHashes*2))*0x01000193)
		}
		fp := fingerprint.FromHashes(hs)
		db.Update(segment.ID(fmt.Sprintf("wiki/fixture#p%d", s)), fp, nil)
		if s == 0 {
			probe = append(probe, fp.Hashes()...)
		}
	}
	return db, probe
}

// TestAppendOldestHoldersReusesCapacity pins the capacity-reuse contract:
// with a warm output buffer the candidate-discovery call of Algorithm 1
// performs zero allocations, in both the head-resident and compacted
// layouts.
func TestAppendOldestHoldersReusesCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, probe := holderFixture(t, 32, 64)
	for _, compacted := range []bool{false, true} {
		name := "head"
		if compacted {
			db.Compact()
			name = "compacted"
		}
		t.Run(name, func(t *testing.T) {
			out := db.AppendOldestHolders(probe, nil)
			if len(out) == 0 {
				t.Fatal("fixture produced no holders")
			}
			buf := make([]segment.ID, 0, len(out))
			allocs := testing.AllocsPerRun(100, func() {
				buf = db.AppendOldestHolders(probe, buf[:0])
			})
			if allocs != 0 {
				t.Errorf("AppendOldestHolders allocates %.1f objects/op with warm buffer, want 0", allocs)
			}
		})
	}
}

// TestAppendHoldersReusesCapacity is the same contract for the
// all-holders form used by the DisableAuthoritative ablation path.
func TestAppendHoldersReusesCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, probe := holderFixture(t, 32, 64)
	db.Compact()
	h := probe[0]
	holders := db.Holders(h)
	if len(holders) == 0 {
		t.Fatal("fixture hash has no holders")
	}
	buf := make([]segment.ID, 0, len(holders)*2)
	allocs := testing.AllocsPerRun(100, func() {
		buf = db.AppendHolders(h, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendHolders allocates %.1f objects/op with warm buffer, want 0", allocs)
	}
	// The append form must agree with Holders.
	buf = db.AppendHolders(h, buf[:0])
	if len(buf) != len(holders) {
		t.Fatalf("AppendHolders returned %d holders, Holders returned %d", len(buf), len(holders))
	}
	for i := range buf {
		if buf[i] != holders[i] {
			t.Fatalf("holder order diverged at %d: %q != %q", i, buf[i], holders[i])
		}
	}
}

func BenchmarkAppendOldestHolders(b *testing.B) {
	db, probe := holderFixture(b, 64, 128)
	db.Compact()
	var buf []segment.ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = db.AppendOldestHolders(probe, buf[:0])
	}
}

func BenchmarkAppendHolders(b *testing.B) {
	db, probe := holderFixture(b, 64, 128)
	db.Compact()
	var buf []segment.ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = db.AppendHolders(probe[i%len(probe)], buf[:0])
	}
}
