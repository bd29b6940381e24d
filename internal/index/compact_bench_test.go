package index

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// BenchmarkCompact times one merge of a 1 024-posting head into a
// 20 000-group run, the shape of one shard of the benchmark's corpus:
// refs above 2^15 (17-bit ref codes), every posting at its holder's first
// stamp (1-bit stamp codes), ≈ 4 % of the run's postings spilled and ≈ 4 %
// of the head's postings for hashes the run already holds. Every fourth
// merge starts over from a freshly built run, outside the timer, so the
// run stays between 20 000 and 23 000 groups. It drives the DB through
// Update, SetCompactThreshold and Compact only.
func BenchmarkCompact(b *testing.B) {
	const (
		baseSegs, basePer = 200, 100 // the run: 20 000 hashes
		headSegs, headPer = 16, 64   // the head: 1 024 postings
		shared            = 4        // of each segment's hashes, also held elsewhere
		cycle             = 4        // merges between rebuilds
	)
	tab := &segment.Table{}
	fillTable(tab, 1<<15)
	rng := rand.New(rand.NewSource(1))
	taken := map[uint32]bool{}
	fresh := func() uint32 {
		for {
			if h := rng.Uint32() >> 6; !taken[h] { // the lowest of 64 shards
				taken[h] = true
				return h
			}
		}
	}
	base := make([][]uint32, baseSegs)
	var all []uint32
	for i := range base {
		for j := 0; j < basePer; j++ {
			base[i] = append(base[i], fresh())
		}
		if i > 0 {
			base[i] = append(base[i], base[i-1][:shared]...)
		}
		all = append(all, base[i][:basePer]...)
	}
	heads := make([][][]uint32, cycle)
	for c := range heads {
		heads[c] = make([][]uint32, headSegs)
		for s := range heads[c] {
			for j := 0; j < headPer-shared; j++ {
				heads[c][s] = append(heads[c][s], fresh())
			}
			for j := 0; j < shared; j++ {
				heads[c][s] = append(heads[c][s], all[rng.Intn(len(all))])
			}
		}
	}
	build := func() *DB {
		db := New(tab, 0.5)
		db.SetCompactThreshold(-1)
		for i, hs := range base {
			db.Update(segment.ID(fmt.Sprintf("base#p%d", i)), fingerprint.FromHashes(hs), nil)
		}
		db.Compact()
		return db
	}

	var db *DB
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		c := n % cycle
		if c == 0 {
			db = build()
		}
		for s, hs := range heads[c] {
			db.Update(segment.ID(fmt.Sprintf("head%d#p%d", c, s)), fingerprint.FromHashes(hs), nil)
		}
		b.StartTimer()
		db.Compact()
	}
}
