package index

import (
	"fmt"
	"sync"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

func fp(hashes ...uint32) *fingerprint.Fingerprint {
	return fingerprint.FromHashes(hashes)
}

func TestConcurrentAccess(t *testing.T) {
	db := New(nil, 0.5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				seg := segment.ID(fmt.Sprintf("w%d/p%d", worker, j%10))
				db.Update(seg, fp(uint32(j), uint32(j+1), uint32(worker*1000+j)), nil)
				db.OldestHolder(uint32(j))
				db.AuthoritativeOverlap(seg, fp(uint32(j)))
				db.Stats()
			}
		}(i)
	}
	wg.Wait()
	if s := db.Stats(); s.Segments != 80 {
		t.Errorf("Segments=%d, want 80", s.Segments)
	}
}

func BenchmarkUpdate(b *testing.B) {
	db := New(nil, 0.5)
	hashes := make([]uint32, 50)
	for i := range hashes {
		hashes[i] = uint32(i * 2654435761)
	}
	f := fingerprint.FromHashes(hashes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Update(segment.ID(fmt.Sprintf("s%d", i%1000)), f, nil)
	}
}

func BenchmarkAuthoritativeOverlap(b *testing.B) {
	db := New(nil, 0.5)
	for s := 0; s < 100; s++ {
		hashes := make([]uint32, 100)
		for i := range hashes {
			hashes[i] = uint32((s*37 + i) * 2654435761)
		}
		db.Update(segment.ID(fmt.Sprintf("s%d", s)), fingerprint.FromHashes(hashes), nil)
	}
	target := fingerprint.FromHashes([]uint32{2654435761, 1013904223})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.AuthoritativeOverlap("s0", target)
	}
}
