package obs

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/clock"
)

// TestRegistryStress hammers one registry from 32 goroutines — counters,
// gauges, histograms, rate windows, and lazy per-label registration —
// while a scraper goroutine concurrently renders /v1/metrics. Run under
// -race (make check). Asserts:
//
//   - counters observed by the scraper are monotone non-decreasing,
//   - every scraped histogram snapshot is untorn (count == Σ buckets,
//     cumulative buckets non-decreasing, +Inf bucket == count),
//   - final totals equal the number of events pushed.
func TestRegistryStress(t *testing.T) {
	const (
		writers = 32
		iters   = 2000
	)
	o := New(nil, 1024)
	reg := o.Registry()
	srv := httptest.NewServer(o.MetricsHandler())
	defer srv.Close()

	ctr := reg.Counter("bf_stress_total", "stress counter")
	hist := reg.Histogram("bf_stress_seconds", "stress histogram", nil)
	rate := reg.RateWindow("bf_stress_rate", "stress rate", 5)
	gauge := reg.Gauge("bf_stress_gauge", "stress gauge")

	stop := make(chan struct{})
	var scrapeErr atomic.Value // string

	// Scraper: loops over the HTTP endpoint, checking monotonicity and
	// snapshot consistency on each pass.
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		var lastTotal uint64
		client := srv.Client()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(srv.URL)
			if err != nil {
				scrapeErr.Store("scrape: " + err.Error())
				return
			}
			var (
				total       uint64
				histCount   uint64
				histInf     uint64
				prevBucket  uint64
				sumBuckets  uint64
				haveBuckets bool
			)
			prevBucket = 0
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, "bf_stress_total "):
					total, _ = strconv.ParseUint(strings.Fields(line)[1], 10, 64)
				case strings.HasPrefix(line, "bf_stress_seconds_bucket"):
					v, _ := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
					if v < prevBucket {
						scrapeErr.Store(fmt.Sprintf("torn histogram: bucket %d < previous %d", v, prevBucket))
					}
					sumBuckets = v // cumulative; last seen is the running max
					prevBucket = v
					haveBuckets = true
					if strings.Contains(line, `le="+Inf"`) {
						histInf = v
					}
				case strings.HasPrefix(line, "bf_stress_seconds_count "):
					histCount, _ = strconv.ParseUint(strings.Fields(line)[1], 10, 64)
				}
			}
			resp.Body.Close()
			if total < lastTotal {
				scrapeErr.Store(fmt.Sprintf("counter went backwards: %d -> %d", lastTotal, total))
				return
			}
			lastTotal = total
			if haveBuckets {
				if histInf != histCount {
					scrapeErr.Store(fmt.Sprintf("torn histogram: +Inf bucket %d != count %d", histInf, histCount))
					return
				}
				if sumBuckets != histCount {
					scrapeErr.Store(fmt.Sprintf("torn histogram: bucket sum %d != count %d", sumBuckets, histCount))
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctr.Inc()
				hist.Observe(time.Duration(i%2000) * time.Microsecond)
				rate.Mark()
				gauge.Set(float64(i))
				// Lazy per-label registration race: the same names from
				// all goroutines, plus a per-goroutine one.
				reg.Counter(fmt.Sprintf("bf_stress_labeled_total{w=%q}", strconv.Itoa(g%4)), "labeled").Inc()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if msg := scrapeErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if got := ctr.Value(); got != writers*iters {
		t.Fatalf("counter total = %d, want %d", got, writers*iters)
	}
	s := hist.Snapshot()
	if s.Count != writers*iters {
		t.Fatalf("histogram count = %d, want %d", s.Count, writers*iters)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("histogram torn at rest: Σ buckets %d != count %d", sum, s.Count)
	}
	var labeled uint64
	for g := 0; g < 4; g++ {
		labeled += reg.Counter(fmt.Sprintf("bf_stress_labeled_total{w=%q}", strconv.Itoa(g)), "labeled").Value()
	}
	if labeled != writers*iters {
		t.Fatalf("labeled counters total = %d, want %d", labeled, writers*iters)
	}
}

// TestTraceLogStress records spans from many goroutines while snapshots
// are taken concurrently; run under -race.
func TestTraceLogStress(t *testing.T) {
	log := newTraceLog(clock.Or(nil), 256)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = log.Snapshot()
				_ = log.Query("bf-stress-7")
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				log.Record(Span{Trace: fmt.Sprintf("bf-stress-%d", g), Name: "span", Duration: time.Millisecond})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := len(log.Snapshot()); got != 256 {
		t.Fatalf("ring size = %d, want 256", got)
	}
}
