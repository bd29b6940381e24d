// Package obs is BrowserFlow's end-to-end observability layer: a
// process-wide metrics registry (counters, gauges, fixed-bucket latency
// histograms, rate windows), request tracing with ring-buffer span
// storage, and RED middleware for HTTP endpoints.
//
// Design constraints, in order:
//
//  1. Hot-path safety. Counter increments and histogram observations are
//     single atomic adds on lock-striped cells — no mutex is taken on the
//     observe path. Registration (creating a metric) takes a lock, but
//     metrics are registered once at startup.
//  2. Determinism under test. Every time source in the package is the
//     bundle's clock, so histogram contents, rate windows, span durations,
//     and the full Prometheus exposition are byte-reproducible with a
//     clock.Fake.
//  3. Privacy. Traces carry span names, IDs, hashes, and durations only —
//     never monitored text. This matches the journal's privacy rule.
//
// An *Obs value bundles a Registry and a TraceLog and is plumbed through
// the daemons; a nil *Obs is valid everywhere and disables instrumentation
// at near-zero cost.
package obs

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/lsds/browserflow/internal/clock"
)

// Obs bundles the metric registry and trace log that instrumented
// components share. All methods are safe on a nil receiver, which
// disables instrumentation.
type Obs struct {
	reg    *Registry
	traces *TraceLog
	idSeq  atomic.Uint64
	idBase uint64
}

// New constructs an observability bundle with the given clock (nil means
// the real one) and a trace ring of traceCap spans (<=0 means
// DefaultTraceCap).
func New(c clock.Clock, traceCap int) *Obs {
	c = clock.Or(c)
	o := &Obs{
		reg:    newRegistry(c),
		traces: newTraceLog(c, traceCap),
	}
	// Seed the trace-ID base from the clock so IDs differ between
	// processes but remain deterministic under a fake clock.
	o.idBase = uint64(c.Now().UnixNano())
	return o
}

// Clock is the bundle's time source: the real clock on a nil Obs. The
// components handed an Obs read their time from it.
func (o *Obs) Clock() clock.Clock {
	return o.Registry().clk()
}

// Registry returns the bundled metric registry (nil on a nil Obs).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Traces returns the bundled trace log (nil on a nil Obs).
func (o *Obs) Traces() *TraceLog {
	if o == nil {
		return nil
	}
	return o.traces
}

// NewTraceID mints a process-unique trace identifier of the form
// "bf-<16 hex>". Deterministic under a fake clock: the ID is the seed
// time mixed with a process-local sequence number.
func (o *Obs) NewTraceID() string {
	if o == nil {
		return ""
	}
	n := o.idSeq.Add(1)
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], o.idBase)
	binary.BigEndian.PutUint64(b[8:], n)
	h := fnv64a(b[:])
	return fmt.Sprintf("bf-%016x", h)
}

// fnv64a is a tiny inline FNV-1a so obs depends on nothing.
func fnv64a(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range p {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
