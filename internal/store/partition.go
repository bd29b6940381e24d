// partition.go — checkpoint filtering for partition splits. A split
// bootstraps the target from a checkpoint of the source restricted to
// the moving key range; the WAL tail is then mirrored verbatim with the
// target's applier filtering per record (see DurableOptions.KeyRange).
package store

import (
	"fmt"
	"math"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// filterImage re-encodes a BFLOWSNB checkpoint image with the
// fingerprint-index state restricted to segments whose partition key
// (segment.Key) falls in kr. Registry and audit state are kept whole —
// labels are global shadow state in a partitioned cluster, so the target
// needs every segment's tags even when it indexes only a slice of the
// fingerprints.
//
// The filter round-trips through a scratch tracker built with params
// (which must match the source engine's), removing out-of-range
// segments before re-capturing. Index clocks and posting sequence
// numbers survive the round trip verbatim, so oldest-holder order on
// the target is identical to the source's for every retained posting.
func filterImage(blob []byte, params disclosure.Params, kr segment.KeyRange) ([]byte, error) {
	tracker, err := disclosure.NewTracker(params)
	if err != nil {
		return nil, fmt.Errorf("store: filter snapshot: %w", err)
	}
	registry := tdm.NewRegistry(tracker.Table(), nil)
	meta, err := RestoreBytes("filter-snapshot", blob, tracker, registry)
	if err != nil {
		return nil, err
	}
	if kr.Lo > 0 {
		tracker.ForgetRange(0, kr.Lo-1)
	}
	if kr.Hi < math.MaxUint32 {
		tracker.ForgetRange(kr.Hi+1, math.MaxUint32)
	}
	return CaptureBytes(tracker, registry, meta.WALSeg, meta.SavedAt)
}
