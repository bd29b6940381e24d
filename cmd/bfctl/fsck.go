package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
)

// runFsck verifies a durable directory offline: every WAL segment's CRC
// framing and every checkpoint image's container CRCs, reporting the byte
// offset of the first bad byte in anything corrupt and, for a clean
// checkpoint, its container version and the bytes of each section (where
// the checkpoint bytes go). It never modifies the
// directory (quarantine is the running node's job); a non-zero count of
// corrupt files, or of intact checkpoints in a format this build refuses
// to load, is returned as an error so scripts can gate on the exit status.
func runFsck(dir string, key []byte, stdout io.Writer) error {
	segs, err := wal.ListSegments(wal.OSFS{}, dir)
	if err != nil {
		return fmt.Errorf("list segments: %w", err)
	}
	names, err := wal.OSFS{}.ReadDirNames(dir)
	if err != nil {
		return fmt.Errorf("read dir: %w", err)
	}
	sort.Strings(names)

	corrupt := 0
	totalRecords, totalBytes := 0, int64(0)
	for _, idx := range segs {
		recs, bytes, verr := wal.VerifySegmentFile(nil, dir, idx, 0)
		totalRecords += recs
		totalBytes += bytes
		if verr == nil {
			fmt.Fprintf(stdout, "ok       %s  %d records, %d bytes\n", wal.SegmentName(idx), recs, bytes)
			continue
		}
		corrupt++
		var ce *wal.CorruptError
		if errors.As(verr, &ce) {
			fmt.Fprintf(stdout, "CORRUPT  %s  at byte %d: %s\n", wal.SegmentName(idx), ce.Offset, ce.Reason)
		} else {
			fmt.Fprintf(stdout, "CORRUPT  %s  %v\n", wal.SegmentName(idx), verr)
		}
	}

	checkpoints, refused := 0, 0
	for _, name := range names {
		if _, ok := store.ParseCheckpointName(name); !ok {
			continue
		}
		checkpoints++
		info, verr := store.VerifyCheckpointFile(nil, dir+"/"+name, key)
		if verr == nil {
			fmt.Fprintf(stdout, "ok       %s  %d bytes, version %d:", name, info.Bytes, info.Version)
			for _, s := range info.Sections {
				fmt.Fprintf(stdout, " %s %d", s.Name, s.Bytes)
			}
			fmt.Fprintln(stdout)
			continue
		}
		var rfe *store.RetiredFormatError
		if errors.As(verr, &rfe) {
			refused++
			fmt.Fprintf(stdout, "RETIRED  %s  %s format (README: upgrading)\n", name, rfe.Format)
			continue
		}
		var nfe *store.NewerFormatError
		if errors.As(verr, &nfe) {
			refused++
			fmt.Fprintf(stdout, "NEWER    %s  version %d image, written by a newer build (README: upgrading)\n", name, nfe.Version)
			continue
		}
		corrupt++
		var cse *store.CorruptSnapshotError
		if errors.As(verr, &cse) {
			fmt.Fprintf(stdout, "CORRUPT  %s  at byte %d: %s\n", name, cse.Offset, cse.Reason)
		} else {
			fmt.Fprintf(stdout, "CORRUPT  %s  %v\n", name, verr)
		}
	}

	quarantined := 0
	for _, name := range names {
		if strings.HasSuffix(name, wal.QuarantineSuffix) {
			quarantined++
			fmt.Fprintf(stdout, "quarantined  %s\n", name)
		}
	}

	fmt.Fprintf(stdout, "fsck: %d segments (%d records, %d bytes), %d checkpoints, %d quarantined, %d corrupt\n",
		len(segs), totalRecords, totalBytes, checkpoints, quarantined, corrupt)
	if corrupt > 0 {
		return fmt.Errorf("fsck: %d corrupt file(s) in %s", corrupt, dir)
	}
	if refused > 0 {
		return fmt.Errorf("fsck: %d checkpoint(s) in a format this build does not read in %s", refused, dir)
	}
	return nil
}

// runScrubStatus prints a running node's self-healing storage state: the
// /healthz storage block (scrub freshness, quarantine inventory, disk
// degradation).
func runScrubStatus(server string, stdout io.Writer) error {
	body, err := obsGet(server, "/healthz")
	if err != nil {
		return err
	}
	var health struct {
		Storage *struct {
			ScrubPasses      int64  `json:"scrubPasses"`
			LastScrubAge     string `json:"lastScrubAge"`
			FramesVerified   int64  `json:"framesVerified"`
			CorruptionsFound int64  `json:"corruptionsFound"`
			Quarantines      int64  `json:"quarantines"`
			QuarantinedFiles int    `json:"quarantinedFiles"`
			LastCorruption   string `json:"lastCorruption"`
			DiskDegraded     bool   `json:"diskDegraded"`
			DegradedCause    string `json:"degradedCause"`
			FailOpen         bool   `json:"failOpen"`
			DroppedRecords   int64  `json:"droppedRecords"`
			DiskRecoveries   int64  `json:"diskRecoveries"`
		} `json:"storage"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		return fmt.Errorf("decode healthz: %w", err)
	}
	st := health.Storage
	if st == nil {
		fmt.Fprintln(stdout, "node has no durability layer (no storage block on /healthz)")
		return nil
	}
	fmt.Fprintf(stdout, "scrub passes:      %d\n", st.ScrubPasses)
	if st.LastScrubAge != "" {
		fmt.Fprintf(stdout, "last pass age:     %s\n", st.LastScrubAge)
	}
	fmt.Fprintf(stdout, "frames verified:   %d\n", st.FramesVerified)
	fmt.Fprintf(stdout, "corruptions found: %d\n", st.CorruptionsFound)
	fmt.Fprintf(stdout, "quarantines:       %d (on disk now: %d)\n", st.Quarantines, st.QuarantinedFiles)
	if st.LastCorruption != "" {
		fmt.Fprintf(stdout, "last corruption:   %s\n", st.LastCorruption)
	}
	if st.DiskDegraded {
		policy := "fail-closed"
		if st.FailOpen {
			policy = "fail-open"
		}
		fmt.Fprintf(stdout, "disk:              DEGRADED (%s, %s), %d records dropped\n",
			st.DegradedCause, policy, st.DroppedRecords)
	} else {
		fmt.Fprintf(stdout, "disk:              healthy (%d recoveries)\n", st.DiskRecoveries)
	}
	return nil
}

// dispatchStorage routes the self-healing storage operator commands; it
// reports whether cmd was one of them. `bfctl fsck -wal-dir DIR` verifies
// a durable directory offline; `bfctl scrub-status -server URL` shows a
// running node's scrub and degradation state.
func dispatchStorage(cmd, dir string, key []byte, server string, stdout io.Writer) (bool, error) {
	switch cmd {
	case "fsck":
		if dir == "" {
			return true, errors.New("fsck requires -wal-dir")
		}
		return true, runFsck(dir, key, stdout)
	case "scrub-status":
		if server == "" {
			return true, errors.New("scrub-status requires -server")
		}
		return true, runScrubStatus(server, stdout)
	}
	return false, nil
}
