package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/wal"
)

// partGetRing fetches and decodes a node's installed ring.
func partGetRing(base string) (*partition.Ring, error) {
	resp, err := replHTTP.Get(strings.TrimRight(base, "/") + "/v1/part/ring")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return partition.DecodeRing(body)
}

// partSetRing installs an encoded ring on a node.
func partSetRing(base string, encoded []byte) error {
	resp, err := replHTTP.Post(strings.TrimRight(base, "/")+"/v1/part/ring",
		"application/octet-stream", bytes.NewReader(encoded))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// partPrune drops the inclusive key range [lo, hi] on a node.
func partPrune(base string, lo, hi uint32) (int, error) {
	payload, err := json.Marshal(segment.KeyRange{Lo: lo, Hi: hi})
	if err != nil {
		return 0, err
	}
	resp, err := replHTTP.Post(strings.TrimRight(base, "/")+"/v1/part/prune",
		"application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var out tagserver.PartPruneResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("decode prune response: %w", err)
	}
	return out.Removed, nil
}

func getNodeHealth(base string) (tagserver.HealthResponse, error) {
	var h tagserver.HealthResponse
	resp, err := replHTTP.Get(strings.TrimRight(base, "/") + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		return h, err
	}
	return h, nil
}

// runTopology prints the whole-cluster view: every partition's key range
// and every member node's role, term and ring version — the operator's
// one-look answer to "who owns what, and does everyone agree on the
// topology".
func runTopology(ring *partition.Ring, stdout io.Writer) {
	fmt.Fprintf(stdout, "ring:     v%d, %d partitions\n", ring.Version, len(ring.Partitions))
	for _, p := range ring.Partitions {
		fmt.Fprintf(stdout, "partition %s  range [%d, %d]\n", p.ID, p.Lo, p.Hi)
		for _, node := range p.Nodes {
			h, err := getNodeHealth(node)
			if err != nil {
				fmt.Fprintf(stdout, "  %-28s unreachable: %v\n", node, err)
				continue
			}
			role, term := "standalone", uint64(0)
			if h.Replication != nil {
				role, term = h.Replication.Role, h.Replication.Term
			}
			line := fmt.Sprintf("  %-28s %-8s term %d", node, role, term)
			if h.Partition != nil {
				line += fmt.Sprintf("  ring v%d", h.Partition.RingVersion)
				if h.Partition.RingVersion != ring.Version {
					line += " (STALE)"
				}
				if h.Partition.Resharding {
					line += " resharding"
				}
			}
			fmt.Fprintln(stdout, line)
		}
	}
}

// splitArgs carries the `split` command's inputs.
type splitArgs struct {
	server      string // source partition primary
	srcID       string // partition being split
	at          uint32 // last key the source keeps
	newID       string // ID for the moved range's partition
	target      string // split-target replica to promote
	targetNodes []string
	force       bool
}

// splitCatchUpTimeout bounds how long runSplit waits for the split
// target's mirror to cover the source's post-flip WAL position.
// Overridable for tests.
var splitCatchUpTimeout = 30 * time.Second

// waitSplitCatchUp blocks until the target's mirrored WAL position
// covers the source's current high-water mark, so promotion cannot
// abandon acked writes for the moved range. It runs after the source's
// ring flip: from then on the source 421s moved-range writes, so the
// mark the target must reach no longer grows for that range and the
// wait converges under live traffic.
func waitSplitCatchUp(source, target string, force bool, stdout io.Writer) error {
	srcSt, err := replGetStatus(source)
	if err != nil {
		return fmt.Errorf("status %s: %w", source, err)
	}
	srcPos, err := wal.ParsePos(srcSt.Position)
	if err != nil {
		return fmt.Errorf("source %s position: %w", source, err)
	}
	deadline := time.Now().Add(splitCatchUpTimeout)
	for {
		st, err := replGetStatus(target)
		if err != nil {
			return fmt.Errorf("status %s: %w", target, err)
		}
		if pos, perr := wal.ParsePos(st.Position); perr == nil && !pos.Less(srcPos) {
			return nil
		}
		if time.Now().After(deadline) {
			if force {
				fmt.Fprintf(stdout, "warning: split target %s mirror at %s has not covered source position %s; -force abandons the gap\n",
					target, st.Position, srcSt.Position)
				return nil
			}
			return fmt.Errorf("split target %s mirror at %s has not covered the source's position %s after %s; wait for catch-up or pass -force to abandon the gap",
				target, st.Position, srcSt.Position, splitCatchUpTimeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runSplit drives a live reshard to completion:
//
//  1. fetch the ring from the source and build version v+1 with the
//     range [at+1, hi] moved to newID (a re-run that finds the split
//     ring already installed converges on it);
//  2. install the new ring on the source FIRST, while the target is
//     still mirroring: from that moment the source answers 421 for the
//     moved range, so no write can be acked there that the target's
//     stopped mirror would never see (the moved range is briefly
//     routable-but-unowned until step 4 — fail-closed unavailability,
//     never silent loss);
//  3. wait until the target's mirror covers the source's now-frozen
//     high-water mark (refusing to proceed on timeout unless -force);
//  4. promote the target under a bumped fencing term (no -old-primary:
//     the source stays primary of the kept range, so it must not be
//     term-fenced — the ring flip in step 2 is the moved range's fence);
//  5. install the new ring on the rest of the cluster;
//  6. prune the moved range from the source.
//
// Every step is idempotent: re-running a half-finished split converges.
func runSplit(a splitArgs, stdout io.Writer) error {
	ring, err := partGetRing(a.server)
	if err != nil {
		return fmt.Errorf("fetch ring from %s: %w", a.server, err)
	}
	var (
		next    *partition.Ring
		srcHi   uint32
		flipped bool // the source already carries the post-split ring (re-run)
	)
	if moved, ok := ring.ByID(a.newID); ok {
		// Re-run of a half-finished split: the source's installed ring
		// already has the moved range; converge on it instead of minting
		// another version.
		src, ok := ring.ByID(a.srcID)
		if !ok || src.Hi != a.at || moved.Lo != a.at+1 {
			return fmt.Errorf("ring v%d already has partition %q but not as a split of %q at %d; refusing to continue",
				ring.Version, a.newID, a.srcID, a.at)
		}
		next, srcHi, flipped = ring, moved.Hi, true
		fmt.Fprintf(stdout, "ring v%d already carries the split; resuming\n", ring.Version)
	} else {
		src, ok := ring.ByID(a.srcID)
		if !ok {
			return fmt.Errorf("ring v%d has no partition %q", ring.Version, a.srcID)
		}
		srcHi = src.Hi
		if len(a.targetNodes) == 0 {
			a.targetNodes = []string{a.target}
		}
		if next, err = partition.SplitRing(ring, a.srcID, a.at, a.newID, a.targetNodes); err != nil {
			return err
		}
	}
	encoded, err := partition.EncodeRing(next)
	if err != nil {
		return err
	}

	st, err := replGetStatus(a.target)
	if err != nil {
		return fmt.Errorf("status %s: %w", a.target, err)
	}
	if st.Role != "primary" {
		if !st.Connected && !a.force {
			return fmt.Errorf("split target %s is not mirroring the source (last error: %s); fix it or pass -force", a.target, st.LastError)
		}
		// Flip the source before the target stops mirroring (step 2).
		if !flipped {
			if err := partSetRing(a.server, encoded); err != nil {
				return fmt.Errorf("install ring v%d on source %s: %w", next.Version, a.server, err)
			}
			fmt.Fprintf(stdout, "ring v%d installed on source %s (moved range now fenced there)\n", next.Version, a.server)
		}
		if err := waitSplitCatchUp(a.server, a.target, a.force, stdout); err != nil {
			return err
		}
		// Skip the generic lag check: the catch-up above proved the mirror
		// covers every record the source acked before the flip, and records
		// past that mark are kept-range traffic the target's filter drops.
		if err := promote(a.target, "", a.force, true, stdout); err != nil {
			return fmt.Errorf("promote split target: %w", err)
		}
	} else {
		fmt.Fprintf(stdout, "split target %s already primary at term %d\n", a.target, st.Term)
		if !flipped {
			if err := partSetRing(a.server, encoded); err != nil {
				return fmt.Errorf("install ring v%d on source %s: %w", next.Version, a.server, err)
			}
			fmt.Fprintf(stdout, "ring v%d installed on source %s\n", next.Version, a.server)
		}
	}

	for _, p := range next.Partitions {
		for _, node := range p.Nodes {
			if node == a.server {
				continue
			}
			if err := partSetRing(node, encoded); err != nil {
				fmt.Fprintf(stdout, "warning: install ring v%d on %s: %v (routers will carry it on first 421)\n", next.Version, node, err)
				continue
			}
			fmt.Fprintf(stdout, "ring v%d installed on %s\n", next.Version, node)
		}
	}

	removed, err := partPrune(a.server, a.at+1, srcHi)
	if err != nil {
		return fmt.Errorf("prune moved range on source: %w", err)
	}
	kept, _ := next.ByID(a.srcID)
	fmt.Fprintf(stdout, "split complete: %s keeps [%d, %d], %s owns [%d, %d] (%d segments pruned from source)\n",
		a.srcID, kept.Lo, a.at, a.newID, a.at+1, srcHi, removed)
	return nil
}

// dispatchPart routes the partition operator commands; it reports
// whether cmd was one of them.
func dispatchPart(cmd string, a splitArgs, stdout io.Writer) (bool, error) {
	switch cmd {
	case "split":
		switch {
		case a.server == "":
			return true, errors.New("split requires -server (the source partition primary)")
		case a.srcID == "":
			return true, errors.New("split requires -src-partition")
		case a.newID == "":
			return true, errors.New("split requires -new-partition")
		case a.target == "":
			return true, errors.New("split requires -target (the filtered replica to promote)")
		}
		return true, runSplit(a, stdout)
	case "ring":
		if a.server == "" {
			return true, errors.New("ring requires -server")
		}
		ring, err := partGetRing(a.server)
		if err != nil {
			return true, err
		}
		runTopology(ring, stdout)
		return true, nil
	}
	return false, nil
}
