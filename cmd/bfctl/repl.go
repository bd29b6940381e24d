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
)

// replHTTP is the client used for /v1/repl/* operator calls. Promotion
// and fencing are quick control-plane requests, so a short timeout keeps
// a dead node from hanging the CLI.
var replHTTP = &http.Client{Timeout: 10 * time.Second}

// replStatus mirrors the wire shape of /v1/repl/status.
type replStatus struct {
	Role           string `json:"role"`
	Term           uint64 `json:"term"`
	Primary        string `json:"primary"`
	Position       string `json:"position"`
	LagRecords     int64  `json:"lag_records"`
	AppliedRecords int64  `json:"appliedRecords"`
	Bootstraps     int64  `json:"bootstraps"`
	Connected      bool   `json:"connected"`
	LastError      string `json:"lastError"`
}

// replGetStatus fetches a node's replication status.
func replGetStatus(base string) (replStatus, error) {
	var st replStatus
	resp, err := replHTTP.Get(strings.TrimRight(base, "/") + "/v1/repl/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decode status: %w", err)
	}
	return st, nil
}

// runReplStatus prints a node's replication state: role, fencing term,
// applied position and how far behind the primary it is.
func runReplStatus(server string, stdout io.Writer) error {
	st, err := replGetStatus(server)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "role:     %s\nterm:     %d\n", st.Role, st.Term)
	if st.Primary != "" {
		fmt.Fprintf(stdout, "primary:  %s\n", st.Primary)
	}
	fmt.Fprintf(stdout, "position: %s\nlag:      %d records\napplied:  %d records\nconnected: %v\n",
		st.Position, st.LagRecords, st.AppliedRecords, st.Connected)
	if st.LastError != "" {
		fmt.Fprintf(stdout, "last error: %s\n", st.LastError)
	}
	// On a partitioned node, widen to the whole-cluster view: its ring
	// names every group, and each member's health names its role.
	if ring, err := partGetRing(server); err == nil {
		fmt.Fprintln(stdout)
		runTopology(ring, stdout)
	}
	return nil
}

// runPromote promotes the replica at server to primary. Unless -force is
// given it refuses while the replica still lags the primary, because
// promoting a lagging replica abandons the acked writes it has not yet
// applied. With -old-primary it then fences the deposed primary
// explicitly so the old node refuses writes even before any client
// carries the new term to it.
func runPromote(server, oldPrimary string, force bool, stdout io.Writer) error {
	return promote(server, oldPrimary, force, false, stdout)
}

// promote implements runPromote. skipLagCheck is for callers that have
// already established a stronger catch-up guarantee than the raw record
// lag (bfctl split verifies the target's mirror covers the source's
// frozen high-water mark, after which any remaining lag is traffic its
// key range discards anyway).
func promote(server, oldPrimary string, force, skipLagCheck bool, stdout io.Writer) error {
	st, err := replGetStatus(server)
	if err != nil {
		return fmt.Errorf("status %s: %w", server, err)
	}
	if st.Role == "primary" {
		fmt.Fprintf(stdout, "%s is already primary at term %d\n", server, st.Term)
		return nil
	}
	if st.LagRecords > 0 && !force && !skipLagCheck {
		return fmt.Errorf("replica lags primary by %d records; catch up first or pass -force to abandon them", st.LagRecords)
	}
	if !st.Connected && !force {
		fmt.Fprintf(stdout, "warning: replica is not connected to its primary (last error: %s); promoting anyway assumes the primary is down\n", st.LastError)
	}

	resp, err := replHTTP.Post(strings.TrimRight(server, "/")+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		return fmt.Errorf("promote %s: %w", server, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote %s: %s: %s", server, resp.Status, strings.TrimSpace(string(body)))
	}
	var out struct {
		Promoted bool   `json:"promoted"`
		Role     string `json:"role"`
		Term     uint64 `json:"term"`
		Primary  string `json:"primary"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("decode promote response: %w", err)
	}
	fmt.Fprintf(stdout, "%s is now %s at term %d\n", server, out.Role, out.Term)

	if oldPrimary == "" {
		return nil
	}
	fenceBody, err := json.Marshal(map[string]interface{}{
		"term":    out.Term,
		"primary": out.Primary,
	})
	if err != nil {
		return err
	}
	fresp, err := replHTTP.Post(strings.TrimRight(oldPrimary, "/")+"/v1/repl/fence",
		"application/json", bytes.NewReader(fenceBody))
	if err != nil {
		// The old primary being unreachable is the expected failover case:
		// it will fence itself on first contact with any term-carrying
		// client once it returns.
		fmt.Fprintf(stdout, "old primary %s unreachable (%v); it will be fenced on first contact\n", oldPrimary, err)
		return nil
	}
	defer fresp.Body.Close()
	fbody, _ := io.ReadAll(io.LimitReader(fresp.Body, 1<<20))
	if fresp.StatusCode != http.StatusOK {
		return fmt.Errorf("fence %s: %s: %s", oldPrimary, fresp.Status, strings.TrimSpace(string(fbody)))
	}
	var fout struct {
		Role   string `json:"role"`
		Term   uint64 `json:"term"`
		Fenced bool   `json:"fenced"`
	}
	if err := json.Unmarshal(fbody, &fout); err != nil {
		return fmt.Errorf("decode fence response: %w", err)
	}
	fmt.Fprintf(stdout, "old primary %s is now %s at term %d\n", oldPrimary, fout.Role, fout.Term)
	return nil
}

// dispatchRepl routes the replication operator commands; it reports
// whether cmd was one of them.
func dispatchRepl(cmd, server, oldPrimary string, force bool, stdout io.Writer) (bool, error) {
	switch cmd {
	case "promote":
		if server == "" {
			return true, errors.New("promote requires -server (the replica to promote)")
		}
		return true, runPromote(server, oldPrimary, force, stdout)
	case "repl-status":
		if server == "" {
			return true, errors.New("repl-status requires -server")
		}
		return true, runReplStatus(server, stdout)
	}
	return false, nil
}
