// Package replication turns a single bftagd into a primary/replica
// cluster by shipping its write-ahead log.
//
// # Design
//
// PR 3 made every policy mutation a byte-deterministic, idempotent WAL
// record; replication simply ships those bytes. A primary serves two
// endpoints: /v1/repl/snapshot hands a bootstrapping replica a
// consistent checkpoint behind a WAL epoch barrier, and
// /v1/repl/stream?from=<seg,off> long-polls raw CRC-framed record bytes
// from any position in the log. A replica's durable directory is a
// store.Durable in the follower role, fed that stream verbatim — identical
// segment file names, identical headers, identical frame bytes at
// identical offsets — so "replica state is a prefix of the primary's log"
// is a literal file comparison, restarts resume from the log's end, every
// applied record goes through the store.Applier crash recovery uses, and
// promotion flips the role of that same store.
//
// # Fencing
//
// Every node persists a monotone term. Promotion (bfctl promote) bumps
// the chosen replica's term; any node that observes a higher term than
// its own — via an explicit /v1/repl/fence call or an X-BF-Term request
// header — steps down to the fenced role and refuses writes with 421 +
// the new primary's address. A deposed primary that comes back from a
// crash therefore cannot accept writes from any client that has learned
// the new term, and the promotion flow fences it explicitly.
//
// # Consistency
//
// Replication is asynchronous: replicas are eventually consistent and
// may serve slightly stale reads (they report lag_records on /healthz so
// callers can bound staleness). Writes always linearise through the
// primary. Zero acked-write loss holds when the promoted replica had
// fully caught up (lag 0) — the operator flow checks this before
// promoting, and fsync=always on the primary guarantees acked writes
// survive its crash for the repaired node to rejoin with.
package replication

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"github.com/lsds/browserflow/internal/wal"
)

// Role is a node's position in the cluster.
type Role int

const (
	// RolePrimary accepts writes and serves the replication stream.
	RolePrimary Role = iota + 1

	// RoleReplica follows the primary's WAL and serves read-only traffic.
	RoleReplica

	// RoleFenced is a deposed primary: it refuses writes (421) until an
	// operator re-seeds it as a replica of the new primary.
	RoleFenced
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	case RoleFenced:
		return "fenced"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// NodeOptions configures a Node.
type NodeOptions struct {
	// Role is the starting role.
	Role Role

	// Self is this node's advertised base URL (what peers should dial).
	Self string

	// Primary is the current primary's advertised base URL; empty when
	// this node is the primary.
	Primary string

	// TermFile persists the node's term across restarts; empty keeps the
	// term in memory only (tests).
	TermFile string

	// FS is the filesystem for TermFile; nil means the real one.
	FS wal.FS

	// Logf receives role/term transition notes; nil discards.
	Logf func(format string, args ...interface{})
}

// Node tracks one process's role, fencing term and current primary. It
// is safe for concurrent use.
type Node struct {
	mu      sync.Mutex
	role    Role
	term    uint64
	primary string
	self    string

	termFile string
	fs       wal.FS
	logf     func(string, ...interface{})
}

// NewNode builds a Node, loading the persisted term when TermFile exists.
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.Role == 0 {
		opts.Role = RolePrimary
	}
	if opts.FS == nil {
		opts.FS = wal.OSFS{}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	n := &Node{
		role:     opts.Role,
		primary:  opts.Primary,
		self:     opts.Self,
		termFile: opts.TermFile,
		fs:       opts.FS,
		logf:     opts.Logf,
	}
	if opts.TermFile != "" {
		data, err := opts.FS.ReadFile(opts.TermFile)
		switch {
		case err == nil:
			term, perr := strconv.ParseUint(string(bytes.TrimSpace(data)), 10, 64)
			if perr != nil {
				return nil, fmt.Errorf("replication: term file %s: %v", opts.TermFile, perr)
			}
			n.term = term
		case os.IsNotExist(err):
			// First boot: term 0 until persisted.
		default:
			return nil, fmt.Errorf("replication: read term file: %w", err)
		}
	}
	return n, nil
}

// persistTermLocked durably writes the current term (temp + rename +
// dir sync, the same discipline as snapshots). Caller holds n.mu.
func (n *Node) persistTermLocked() error {
	if n.termFile == "" {
		return nil
	}
	dir := filepath.Dir(n.termFile)
	if err := n.fs.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("replication: mkdir for term file: %w", err)
	}
	tmp := n.termFile + ".tmp"
	f, err := n.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("replication: write term file: %w", err)
	}
	if _, err := f.Write([]byte(strconv.FormatUint(n.term, 10) + "\n")); err != nil {
		f.Close()
		return fmt.Errorf("replication: write term file: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("replication: sync term file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("replication: close term file: %w", err)
	}
	if err := n.fs.Rename(tmp, n.termFile); err != nil {
		return fmt.Errorf("replication: install term file: %w", err)
	}
	return n.fs.SyncDir(dir)
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Self returns this node's advertised address.
func (n *Node) Self() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.self
}

// Primary returns the advertised address of the primary this node
// believes in (its own Self when it is the primary).
func (n *Node) Primary() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RolePrimary {
		return n.self
	}
	return n.primary
}

// SetPrimary repoints a replica (or fenced node) at a new primary
// address without changing role or term.
func (n *Node) SetPrimary(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RolePrimary && addr != "" && addr != n.primary {
		n.logf("replication: repointing at primary %s", addr)
		n.primary = addr
	}
}

// Promote makes this node the primary under a strictly higher term,
// persisting the term before the new role takes effect. It is the only
// way a node gains the primary role after construction.
func (n *Node) Promote() (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RolePrimary {
		return n.term, nil
	}
	n.term++
	if err := n.persistTermLocked(); err != nil {
		n.term--
		return 0, err
	}
	n.role = RolePrimary
	n.primary = ""
	n.logf("replication: promoted to primary at term %d", n.term)
	return n.term, nil
}

// ObserveTerm feeds a term (and optionally the address of the primary
// that owns it) observed on the wire into the node's fencing logic. A
// higher term always wins: the node adopts it, and a primary observing
// one steps down to RoleFenced — it can no longer prove its writes are
// on the authoritative timeline. It reports whether this call fenced a
// primary.
func (n *Node) ObserveTerm(term uint64, primary string) (fenced bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if term <= n.term {
		return false, nil
	}
	prev := n.term
	n.term = term
	if err := n.persistTermLocked(); err != nil {
		n.term = prev
		return false, err
	}
	if primary != "" && primary != n.self {
		n.primary = primary
	}
	if n.role == RolePrimary {
		n.role = RoleFenced
		n.logf("replication: fenced by term %d (primary %s)", term, primary)
		return true, nil
	}
	return false, nil
}

// Snapshot returns a consistent (role, term, primary) triple.
func (n *Node) Snapshot() (Role, uint64, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	primary := n.primary
	if n.role == RolePrimary {
		primary = n.self
	}
	return n.role, n.term, primary
}
