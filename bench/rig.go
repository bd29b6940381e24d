package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/lsds/browserflow"
	"github.com/lsds/browserflow/internal/admission"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// A rig is one deployment shape of the system, built only from the
// program's public constructors. The four workloads differ in their rig and
// in the op stream they push through it; the phase skeleton is shared.
type rig interface {
	// caller returns the handle client i issues ops through. In-process
	// rigs share one; HTTP rigs give each client its own keep-alive
	// connection.
	caller(i int) caller

	// ingest observes corpus paragraphs through the rig's bulk write path.
	ingest(pars []corpusPar) error

	// engines returns the middleware of every node, for the public Stats
	// and the standalone stage timings of the traced pass.
	engines() []*browserflow.Middleware

	// persist makes the current state durable (snapshot or checkpoint).
	persist() (persisted, error)

	// recoverOnce shuts the rig down cleanly, reopens it from disk and
	// returns how long the reopen took.
	recoverOnce() (time.Duration, error)

	// pipeline returns the admission pipeline in front of the engine, nil
	// when the rig has none or its requests bypass it.
	pipeline() *admission.Pipeline

	close() error
}

// persisted is what a persist left on disk: the snapshot or newest
// checkpoint, the live WAL segments beside it, and how long writing took.
// Older checkpoints are retained spares, not live data, and are not counted.
type persisted struct {
	checkpointBytes int64
	walBytes        int64
	took            time.Duration
}

func (p persisted) diskBytes() int64 { return p.checkpointBytes + p.walBytes }

// caller issues single ops. Implementations are used by one goroutine.
type caller interface {
	do(o *op) (verdict, error)
}

// rigConfig is what a workload fixes about its rig.
type rigConfig struct {
	dir    string         // scratch directory for this rig's files
	policy string         // path of the policy file
	fsync  wal.SyncPolicy // WAL policy of durable rigs
	tr     *tracer        // nil on untraced runs
}

func policyVerdict(v policy.Verdict) verdict {
	return verdict{decision: v.Decision.String(), violating: joinTags(v.Violating)}
}

func clientVerdict(v tagserver.Verdict) verdict {
	return verdict{decision: v.Decision, violating: joinTags(v.Violating)}
}

func joinTags(tags []tdm.Tag) string {
	switch len(tags) {
	case 0:
		return ""
	case 1:
		return string(tags[0])
	}
	ss := make([]string, len(tags))
	for i, t := range tags {
		ss[i] = string(t)
	}
	sort.Strings(ss)
	return strings.Join(ss, ",")
}

// --- in-process rigs --------------------------------------------------------

// engineCaller calls the policy engine directly, as the paper's plug-in
// calls the middleware from the browser's own thread.
type engineCaller struct{ e *policy.Engine }

func (c engineCaller) do(o *op) (verdict, error) {
	var (
		v   policy.Verdict
		err error
	)
	switch o.kind {
	case opObserve:
		v, err = c.e.ObserveEdit(o.seg, o.service, o.text)
	case opCheck:
		v, err = c.e.CheckText(o.text, o.service)
	case opUpload:
		v, err = c.e.CheckUpload(o.seg, o.service)
	}
	return policyVerdict(v), err
}

func ingestEngine(e *policy.Engine, pars []corpusPar) error {
	for i := range pars {
		if _, err := e.ObserveEdit(pars[i].seg, pars[i].service, pars[i].text); err != nil {
			return fmt.Errorf("ingest %s: %w", pars[i].seg, err)
		}
	}
	return nil
}

// engineRig is browserflow.Middleware with no journal: engine-edit.
type engineRig struct {
	cfg rigConfig
	mw  *browserflow.Middleware
}

func newEngineRig(cfg rigConfig) (rig, error) {
	mw, err := browserflow.NewFromPolicyFile(cfg.policy)
	if err != nil {
		return nil, err
	}
	return &engineRig{cfg: cfg, mw: mw}, nil
}

func (r *engineRig) caller(int) caller                  { return engineCaller{r.mw.Engine()} }
func (r *engineRig) ingest(pars []corpusPar) error      { return ingestEngine(r.mw.Engine(), pars) }
func (r *engineRig) engines() []*browserflow.Middleware { return []*browserflow.Middleware{r.mw} }
func (r *engineRig) pipeline() *admission.Pipeline      { return nil }
func (r *engineRig) close() error                       { return nil }
func (r *engineRig) snapshot() string                   { return filepath.Join(r.cfg.dir, "state.snap") }

func (r *engineRig) persist() (persisted, error) {
	start := time.Now()
	if err := r.mw.Save(r.snapshot(), ""); err != nil {
		return persisted{}, err
	}
	took := time.Since(start)
	st, err := os.Stat(r.snapshot())
	if err != nil {
		return persisted{}, err
	}
	return persisted{checkpointBytes: st.Size(), took: took}, nil
}

func (r *engineRig) recoverOnce() (time.Duration, error) {
	r.mw = nil
	runtime.GC() // a restarted process starts with an empty heap
	start := time.Now()
	mw, err := browserflow.NewFromPolicyFile(r.cfg.policy)
	if err != nil {
		return 0, err
	}
	if err := mw.Load(r.snapshot(), ""); err != nil {
		return 0, err
	}
	r.mw = mw
	return time.Since(start), nil
}

// durableRig is policy.Engine + store.Durable in one process, no HTTP:
// corpus.
type durableRig struct {
	cfg     rigConfig
	mw      *browserflow.Middleware
	durable *store.Durable
}

func newDurableRig(cfg rigConfig) (rig, error) {
	r := &durableRig{cfg: cfg}
	if err := r.open(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *durableRig) open() error {
	mw, durable, err := openDurable(r.cfg, noNode)
	if err != nil {
		return err
	}
	r.mw, r.durable = mw, durable
	return nil
}

func (r *durableRig) caller(int) caller                  { return engineCaller{r.mw.Engine()} }
func (r *durableRig) ingest(pars []corpusPar) error      { return ingestEngine(r.mw.Engine(), pars) }
func (r *durableRig) engines() []*browserflow.Middleware { return []*browserflow.Middleware{r.mw} }
func (r *durableRig) pipeline() *admission.Pipeline      { return nil }
func (r *durableRig) close() error                       { return r.durable.Close() }

func (r *durableRig) persist() (persisted, error) {
	return checkpoint(r.cfg.dir, r.durable)
}

func (r *durableRig) recoverOnce() (time.Duration, error) {
	if err := r.durable.Close(); err != nil {
		return 0, err
	}
	r.mw, r.durable = nil, nil
	runtime.GC() // a restarted process starts with an empty heap
	start := time.Now()
	if err := r.open(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// openDurable builds a middleware from the policy file and recovers its
// state from cfg.dir the way bftagd does: OpenDurable, re-register the
// policy file's services the checkpoint restore dropped, install the
// journal. Background checkpoints and scrubbing stay off so no timer fires
// inside a timed phase.
func openDurable(cfg rigConfig, node int) (*browserflow.Middleware, *store.Durable, error) {
	mw, err := browserflow.NewFromPolicyFile(cfg.policy)
	if err != nil {
		return nil, nil, err
	}
	services := mw.Registry().Services()
	opts := store.DurableOptions{
		Dir:           cfg.dir,
		Fsync:         cfg.fsync,
		FsyncInterval: wal.DefaultSyncInterval,
		FailOpen:      mw.Engine().Mode() == policy.ModeAdvisory,
	}
	if cfg.tr != nil {
		opts.FS = &tracedFS{t: cfg.tr, node: node}
	}
	durable, err := store.OpenDurable(opts, mw.Tracker(), mw.Registry())
	if err != nil {
		return nil, nil, fmt.Errorf("open %s: %w", cfg.dir, err)
	}
	for _, svc := range services {
		err := mw.Registry().RegisterService(svc.Name, svc.Privilege, svc.Confidentiality)
		if err != nil && !errors.Is(err, tdm.ErrServiceExists) {
			durable.Close()
			return nil, nil, err
		}
	}
	var journal policy.Journal = durable
	if cfg.tr != nil {
		journal = &tracedJournal{Journal: durable, t: cfg.tr, node: node}
	}
	mw.Engine().SetJournal(journal)
	return mw, durable, nil
}

// checkpoint forces a checkpoint and measures what the directory then
// holds.
func checkpoint(dir string, d *store.Durable) (persisted, error) {
	start := time.Now()
	if err := d.Checkpoint(); err != nil {
		return persisted{}, err
	}
	out := persisted{took: time.Since(start)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return persisted{}, err
	}
	var newest uint64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return persisted{}, err
		}
		if seg, ok := store.ParseCheckpointName(e.Name()); ok {
			if seg >= newest {
				newest, out.checkpointBytes = seg, info.Size()
			}
		} else if _, ok := wal.ParseSegmentName(e.Name()); ok {
			out.walBytes += info.Size()
		}
	}
	return out, nil
}

// --- HTTP rigs --------------------------------------------------------------

// node is one tag-service process's worth of wiring — what bftagd builds —
// serving on a loopback listener.
type node struct {
	cfg      rigConfig
	id       int // partition node index, noNode for a standalone node
	part     tagserver.PartitionState
	mw       *browserflow.Middleware
	durable  *store.Durable
	pipe     *admission.Pipeline
	srv      *http.Server
	served   chan error
	url      string
	listener net.Listener
}

// listen reserves the node's address; serving starts with open. A cluster
// needs every address before it can build the ring its nodes are opened
// with.
func (n *node) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.listener = ln
	n.url = "http://" + ln.Addr().String()
	return nil
}

func (n *node) open() error {
	if n.listener == nil {
		// Reopen on the address clients and the ring already know.
		if err := n.listen(strings.TrimPrefix(n.url, "http://")); err != nil {
			return err
		}
	}
	mw, durable, err := openDurable(n.cfg, n.id)
	if err != nil {
		return err
	}
	n.mw, n.durable = mw, durable
	o := obs.New(nil, 0)
	var engine admission.Engine = mw.Engine()
	if n.cfg.tr != nil {
		engine = &tracedEngine{t: n.cfg.tr, node: n.id, next: engine}
	}
	// bftagd's defaults: coalesce window 0, 4096/256 queue bounds, one
	// worker per core.
	n.pipe, err = admission.New(engine, admission.Config{Obs: o})
	if err != nil {
		return err
	}
	opts := []tagserver.ServerOption{
		tagserver.WithObs(o),
		tagserver.WithAdmission(n.pipe),
		tagserver.WithPolicyInfo(mw.PolicyHash(), len(mw.Registry().Services())),
		tagserver.WithDurabilitySource(func() (store.DurabilityStats, bool) { return durable.Stats(), true }),
	}
	if n.part != nil {
		opts = append(opts, tagserver.WithPartition(n.part))
	}
	server, err := tagserver.NewServer(mw.Engine(), opts...)
	if err != nil {
		return err
	}
	var handler http.Handler = server
	if n.cfg.tr != nil {
		handler = tracedHandler(n.cfg.tr, layerHandler, n.id, handler)
	}
	n.srv = &http.Server{
		Handler:           handler,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       20 * time.Second,
	}
	srv, ln, served := n.srv, n.listener, make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	n.served = served
	n.listener = nil // owned by srv from here on
	return nil
}

// close is bftagd's SIGTERM sequence: stop serving, drain admission, final
// checkpoint and WAL close.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	<-n.served
	if perr := n.pipe.Close(ctx); err == nil {
		err = perr
	}
	if derr := n.durable.Close(); err == nil {
		err = derr
	}
	return err
}

func (n *node) reopen() (time.Duration, error) {
	if err := n.close(); err != nil {
		return 0, err
	}
	n.mw, n.durable, n.pipe, n.srv = nil, nil, nil, nil
	runtime.GC() // a restarted process starts with an empty heap
	start := time.Now()
	if err := n.open(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// httpCaller is one device: a tagserver.Client on its own keep-alive
// connection. Text is fingerprinted client-side; only hashes travel.
type httpCaller struct {
	c   *tagserver.Client
	ctx context.Context
}

func newHTTPCaller(url, device string, tr *tracer) (*httpCaller, error) {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	if tr != nil {
		rt = &tracedTransport{t: tr, next: rt, layer: layerRTT}
	}
	c, err := tagserver.NewClient(url, device, fingerprint.DefaultConfig(), tagserver.WithTransport(rt))
	if err != nil {
		return nil, err
	}
	return &httpCaller{c: c, ctx: context.Background()}, nil
}

func (h *httpCaller) do(o *op) (verdict, error) {
	var (
		v   tagserver.Verdict
		err error
	)
	switch o.kind {
	case opObserve:
		v, err = h.c.ObserveCtx(h.ctx, o.service, o.seg, o.text)
	case opCheck:
		v, err = h.c.CheckCtx(h.ctx, o.text, o.service)
	case opUpload:
		v, err = h.c.CheckUploadCtx(h.ctx, o.seg, o.service)
	}
	return clientVerdict(v), err
}

// ingestBatchSize is the number of paragraphs per /v1/observe/batch call
// (the bulk lane).
const ingestBatchSize = 32

func (h *httpCaller) ingest(pars []corpusPar) error {
	items := make([]tagserver.BatchItem, 0, ingestBatchSize)
	for start := 0; start < len(pars); {
		service := pars[start].service
		items = items[:0]
		end := start
		for end < len(pars) && len(items) < ingestBatchSize && pars[end].service == service {
			items = append(items, tagserver.BatchItem{Seg: pars[end].seg, Text: pars[end].text})
			end++
		}
		if _, err := h.c.ObserveBatchCtx(h.ctx, service, items); err != nil {
			return fmt.Errorf("ingest batch at %s: %w", pars[start].seg, err)
		}
		start = end
	}
	return nil
}

// httpRig is shared by node-edit (one node) and cluster (three partition
// nodes behind the routing tier): clients talk to front.
type httpRig struct {
	cfg     rigConfig
	nodes   []*node
	front   string // URL clients dial
	callers []*httpCaller

	// routing tier (cluster only)
	proxy       *http.Server
	proxyServed chan error
}

func (r *httpRig) dial() error {
	r.callers = r.callers[:0]
	for i := 0; i < clients; i++ {
		c, err := newHTTPCaller(r.front, fmt.Sprintf("bench-%d", i), r.cfg.tr)
		if err != nil {
			return err
		}
		r.callers = append(r.callers, c)
	}
	return nil
}

func (r *httpRig) caller(i int) caller           { return r.callers[i] }
func (r *httpRig) ingest(pars []corpusPar) error { return r.callers[0].ingest(pars) }
func (r *httpRig) pipeline() *admission.Pipeline {
	if len(r.nodes) > 1 {
		return nil // partition-mode requests go to the engine directly
	}
	return r.nodes[0].pipe
}
func (r *httpRig) engines() []*browserflow.Middleware {
	out := make([]*browserflow.Middleware, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.mw
	}
	return out
}

func (r *httpRig) persist() (persisted, error) {
	var sum persisted
	for _, n := range r.nodes {
		p, err := checkpoint(n.cfg.dir, n.durable)
		if err != nil {
			return persisted{}, err
		}
		sum.checkpointBytes += p.checkpointBytes
		sum.walBytes += p.walBytes
		sum.took += p.took
	}
	return sum, nil
}

// recoverOnce restarts every node in turn; the reported time is the sum of
// the nodes' reopen times (sequential, as one operator restarting a cluster
// node by node).
func (r *httpRig) recoverOnce() (time.Duration, error) {
	var total time.Duration
	for _, n := range r.nodes {
		d, err := n.reopen()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func (r *httpRig) close() error {
	var err error
	if r.proxy != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = r.proxy.Shutdown(ctx)
		cancel()
		<-r.proxyServed
	}
	for _, n := range r.nodes {
		if n.srv == nil {
			continue
		}
		if cerr := n.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// newNodeRig is node-edit: one node at bftagd defaults.
func newNodeRig(cfg rigConfig) (rig, error) {
	n := &node{cfg: cfg, id: noNode}
	if err := n.listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if err := n.open(); err != nil {
		return nil, err
	}
	r := &httpRig{cfg: cfg, nodes: []*node{n}, front: n.url}
	if err := r.dial(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// fixedRing is the PartitionState of a node in a cluster whose ring never
// changes during the run.
type fixedRing struct {
	id   string
	ring *partition.Ring
	enc  []byte
}

func (f *fixedRing) ID() string          { return f.id }
func (f *fixedRing) RingVersion() uint64 { return f.ring.Version }
func (f *fixedRing) Owns(seg segment.ID) bool {
	p, ok := f.ring.ByID(f.id)
	return ok && p.Contains(segment.Key(seg))
}
func (f *fixedRing) KeyRange() (uint32, uint32) {
	p, _ := f.ring.ByID(f.id)
	return p.Lo, p.Hi
}
func (f *fixedRing) Sole() bool        { return len(f.ring.Partitions) == 1 }
func (f *fixedRing) Resharding() bool  { return false }
func (f *fixedRing) RingBytes() []byte { return f.enc }
func (f *fixedRing) SetRing([]byte) (uint64, error) {
	return 0, fmt.Errorf("bench: the ring is fixed")
}

const clusterNodes = 3

// newClusterRig is cluster: three partition nodes, each owning a third of
// the key space, behind partition.NewRouter + partition.NewHandler — what
// bfproxy serves.
func newClusterRig(cfg rigConfig) (rig, error) {
	r := &httpRig{cfg: cfg}
	ring := &partition.Ring{Version: 1}
	width := (uint64(1) << 32) / clusterNodes
	for i := 0; i < clusterNodes; i++ {
		ncfg := cfg
		ncfg.dir = filepath.Join(cfg.dir, fmt.Sprintf("p%d", i))
		n := &node{cfg: ncfg, id: i}
		if err := n.listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, n)
		hi := uint32(uint64(i+1)*width - 1)
		if i == clusterNodes-1 {
			hi = ^uint32(0)
		}
		ring.Partitions = append(ring.Partitions, partition.Partition{
			ID: fmt.Sprintf("p%d", i), Lo: uint32(uint64(i) * width), Hi: hi, Nodes: []string{n.url},
		})
	}
	if err := ring.Validate(); err != nil {
		return nil, err
	}
	enc, err := partition.EncodeRing(ring)
	if err != nil {
		return nil, err
	}
	nodeOf := make(map[string]int, clusterNodes)
	for i, n := range r.nodes {
		n.part = &fixedRing{id: ring.Partitions[i].ID, ring: ring, enc: enc}
		if err := n.open(); err != nil {
			r.close()
			return nil, err
		}
		nodeOf[strings.TrimPrefix(n.url, "http://")] = i
	}

	// bfproxy gives the router no client options, so its legs share
	// http.DefaultTransport; the traced pass wraps exactly that.
	ropts := partition.RouterOptions{FP: fingerprint.DefaultConfig()}
	if cfg.tr != nil {
		legs := &tracedTransport{t: cfg.tr, next: http.DefaultTransport, layer: layerLeg, nodeOf: nodeOf}
		ropts.ClientOptions = []tagserver.ClientOption{tagserver.WithTransport(legs)}
	}
	router, err := partition.NewRouter(ring, ropts)
	if err != nil {
		r.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	handler := partition.NewHandler(router)
	if cfg.tr != nil {
		handler = tracedHandler(cfg.tr, layerProxy, noNode, handler)
	}
	r.proxy = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 20 * time.Second}
	r.proxyServed = make(chan error, 1)
	go func() { r.proxyServed <- r.proxy.Serve(ln) }()
	r.front = "http://" + ln.Addr().String()
	router.Prime(context.Background())
	if err := r.dial(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}
