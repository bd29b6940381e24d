package partition

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tagserver"
)

// NewHandler exposes the router over the node wire protocol: a
// tagserver.Client built for one node or one replica group talks to the
// routing tier without changes. Endpoints
// that make no sense on a stateless tier (/v1/metrics) are not served.
func NewHandler(rt *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/observe", rt.handleObserve)
	mux.HandleFunc("/v1/observe/batch", rt.handleObserveBatch)
	mux.HandleFunc("/v1/check", rt.handleCheck)
	mux.HandleFunc("/v1/upload", rt.handleUpload)
	mux.HandleFunc("/v1/suppress", rt.handleSuppress)
	mux.HandleFunc("/v1/label", rt.handleLabel)
	mux.HandleFunc("/v1/stats", rt.handleStats)
	mux.HandleFunc("/v1/part/ring", rt.handleRing)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	return mux
}

// routerHealth is the routing tier's /healthz document.
type routerHealth struct {
	Status      string      `json:"status"`
	Role        string      `json:"role"`
	RingVersion uint64      `json:"ringVersion"`
	Clock       uint64      `json:"clock"`
	Partitions  []Partition `json:"partitions"`
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeRouterError maps routed-call failures onto the node protocol's
// status classes so client-side retry/backoff behaviour carries over.
func writeRouterError(w http.ResponseWriter, err error) {
	if oe, ok := tagserver.AsOverloaded(err); ok {
		if oe.RetryAfter > 0 {
			secs := int(oe.RetryAfter / time.Second)
			if oe.RetryAfter%time.Second != 0 {
				secs++
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	if tagserver.IsUnavailable(err) {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if _, ok := tagserver.AsNotPrimary(err); ok {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	// A deliberate node answer (e.g. 404 unknown segment) relays verbatim,
	// keeping partitioned error responses byte-identical to a single node.
	var se *tagserver.StatusError
	if errors.As(err, &se) {
		http.Error(w, se.Message, se.Code)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// decodePost bounds the body as a node does (a request a single node
// answers 413 must not succeed because the tier split it into legs that
// each fit) and refuses an oversized one in the node's words, before any
// leg is sent.
func decodePost(w http.ResponseWriter, r *http.Request, into interface{}) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, tagserver.DefaultMaxBodyBytes)).Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (rt *Router) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req tagserver.ObserveRequest
	if !decodePost(w, r, &req) {
		return
	}
	if req.Seg == "" || req.Service == "" {
		http.Error(w, "seg and service required", http.StatusBadRequest)
		return
	}
	v, err := rt.ObserveHashes(r.Context(), req.Service, req.Seg, req.Hashes, req.Granularity)
	if err != nil {
		writeRouterError(w, err)
		return
	}
	writeJSON(w, v)
}

func (rt *Router) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	var req tagserver.BatchObserveRequest
	if !decodePost(w, r, &req) {
		return
	}
	if req.Service == "" {
		http.Error(w, "service required", http.StatusBadRequest)
		return
	}
	// Items route independently: a batch may span partitions, so there is
	// no single home to hand the whole flush to.
	resp := tagserver.BatchObserveResponse{Verdicts: make([]tagserver.Verdict, 0, len(req.Items))}
	for _, item := range req.Items {
		if item.Seg == "" {
			http.Error(w, "seg required", http.StatusBadRequest)
			return
		}
		v, err := rt.ObserveHashes(r.Context(), req.Service, item.Seg, item.Hashes, item.Granularity)
		if err != nil {
			writeRouterError(w, err)
			return
		}
		resp.Verdicts = append(resp.Verdicts, v)
	}
	writeJSON(w, resp)
}

func (rt *Router) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req tagserver.CheckRequest
	if !decodePost(w, r, &req) {
		return
	}
	if req.Dest == "" {
		http.Error(w, "dest required", http.StatusBadRequest)
		return
	}
	v, err := rt.CheckHashes(r.Context(), req.Dest, req.Hashes)
	if err != nil {
		writeRouterError(w, err)
		return
	}
	writeJSON(w, v)
}

func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req tagserver.UploadRequest
	if !decodePost(w, r, &req) {
		return
	}
	if req.Seg == "" || req.Dest == "" {
		http.Error(w, "seg and dest required", http.StatusBadRequest)
		return
	}
	v, err := rt.Upload(r.Context(), req.Seg, req.Dest)
	if err != nil {
		writeRouterError(w, err)
		return
	}
	writeJSON(w, v)
}

func (rt *Router) handleSuppress(w http.ResponseWriter, r *http.Request) {
	var req tagserver.SuppressRequest
	if !decodePost(w, r, &req) {
		return
	}
	if err := rt.Suppress(r.Context(), req.User, req.Seg, req.Tag, req.Justification); err != nil {
		writeRouterError(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (rt *Router) handleLabel(w http.ResponseWriter, r *http.Request) {
	seg := segment.ID(r.URL.Query().Get("seg"))
	if seg == "" {
		http.Error(w, "seg required", http.StatusBadRequest)
		return
	}
	label, err := rt.Label(r.Context(), seg)
	if err != nil {
		writeRouterError(w, err)
		return
	}
	writeJSON(w, label)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := rt.Stats(r.Context())
	if err != nil {
		writeRouterError(w, err)
		return
	}
	writeJSON(w, stats)
}

// handleRing serves the installed ring in the framed on-disk format, so
// clients and sibling routers bootstrap from the tier itself.
func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	ring := rt.Ring()
	encoded, err := EncodeRing(ring)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set(tagserver.HeaderRingVersion, strconv.FormatUint(ring.Version, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(encoded)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ring := rt.Ring()
	writeJSON(w, routerHealth{
		Status:      "ok",
		Role:        "router",
		RingVersion: ring.Version,
		Clock:       rt.Clock(),
		Partitions:  ring.Partitions,
	})
}
