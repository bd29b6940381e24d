package tagserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// ringState is a partition whose ring is whatever was last installed; an
// encoded ring here is its version in decimal, since the server passes the
// bytes through without decoding them.
type ringState struct {
	solePartition
	version uint64
	ring    []byte
}

func (r *ringState) RingVersion() uint64 { return r.version }
func (r *ringState) RingBytes() []byte   { return r.ring }

func (r *ringState) SetRing(encoded []byte) (uint64, error) {
	v, err := strconv.ParseUint(string(encoded), 10, 64)
	if err != nil {
		return 0, err
	}
	if v <= r.version {
		return 0, fmt.Errorf("ring v%d is not newer than v%d", v, r.version)
	}
	r.version, r.ring = v, encoded
	return v, nil
}

// TestPartRingEndpoint pins /v1/part/ring on a partition node: GET answers
// 404 until a ring is installed, then the encoded ring under its version
// header; POST installs a newer ring and answers its version, and refuses
// one the partition state rejects; other methods are 405.
func TestPartRingEndpoint(t *testing.T) {
	_, engine := newService(t)
	state := &ringState{}
	server, err := NewServer(engine, WithPartition(state))
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, httptest.NewRequest(method, "/v1/part/ring", strings.NewReader(body)))
		return rec
	}

	if rec := do(http.MethodGet, ""); rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "no ring installed") {
		t.Errorf("GET before install: %d %q, want 404 no ring installed", rec.Code, rec.Body)
	}

	rec := do(http.MethodPost, "3")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST v3: status %d: %s", rec.Code, rec.Body)
	}
	var installed PartRingResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &installed); err != nil {
		t.Fatal(err)
	}
	if installed.Version != 3 || rec.Header().Get(HeaderRingVersion) != "3" {
		t.Errorf("POST v3 answered version %d, header %q; want 3", installed.Version, rec.Header().Get(HeaderRingVersion))
	}

	rec = do(http.MethodGet, "")
	if rec.Code != http.StatusOK || rec.Body.String() != "3" {
		t.Errorf("GET after install: %d %q, want the installed ring", rec.Code, rec.Body)
	}
	if v, ct := rec.Header().Get(HeaderRingVersion), rec.Header().Get("Content-Type"); v != "3" || ct != "application/octet-stream" {
		t.Errorf("GET headers: version %q, content type %q", v, ct)
	}

	if rec := do(http.MethodPost, "2"); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "not newer") {
		t.Errorf("POST stale v2: %d %q, want 400 naming the rejection", rec.Code, rec.Body)
	}
	if state.version != 3 {
		t.Errorf("stale POST moved the ring to v%d", state.version)
	}
	if rec := do(http.MethodPut, "4"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("PUT: status %d, want 405", rec.Code)
	}
}
