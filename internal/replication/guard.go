package replication

import (
	"net/http"
	"strconv"
)

// mutatingPaths are the tag-service endpoints only the primary may
// serve. Reads (/v1/check, /v1/upload, /v1/label, /v1/stats, metrics,
// health) are served by every role; mutations linearise through the
// primary. Serving a read is not a promise that it is current: a
// replica or fenced ex-primary answers from whatever it has applied, so
// a release check asked there can miss an acked observe. Clients
// therefore send reads to the primary too (tagserver.Client routes every
// request to its group's primary);
// what a replica's answers are good for is comparing its state with the
// primary's. /v1/part/query is read-only but still primary-only: a
// scatter contribution must reflect every acked observe, and a replica
// or fenced ex-primary can lag — a stale contribution missing a
// just-observed source would flip a block into an allow, so queries
// 421 off-role and the routing tier rediscovers the real primary
// through the usual redirect chain.
var mutatingPaths = map[string]bool{
	"/v1/observe":       true,
	"/v1/observe/batch": true,
	"/v1/suppress":      true,
	"/v1/part/observe":  true,
	"/v1/part/query":    true,
	"/v1/part/prune":    true,
}

// Guard fences the tag-service API by role: a replica (or fenced
// ex-primary) answers every mutating request with 421 Misdirected
// Request plus the primary's advertised address, and any request
// carrying a higher X-BF-Term fences a stale primary before it can
// accept the write. Wrap the tag server's handler with it.
func Guard(node *Node, next http.Handler, logf func(string, ...interface{})) http.Handler {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !mutatingPaths[r.URL.Path] {
			next.ServeHTTP(w, r)
			return
		}
		// A client that has learned a newer term fences us on contact:
		// we can no longer prove our writes are on the authoritative
		// timeline.
		if v := r.Header.Get(HeaderTerm); v != "" {
			if term, err := strconv.ParseUint(v, 10, 64); err == nil {
				if fenced, ferr := node.ObserveTerm(term, ""); ferr != nil {
					logf("replication: persisting observed term: %v", ferr)
				} else if fenced {
					logf("replication: write fenced this primary at term %d", term)
				}
			}
		}
		if node.Role() != RolePrimary {
			writeError(w, node, http.StatusMisdirectedRequest,
				"node is "+node.Role().String()+": writes must go to the primary")
			return
		}
		next.ServeHTTP(w, r)
	})
}
