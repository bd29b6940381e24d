// Package dashboard serves a read-only operations view of a BrowserFlow
// deployment over HTTP: database sizes, registered services with their
// label pairs, tracked segments with labels, and the audit trail. IT
// departments deploy it next to the policy engine to monitor the
// enterprise-wide state the paper's §2 scenario assumes.
package dashboard

import (
	"fmt"
	"html"
	"net/http"
	"strings"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/tdm"
)

// Handler is the dashboard HTTP handler.
type Handler struct {
	tracker  *disclosure.Tracker
	registry *tdm.Registry
	mux      *http.ServeMux
}

var _ http.Handler = (*Handler)(nil)

// New returns a Handler over the given deployment state.
func New(tracker *disclosure.Tracker, registry *tdm.Registry) (*Handler, error) {
	if tracker == nil || registry == nil {
		return nil, fmt.Errorf("dashboard: tracker and registry are required")
	}
	h := &Handler{tracker: tracker, registry: registry, mux: http.NewServeMux()}
	h.mux.HandleFunc("/", h.overview)
	h.mux.HandleFunc("/services", h.services)
	h.mux.HandleFunc("/segments", h.segments)
	h.mux.HandleFunc("/audit", h.audit)
	return h, nil
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) overview(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	p := h.tracker.Paragraphs().Stats()
	d := h.tracker.Documents().Stats()
	var sb strings.Builder
	writeHeader(&sb, "Overview")
	sb.WriteString("<table>")
	row := func(k string, v interface{}) {
		fmt.Fprintf(&sb, "<tr><td>%s</td><td>%v</td></tr>", html.EscapeString(k), v)
	}
	row("paragraph segments", p.Segments)
	row("paragraph hashes", p.DistinctHashes)
	row("paragraph postings", p.Postings)
	row("approx memory", fmt.Sprintf("%.1f MB", float64(p.ApproxBytes+d.ApproxBytes)/(1<<20)))
	row("document segments", d.Segments)
	row("document hashes", d.DistinctHashes)
	row("services", len(h.registry.Services()))
	row("audit entries", h.registry.Audit().Len())
	sb.WriteString("</table>")
	writeFooter(&sb)
	writePage(w, sb.String())
}

func (h *Handler) services(w http.ResponseWriter, _ *http.Request) {
	var sb strings.Builder
	writeHeader(&sb, "Services")
	sb.WriteString("<table><tr><th>name</th><th>privilege (Lp)</th><th>confidentiality (Lc)</th></tr>")
	for _, svc := range h.registry.Services() {
		fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td><td>%s</td></tr>",
			html.EscapeString(svc.Name),
			html.EscapeString(svc.Privilege.String()),
			html.EscapeString(svc.Confidentiality.String()))
	}
	sb.WriteString("</table>")
	writeFooter(&sb)
	writePage(w, sb.String())
}

func (h *Handler) segments(w http.ResponseWriter, _ *http.Request) {
	var sb strings.Builder
	writeHeader(&sb, "Segments")
	sb.WriteString("<table><tr><th>segment</th><th>label</th><th>fingerprint</th><th>threshold</th></tr>")
	db := h.tracker.Paragraphs()
	for _, seg := range db.Segments() {
		labelStr := "(none)"
		if label := h.registry.Label(seg); label != nil {
			labelStr = label.String()
		}
		size := 0
		if fp, ok := db.Fingerprint(seg); ok {
			size = fp.Len()
		}
		fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td><td>%d hashes</td><td>%.2f</td></tr>",
			html.EscapeString(string(seg)), html.EscapeString(labelStr), size, db.Threshold(seg))
	}
	sb.WriteString("</table>")
	writeFooter(&sb)
	writePage(w, sb.String())
}

func (h *Handler) audit(w http.ResponseWriter, _ *http.Request) {
	var sb strings.Builder
	writeHeader(&sb, "Audit trail")
	sb.WriteString("<table><tr><th>#</th><th>time</th><th>action</th><th>user</th><th>tag</th><th>segment</th><th>service</th><th>justification</th></tr>")
	for _, e := range h.registry.Audit().Entries() {
		fmt.Fprintf(&sb, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			e.Seq, e.Time.Format("2006-01-02 15:04:05"),
			html.EscapeString(string(e.Action)), html.EscapeString(e.User),
			html.EscapeString(e.Tag), html.EscapeString(e.Segment),
			html.EscapeString(e.Service), html.EscapeString(e.Justification))
	}
	sb.WriteString("</table>")
	writeFooter(&sb)
	writePage(w, sb.String())
}

func writeHeader(sb *strings.Builder, title string) {
	sb.WriteString("<html><head><title>BrowserFlow — ")
	sb.WriteString(html.EscapeString(title))
	sb.WriteString(`</title><style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: 4px 10px; text-align: left; }
nav a { margin-right: 1em; }
</style></head><body>`)
	sb.WriteString(`<nav><a href="./">overview</a><a href="services">services</a><a href="segments">segments</a><a href="audit">audit</a></nav>`)
	sb.WriteString("<h1>" + html.EscapeString(title) + "</h1>")
}

func writeFooter(sb *strings.Builder) {
	sb.WriteString("</body></html>")
}

func writePage(w http.ResponseWriter, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, body)
}
