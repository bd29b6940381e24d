package tagserver

import (
	"context"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
)

// RemoteEngine adapts a Client to the plug-in's Engine interface, so a
// device's BrowserFlow plug-in makes its decisions against the shared
// enterprise tag service instead of a device-local database. Text is
// fingerprinted on the device; only hashes cross the wire.
type RemoteEngine struct {
	client *Client
	mode   policy.Mode
}

// NewRemoteEngine wraps client. The mode is advisory/enforcing/encrypting
// exactly like a local engine; the server decides violations, the mode
// string in its verdicts reflects the *server's* configuration, which this
// adapter translates faithfully.
func NewRemoteEngine(client *Client, mode policy.Mode) *RemoteEngine {
	return &RemoteEngine{client: client, mode: mode}
}

// Mode reports the enforcement mode.
func (r *RemoteEngine) Mode() policy.Mode { return r.mode }

// ObserveEdit records a paragraph edit with the shared service.
func (r *RemoteEngine) ObserveEdit(seg segment.ID, service, text string) (policy.Verdict, error) {
	hashes, err := r.client.hashes(text)
	if err != nil {
		return policy.Verdict{}, err
	}
	v, err := r.client.ObserveHashes(context.Background(), service, seg, hashes, "")
	if err != nil {
		return policy.Verdict{}, err
	}
	return toPolicyVerdict(v, seg, service)
}

// ObserveDocumentEdit records a whole-page observation with the shared
// service.
func (r *RemoteEngine) ObserveDocumentEdit(doc segment.ID, service, text string) (policy.Verdict, error) {
	hashes, err := r.client.hashes(text)
	if err != nil {
		return policy.Verdict{}, err
	}
	v, err := r.client.ObserveHashes(context.Background(), service, doc, hashes, "document")
	if err != nil {
		return policy.Verdict{}, err
	}
	return toPolicyVerdict(v, doc, service)
}

// CheckText evaluates ad-hoc text against a destination service.
func (r *RemoteEngine) CheckText(text, destService string) (policy.Verdict, error) {
	v, err := r.client.Check(text, destService)
	if err != nil {
		return policy.Verdict{}, err
	}
	return toPolicyVerdict(v, "", destService)
}

func toPolicyVerdict(v Verdict, seg segment.ID, service string) (policy.Verdict, error) {
	decision, err := policy.ParseDecision(v.Decision)
	if err != nil {
		return policy.Verdict{}, err
	}
	out := policy.Verdict{
		Decision:  decision,
		Seg:       seg,
		Service:   service,
		Violating: v.Violating,
	}
	for _, src := range v.Sources {
		out.Sources = append(out.Sources, disclosure.Source{Seg: src.Seg, Disclosure: src.Disclosure})
	}
	return out, nil
}
