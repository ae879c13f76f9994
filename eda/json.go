package eda

import (
	"encoding/json"
	"fmt"
)

// ReportWire is the stable machine-readable form of a Report. The CLI's
// -json flag and the edaserver job endpoints both encode through it, and
// the eda/client package decodes into the same type, so there is exactly
// one report wire format in the system and a field added here reaches
// every producer and consumer by construction. Detail is the
// framework-native result in its natural JSON shape, kept raw so typed
// clients can decode it against the framework's result struct.
type ReportWire struct {
	Framework string             `json:"framework"`
	OK        bool               `json:"ok"`
	Summary   string             `json:"summary"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Spec      Spec               `json:"spec"`
	Detail    json.RawMessage    `json:"detail,omitempty"`
}

// JSON encodes the report in the shared wire format. A Detail value that
// does not marshal (no built-in framework produces one, but registry
// embedders may) degrades to a descriptive placeholder string instead of
// failing the whole report.
func (r *Report) JSON() ([]byte, error) {
	detail, err := json.Marshal(r.Detail)
	if err != nil {
		detail, _ = json.Marshal(fmt.Sprintf("unencodable detail (%T): %v", r.Detail, err))
	}
	if r.Detail == nil {
		detail = nil
	}
	return json.Marshal(ReportWire{
		Framework: r.Framework,
		OK:        r.OK,
		Summary:   r.Summary,
		Metrics:   r.Metrics,
		Spec:      r.Spec,
		Detail:    detail,
	})
}
