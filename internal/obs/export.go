package obs

import (
	"encoding/json"
	"io"
)

// The flat metrics exporter: a JSON dump of the Snapshot's metric maps
// plus span-category totals.

// metricsDump is the JSON schema of WriteMetricsJSON.
type metricsDump struct {
	Counters     map[string]float64           `json:"counters"`
	Gauges       map[string]float64           `json:"gauges"`
	Histograms   map[string]HistogramSnapshot `json:"histograms"`
	SpanSeconds  map[string]float64           `json:"span_seconds"`
	SpanCount    int                          `json:"span_count"`
	DroppedSpans int64                        `json:"dropped_spans"`
}

// WriteMetricsJSON writes the recorder's metrics as a flat JSON object.
func (r *Recorder) WriteMetricsJSON(w io.Writer) error {
	return r.Snapshot().WriteMetricsJSON(w)
}

// WriteMetricsJSON writes the snapshot's metrics as a flat JSON object
// with keys counters, gauges, histograms, span_seconds, span_count and
// dropped_spans.
func (s Snapshot) WriteMetricsJSON(w io.Writer) error {
	dump := metricsDump{
		Counters:     s.Counters,
		Gauges:       s.Gauges,
		Histograms:   s.Histograms,
		SpanSeconds:  map[string]float64{},
		SpanCount:    len(s.Spans),
		DroppedSpans: s.DroppedSpans,
	}
	for cat, sec := range s.SpanSeconds() {
		dump.SpanSeconds[string(cat)] = sec
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}
