package experiments

import (
	"bytes"
	"fmt"
	"os"
	"sort"

	"compso/internal/compso"
	"compso/internal/obs"
	"compso/internal/train"
)

// ObservedRow is one collective algorithm's per-worker seconds in the
// observed capture, as the cluster attributes them and as the span sums
// add them up.
type ObservedRow struct {
	Algorithm  string  `json:"algorithm"`
	ClusterSec float64 `json:"cluster_s"`
	SpanSec    float64 `json:"span_s"`
}

// CaptureObserved runs one fully instrumented distributed K-FAC + COMPSO
// training job (kfacJob with the adaptive controller and per-transfer
// spans enabled) and writes its Chrome trace and flat metrics dump to the
// given paths (see writeArtifacts).
//
// Before writing anything it self-checks the capture:
//
//   - the trace must carry at least the step, phase, collective, compress
//     and precondition span categories;
//   - the per-algorithm collective span sums must reconcile with the
//     run's AlgSeconds attribution within 1%;
//   - the emitted trace must pass the Chrome trace-event schema
//     validation (required keys, monotonic timestamps).
//
// iters <= 0 selects a small default budget suitable for CI.
func CaptureObserved(iters int, tracePath, metricsPath string) ([]ObservedRow, *Table, error) {
	if iters <= 0 {
		iters = 12
	}
	cfg := kfacJob(iters, obs.NewRecorder(obs.WithTransferSpans(true)), nil)
	cfg.Controller = compso.DefaultController(cfg.Schedule, iters)
	res, err := train.Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("observed run: %w", err)
	}
	snap := res.Metrics
	if snap == nil {
		return nil, nil, fmt.Errorf("observed run returned no metrics snapshot")
	}

	// Category check: the trace must show the full step → phase →
	// collective/compress/precondition hierarchy.
	have := map[obs.Category]bool{}
	for _, cat := range snap.Categories() {
		have[cat] = true
	}
	for _, want := range []obs.Category{
		obs.CatStep, obs.CatPhase, obs.CatCollective, obs.CatCompress, obs.CatPrecondition,
	} {
		if !have[want] {
			return nil, nil, fmt.Errorf("observed trace is missing span category %q (have %v)", want, snap.Categories())
		}
	}

	// Reconciliation: collective span sums (all workers) vs the cluster's
	// own per-algorithm attribution (mean per worker, so scale down).
	perWorker := map[string]float64{}
	for k, v := range snap.AlgSeconds() {
		perWorker[k] = v / float64(cfg.Workers)
	}
	if err := obs.ReconcileAlgSeconds(perWorker, res.AlgSeconds, 0.01); err != nil {
		return nil, nil, fmt.Errorf("span/AlgSeconds reconciliation failed: %w", err)
	}
	if err := writeArtifacts(snap, tracePath, metricsPath); err != nil {
		return nil, nil, err
	}

	var rows []ObservedRow
	for k, v := range res.AlgSeconds {
		rows = append(rows, ObservedRow{Algorithm: k, ClusterSec: v, SpanSec: perWorker[k]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Algorithm < rows[j].Algorithm })
	tb := &Table{
		Title: fmt.Sprintf("Observed run: %d iterations, %d workers, %d spans (%d dropped); span sums reconcile with AlgSeconds within 1%%",
			iters, cfg.Workers, len(snap.Spans), snap.DroppedSpans),
		Headers: []string{"Algorithm", "Cluster s", "Spans s"},
	}
	for _, r := range rows {
		tb.Rows = append(tb.Rows, []string{r.Algorithm, fmtF(r.ClusterSec, 6), fmtF(r.SpanSec, 6)})
	}
	return rows, tb, nil
}

// writeArtifacts writes an instrumented run's Chrome trace, after
// validating it against the trace-event schema, to tracePath and its flat
// metrics dump (JSON) to metricsPath; an empty path skips that artifact.
func writeArtifacts(snap *obs.Snapshot, tracePath, metricsPath string) error {
	if tracePath != "" {
		var buf bytes.Buffer
		if err := snap.WriteChromeTrace(&buf); err != nil {
			return fmt.Errorf("rendering trace: %w", err)
		}
		if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
			return fmt.Errorf("emitted trace failed schema validation: %w", err)
		}
		if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		var buf bytes.Buffer
		if err := snap.WriteMetricsJSON(&buf); err != nil {
			return fmt.Errorf("rendering metrics: %w", err)
		}
		return os.WriteFile(metricsPath, buf.Bytes(), 0o644)
	}
	return nil
}
