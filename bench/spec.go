package main

import (
	"fmt"
	"math"
)

// metricDef is one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may get worse.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics an untraced run reports, on every workload.
// bench_test.go holds this table and perLayer against BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.20},
	{"mean_cr", "ratio", "higher", 0.02},
}

// spanLayers are the layers whose calls the workloads wrap in spans; a
// traced run reports each one's self time per op.
var spanLayers = []string{"compress", "cluster", "train", "serve", "des"}

// perLayer are the metrics a traced run reports: the span self times of the
// traced workload, then the probes' numbers layer by layer.
var perLayer = []metricDef{
	{"compress.span_ms_per_op", "ms", "lower", 0},
	{"cluster.span_ms_per_op", "ms", "lower", 0},
	{"train.span_ms_per_op", "ms", "lower", 0},
	{"serve.span_ms_per_op", "ms", "lower", 0},
	{"des.span_ms_per_op", "ms", "lower", 0},
	{"bench.glue_ms_per_op", "ms", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.traced_op_p50_ms", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.gc_per_op", "count", "lower", 0},
	{"proc.gc_pause_us_per_op", "us", "lower", 0},

	{"quant.filter_quantize_mbps", "MB/s", "higher", 0},
	{"quant.fill_plane_mbps", "MB/s", "higher", 0},
	{"quant.kept_share", "ratio", "lower", 0},
	{"encoding.ans_encode_mbps", "MB/s", "higher", 0},
	{"encoding.ans_decode_mbps", "MB/s", "higher", 0},
	{"encoding.ans_out_share", "ratio", "lower", 0},
	{"compress.compress_mbps", "MB/s", "higher", 0},
	{"compress.decompress_mbps", "MB/s", "higher", 0},
	{"compress.alloc_kb_per_call", "kB", "lower", 0},
	{"compress.blob_bytes_per_op", "B", "lower", 0},
	{"compress.err_over_bound_max", "ratio", "lower", 0},
	{"compress.powersgd_compress_us", "us", "lower", 0},
	{"cluster.allgather_ms", "ms", "lower", 0},
	{"cluster.wait_share", "ratio", "lower", 0},
	{"cluster.sim_ms_per_step", "ms", "lower", 0},
	{"cluster.allreduce_us_p4", "us", "lower", 0},
	{"cluster.spawn_ms", "ms", "lower", 0},
	{"collective.exec_us_p8_allgather", "us", "lower", 0},
	{"collective.exec_ms_p4096_allreduce", "ms", "lower", 0},
	{"collective.exec_ms_p4096_allgather", "ms", "lower", 0},
	{"nn.fwd_bwd_ms", "ms", "lower", 0},
	{"tensor.eigensym_ms_n128", "ms", "lower", 0},
	{"kfac.refresh_eigen_ms", "ms", "lower", 0},
	{"kfac.precondition_ms", "ms", "lower", 0},
	{"train.step_ms", "ms", "lower", 0},
	{"train.sgd_step_ms", "ms", "lower", 0},
	{"train.final_loss", "loss", "lower", 0},
	{"train.sim_comm_ms_per_step", "ms", "lower", 0},
	{"train.hidden_comm_fraction", "ratio", "higher", 0},
	{"train.overlap_vs_seq_wall", "ratio", "lower", 0},
	{"serve.compress_req_p50_ms", "ms", "lower", 0},
	{"serve.decompress_req_p50_ms", "ms", "lower", 0},
	{"serve.req_p99_ms", "ms", "lower", 0},
	{"serve.small_req_p50_us", "us", "lower", 0},
	{"serve.large_req_p50_ms", "ms", "lower", 0},
	{"serve.shell_overhead_us", "us", "lower", 0},
	{"serve.session_create_us", "us", "lower", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"des.replay_ms_per_step", "ms", "lower", 0},
	{"des.replay_ms_per_step_p1024", "ms", "lower", 0},
	{"des.replay_ms_per_step_p2048", "ms", "lower", 0},
	{"des.scale_exponent", "ratio", "lower", 0},
	{"des.collectives_per_s", "1/s", "higher", 0},
	{"des.build_program_ms", "ms", "lower", 0},
	{"des.bytes_per_rank", "B", "lower", 0},
	{"des.sim_ms_per_step", "ms", "lower", 0},
}

// metricSet collects a run's metrics against one of the tables above: every
// name is set exactly once, with a finite value, and takes its unit from the
// table, so no metric can be emitted twice, under another unit, or on a run
// that does not report it.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
	errs []string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string]metric{}}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.name != name {
			continue
		}
		if _, dup := s.vals[name]; dup {
			s.errs = append(s.errs, name+" set twice")
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			s.errs = append(s.errs, fmt.Sprintf("%s is %v", name, v))
		}
		s.vals[name] = metric{Value: v, Unit: d.unit}
		return
	}
	s.errs = append(s.errs, name+" is not a metric of this run")
}

// complete returns an error unless every metric of the table was set once,
// finitely.
func (s *metricSet) complete() error {
	for _, d := range s.defs {
		if _, ok := s.vals[d.name]; !ok {
			s.errs = append(s.errs, d.name+" not reported")
		}
	}
	if len(s.errs) > 0 {
		return fmt.Errorf("metrics: %v", s.errs)
	}
	return nil
}
