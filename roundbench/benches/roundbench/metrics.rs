//! The metric catalogue: every name the benchmark prints, with its unit and
//! which way is better. `BENCHMARK.json` lists the same names (the smoke
//! test compares the two), so a metric cannot be added to one and not the
//! other.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogue row.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; measured with tracing off. Regression
/// bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    lower("round_ms_p50", "ms"),
    lower("round_ms_p90", "ms"),
    higher("rounds_per_s", "1/s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
    lower("wire_bytes_per_round", "bytes"),
];

/// Single-layer metrics from the traced run; the layer is the crate name.
/// A workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[MetricDef] = &[
    lower("fl.train_phase_ms", "ms"),
    lower("fl.select_phase_ms", "ms"),
    lower("fl.finish_phase_ms", "ms"),
    lower("fl.self_ms", "ms"),
    lower("fl.self_share", "ratio"),
    lower("fl.client_failures", "count"),
    higher("fl.rounds_ok", "count"),
    lower("nn.train_fwd_busy_ms", "ms"),
    lower("nn.train_bwd_busy_ms", "ms"),
    lower("nn.eval_fwd_ms", "ms"),
    lower("nn.fwd_ms.conv2d", "ms"),
    lower("nn.fwd_ms.dense", "ms"),
    lower("nn.fwd_ms.relu", "ms"),
    lower("nn.fwd_ms.maxpool", "ms"),
    lower("nn.fwd_ms.flatten", "ms"),
    lower("nn.bwd_ms.conv2d", "ms"),
    lower("nn.bwd_ms.dense", "ms"),
    lower("nn.bwd_ms.relu", "ms"),
    lower("nn.bwd_ms.maxpool", "ms"),
    lower("nn.bwd_ms.flatten", "ms"),
    lower("nn.optim_step_us", "us"),
    lower("nn.loss_us", "us"),
    lower("nn.load_params_us", "us"),
    lower("nn.flatten_params_us", "us"),
    higher("tensor.matmul_gflops.6x25x784", "GFLOP/s"),
    higher("tensor.matmul_gflops.12x150x196", "GFLOP/s"),
    higher("tensor.matmul_tb_gflops.12x196x150", "GFLOP/s"),
    higher("tensor.matmul_ta_gflops.150x12x196", "GFLOP/s"),
    higher("tensor.matmul_tb_gflops.16x588x64", "GFLOP/s"),
    higher("tensor.matmul_ta_gflops.64x16x588", "GFLOP/s"),
    higher("tensor.matmul_gflops.16x64x588", "GFLOP/s"),
    higher("tensor.matmul_tb_gflops.1x128x64", "GFLOP/s"),
    higher("tensor.matmul_ta_gflops.64x1x128", "GFLOP/s"),
    higher("tensor.matmul_gflops.1x64x128", "GFLOP/s"),
    lower("tensor.im2col_us.conv1", "us"),
    lower("tensor.im2col_us.conv2", "us"),
    lower("tensor.col2im_us.conv1", "us"),
    lower("tensor.col2im_us.conv2", "us"),
    higher("tensor.simd_level", "level"),
    higher("tensor.kernel_threads", "count"),
    lower("tensor.pool_outstanding_delta", "count"),
    lower("tensor.allocs_per_round", "count"),
    lower("tensor.alloc_bytes_per_round", "bytes"),
    lower("strategies.prepare_ms.fedsu", "ms"),
    lower("strategies.aggregate_ms.fedsu", "ms"),
    lower("strategies.prepare_ms.fedavg", "ms"),
    lower("strategies.aggregate_ms.fedavg", "ms"),
    lower("strategies.fedsu_over_fedavg", "ratio"),
    lower("strategies.synced_scalars", "count"),
    lower("strategies.broadcast_scalars", "count"),
    lower("core.join_state_ms", "ms"),
    lower("core.join_state_bytes", "bytes"),
    higher("core.predictable_share", "ratio"),
    lower("core.checks", "count"),
    lower("core.enters", "count"),
    lower("core.exits", "count"),
    lower("core.state_bytes", "bytes"),
    lower("netsim.round_timing_us", "us"),
    lower("netsim.cluster_build_us", "us"),
    lower("data.synth_build_ms", "ms"),
    lower("data.partition_ms", "ms"),
    lower("data.next_batch_us", "us"),
    lower("transport.encode_us.dense", "us"),
    lower("transport.encode_us.sparse", "us"),
    lower("transport.decode_us.dense", "us"),
    lower("transport.decode_us.sparse", "us"),
    lower("transport.envelope_encode_us", "us"),
    lower("transport.envelope_decode_us", "us"),
    lower("transport.send_reliable_us", "us"),
    lower("transport.broadcast_us", "us"),
    lower("transport.recv_wait_us", "us"),
    lower("transport.frames_sent", "count"),
    lower("transport.bytes_sent", "bytes"),
    lower("transport.retransmits", "count"),
    lower("transport.duplicates_dropped", "count"),
    lower("transport.encoded_over_accounted", "ratio"),
    lower("trace.overhead_pct", "%"),
    lower("trace.spans_per_round", "count"),
    higher("trace.rounds", "count"),
];
