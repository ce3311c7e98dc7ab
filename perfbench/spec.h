// The benchmark's published surface: workload names and every metric it
// prints, with unit and direction. BENCHMARK.json at the repository root
// lists the same names; run.py checks each result line against it.
#ifndef RENONFS_PERFBENCH_SPEC_H_
#define RENONFS_PERFBENCH_SPEC_H_

#include <string_view>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  // "higher" | "lower"
};

inline constexpr std::string_view kWorkloads[] = {"lan_read_lookup", "slowlink_tcp",
                                                  "soak_leases_rw"};

// Printed by untraced runs (--trace 0). Units with "sim" are simulated
// time and deterministic per world seed; the rest are host measurements.
inline constexpr MetricSpec kEndToEnd[] = {
    {"sim_ops_per_host_s", "ops/s", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"ops_per_sim_s", "ops/sim_s", "higher"},
    {"rpc_p50_ms", "sim_ms", "lower"},
    {"rpc_p99_ms", "sim_ms", "lower"},
};

// Printed by traced runs (--trace 1), grouped by the src/ module they
// measure. Simulated counts and ratios are exact per world seed and reported
// as the median over the run's world seeds; *.host_share is the share of
// stack samples charged to the layer while the workload ran.
inline constexpr MetricSpec kPerLayer[] = {
    {"sim.sched.events", "count", "lower"},
    {"sim.sched.events_per_op", "events/op", "lower"},
    {"sim.sched.host_share", "share", "lower"},
    {"sim.sched.host_ns_per_event", "ns/event", "lower"},
    {"sim.sched.pool_high_water", "count", "lower"},
    {"sim.server_cpu_ms_per_op", "sim_ms/op", "lower"},
    {"sim.disk.busy_ms_per_op", "sim_ms/op", "lower"},
    {"net.frames_delivered", "count", "lower"},
    {"net.background_frames", "count", "lower"},
    {"net.drop_ratio", "ratio", "lower"},
    {"net.ip.frames_forwarded", "count", "lower"},
    {"net.ip.reassembly_timeouts", "count", "lower"},
    {"net.host_share", "share", "lower"},
    {"tcp.segments_sent", "count", "lower"},
    {"tcp.retransmit_ratio", "ratio", "lower"},
    {"tcp.timeouts", "count", "lower"},
    {"tcp.fast_retransmits", "count", "lower"},
    {"tcp.host_share", "share", "lower"},
    {"rpc.calls", "count", "lower"},
    {"rpc.retransmit_ratio", "ratio", "lower"},
    {"rpc.soft_timeouts", "count", "lower"},
    {"rpc.nfsd_slot_waits", "count", "lower"},
    {"rpc.dup_cache_replays", "count", "lower"},
    {"rpc.latency_samples", "count", "higher"},
    {"rpc.tail_percentile", "pct", "higher"},
    {"rpc.host_share", "share", "lower"},
    {"nfs.server.ops", "count", "lower"},
    {"nfs.server.disk_reads", "count", "lower"},
    {"nfs.server.disk_writes", "count", "lower"},
    {"nfs.server.gathered_writes", "count", "higher"},
    {"nfs.server.loaned_ratio", "ratio", "higher"},
    {"nfs.client.rpcs_per_op", "rpcs/op", "lower"},
    {"nfs.lease.recalls", "count", "lower"},
    {"nfs.lease.evictions", "count", "lower"},
    {"nfs.host_share", "share", "lower"},
    {"vfs.client.name_hit_ratio", "ratio", "higher"},
    {"vfs.client.attr_hit_ratio", "ratio", "higher"},
    {"vfs.client.buf_hit_ratio", "ratio", "higher"},
    {"vfs.server.buf_hit_ratio", "ratio", "higher"},
    {"vfs.server.bufs_examined_per_lookup", "bufs/lookup", "lower"},
    {"vfs.host_share", "share", "lower"},
    {"fs.host_share", "share", "lower"},
    {"mbuf.bytes_copied", "bytes", "lower"},
    {"mbuf.copy_ratio", "ratio", "lower"},
    {"mbuf.cluster_allocs", "count", "lower"},
    {"mbuf.host_share", "share", "lower"},
    {"xdr.host_share", "share", "lower"},
    {"obs.flight.frames", "count", "lower"},
    {"obs.metrics.sources", "count", "higher"},
    {"obs.span.events_seen", "count", "lower"},
    {"obs.host_share", "share", "lower"},
    {"obs.host_us_per_frame", "us/frame", "lower"},
    {"crit.send_wait", "sim_ms/op", "lower"},
    {"crit.network", "sim_ms/op", "lower"},
    {"crit.backoff_wait", "sim_ms/op", "lower"},
    {"crit.server_queue", "sim_ms/op", "lower"},
    {"crit.server_cpu", "sim_ms/op", "lower"},
    {"crit.disk_queue", "sim_ms/op", "lower"},
    {"crit.disk_service", "sim_ms/op", "lower"},
    {"crit.gather_wait", "sim_ms/op", "lower"},
    {"util.host_share", "share", "lower"},
    {"setup.world_s", "s", "lower"},
    {"setup.preload_s", "s", "lower"},
    {"harness.host_share", "share", "lower"},
    {"harness.trace_overhead", "ratio", "lower"},
    {"harness.profile_samples", "count", "higher"},
    {"other.host_share", "share", "lower"},
};

}  // namespace perfbench

#endif  // RENONFS_PERFBENCH_SPEC_H_
