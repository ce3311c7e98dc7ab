// Chaos soak harness: run a real workload (Andrew or a create-delete loop)
// while a deterministic fault schedule plays out underneath it — a server
// crash/reboot mid-run, a flapping link — then audit the damage.
//
// This is the scenario the NFS crash-recovery design exists for: a hard
// mount must ride out the outage (retrying forever, "nfs server not
// responding"/"ok" on the console) and finish with the client-visible file
// contents byte-identical to the server's stable storage; a soft mount must
// surface ETIMEDOUT rather than hang; non-idempotent retries that straddle
// the reboot must be absorbed by the dup cache or the client's 4.3BSD
// retry-error heuristics, never as spurious EEXIST/ENOENT to the workload.
//
// The harness is deterministic: same World seed + same ChaosOptions ⇒ the
// identical fault trace and the identical outcome, so tests can assert on
// both.
#ifndef RENONFS_SRC_WORKLOAD_CHAOS_H_
#define RENONFS_SRC_WORKLOAD_CHAOS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/injector.h"
#include "src/rpc/client.h"
#include "src/workload/andrew.h"
#include "src/workload/opmix.h"
#include "src/workload/world.h"

namespace renonfs {

enum class ChaosWorkload { kAndrew, kCreateDelete, kOpMix };

struct ChaosOptions {
  ChaosWorkload workload = ChaosWorkload::kAndrew;

  // Server crash/reboot. Volatile state (buffer cache, dup cache, TCP
  // connections) is lost; LocalFs survives.
  bool crash = true;
  SimTime crash_at = Seconds(40);
  SimTime crash_downtime = Seconds(20);

  // Serial flap of the last medium on the client→server path (the 56K line
  // on the slow-link topology; the LAN itself on the same-LAN topology).
  bool flap = true;
  SimTime flap_at = Seconds(90);
  int flaps = 2;
  SimTime flap_down = Seconds(2);
  SimTime flap_up = Seconds(4);

  // Corruption storm on the last medium of the client→server path (the same
  // link the flap targets): per-frame bit flips, truncation, duplication and
  // reordering per `corruption` for the window. Damage is detected by the
  // UDP/TCP checksums and the RPC record marks, never by the application.
  bool corrupt = false;
  SimTime corrupt_at = Seconds(10);
  SimTime corrupt_duration = Seconds(30);
  CorruptionConfig corruption;

  // Hostile datagrams sent straight to the server's NFS port during the
  // corruption window: valid RPC call headers followed by undecodable
  // arguments, which must come back as GARBAGE_ARGS (and be counted), not
  // crash the server. Wire corruption alone cannot exercise this path — a
  // damaged frame dies at the transport checksum before the XDR layer.
  size_t garbage_datagrams = 0;

  // Storage faults: cap the server filesystem's free-block budget mid-run
  // (0 = every allocating write fails with ENOSPC) and optionally lift the
  // cap later so the post-run audit sees a healed disk.
  bool disk_full = false;
  SimTime disk_full_at = Seconds(10);
  uint64_t disk_free_blocks = 0;
  bool disk_restore = false;
  SimTime disk_restore_at = Seconds(60);

  // Slow disk: multiply every server disk op's latency by `disk_slow_factor`
  // for the window. Nothing fails — instead the nfsd slots saturate behind
  // the device queue (paper Section 5), which is the regime write gathering
  // was built for: the tests run this soak with gathering on and off and
  // compare nfsd_slot_waits.
  bool disk_slow = false;
  SimTime disk_slow_at = Seconds(5);
  SimTime disk_slow_duration = Seconds(60);
  double disk_slow_factor = 4.0;

  // Lease-storm readers (lease mounts only): every client past the first
  // re-opens and re-reads the surviving "chaos_keep" files for the whole
  // run. Each read needs a read lease, so a grinding writer on client 0
  // plus a reader pool yields a continuous stream of write-lease recalls —
  // and with a crash in the schedule, recalls that straddle the reboot and
  // its grace window. Requires WorldOptions::clients > 1.
  bool lease_storm = false;
  SimTime lease_read_interval = Milliseconds(400);

  // Declarative fault schedule (scenario files and trace replay build this):
  // each spec is scheduled against the world's canonical targets — the
  // server, the last medium on the client→server path, the server LocalFs
  // and disk, and client 0's node for partitions. Plays alongside whatever
  // the fixed-slot knobs above configure, so scenarios can layer e.g. two
  // overlapping disk windows that the single-slot fields cannot express.
  std::vector<FaultSpec> schedule;

  // Workload knobs.
  AndrewOptions andrew;        // kAndrew
  size_t iterations = 40;      // kCreateDelete
  size_t file_bytes = 10 * 1024;
  OpMixOptions opmix;          // kOpMix; shared_files runs it on every client
};

struct ChaosReport {
  // How the workload itself ended: Ok on a surviving hard mount, kTimeout
  // when a soft mount gave up, kCancelled when interrupted.
  Status workload_status = Status::Ok();

  // Post-recovery audit: every regular file in the server's LocalFs read
  // back through the client and compared byte-for-byte.
  bool integrity_ok = false;
  std::string integrity_error;  // first mismatch; empty when ok
  size_t files_compared = 0;

  // The ordered fault trace (see FaultInjector::trace()): identical across
  // runs with the same options.
  std::vector<std::string> fault_trace;

  // Client-visible op outcomes in issue order (op-mix and create-delete
  // workloads; Andrew logs one summary line). With the seed and the fault
  // trace this is the replayable record of the run: a replay that produces
  // a different log has diverged, line by line.
  std::vector<std::string> op_log;

  // The seed the world actually ran with (after any RENONFS_SEED override)
  // and the FNV-1a hash of the final metrics snapshot — the divergence
  // fingerprint the replay path compares.
  uint64_t seed = 0;
  uint64_t snapshot_hash = 0;

  // Recovery telemetry.
  RpcRecoveryStats recovery;            // client 0: not-responding/ok episodes, reconnects
  uint64_t retry_errors_absorbed = 0;   // EEXIST/ENOENT absorption, all clients
  uint64_t dup_cache_replays = 0;       // server-side duplicate suppression
  uint64_t crash_count = 0;

  // Data-fault telemetry: where injected corruption and disk faults were
  // caught. The corruption soak tests assert these nonzero — damage that is
  // injected but never counted anywhere is damage that reached the
  // application silently.
  uint64_t frames_corrupted = 0;      // medium-level damage events, whole path
  uint64_t checksum_drops = 0;        // UDP + TCP checksum failures, server + all clients
  uint64_t garbage_requests = 0;      // server replied GARBAGE_ARGS
  uint64_t corrupted_records = 0;     // TCP record-mark failures, server + all clients
  uint64_t fs_enospc = 0;             // writes refused by the free-block budget
  uint64_t fs_injected_errors = 0;    // DiskErrorBurst failures
  uint64_t write_errors_latched = 0;  // async write errors held for close(), all clients

  // Saturation telemetry: requests that found every nfsd busy and queued.
  // The slow-disk soak asserts this spikes with write gathering off and
  // shrinks with it on.
  uint64_t nfsd_slot_waits = 0;

  // Lease telemetry (lease-storm soaks). Cache consistency must come from
  // recalls, vacates and stale discards; stale_lease_writes counts data a
  // client pushed through an expired, unreacquired write lease and must be
  // zero on every run — a nonzero value is silent corruption by design.
  uint64_t leases_granted = 0;        // server grants, grace reclaims included
  uint64_t lease_recalls_sent = 0;    // recall datagrams, retransmits included
  uint64_t leases_vacated = 0;        // holders that answered or volunteered
  uint64_t lease_evictions = 0;       // recalled holders evicted at the term
  uint64_t lease_stale_discards = 0;  // dirty data discarded, all clients
  uint64_t stale_lease_writes = 0;    // all clients; must stay zero

  // Per-procedure RPC latency percentiles (microseconds), from the world's
  // client.nfs.lat_us.* histograms; only procedures that were called appear.
  struct ProcLatency {
    std::string proc;
    uint64_t count = 0;
    uint64_t p50_us = 0;
    uint64_t p95_us = 0;
    uint64_t p99_us = 0;
  };
  std::vector<ProcLatency> latencies;

  // Critical-path attribution over the whole run: the dominant latency
  // components (name + share of total attributed time, descending) from the
  // world's span collector, plus the rendered per-proc breakdown table. The
  // breakdown soaks assert on `top_components` — e.g. a loss storm must be
  // retransmit-backoff-dominated, a slow disk disk-dominated.
  std::vector<std::pair<std::string, double>> top_components;
  std::string breakdown_table;
  // Conservation telemetry mirrored from SpanStats: failures and pool spills
  // must both be zero on every run.
  uint64_t span_ops_completed = 0;
  uint64_t span_conservation_failures = 0;
  uint64_t span_pool_spills = 0;

  // Flight-recorder timeline (JSONL, one delta frame per line) captured over
  // the run; what the failure dumps write so a tripped soak assertion comes
  // with the time series that led up to it.
  std::string timeline_jsonl;

  // Full registry snapshot at the end of the run and the tail of the trace
  // ring — what the failure dumps print when a soak assertion trips.
  MetricsSnapshot metrics;
  std::string trace_tail;

  // One-line digest of the run for logs and the chaos demo:
  //   "chaos: seed=1 status=ok integrity=ok files=34 crashes=1 trace=6 replays=2
  //    absorbed=1 frames_corrupted=57 checksum_drops=40 garbage=12
  //    corrupt_records=0 enospc=3 disk_errors=0 latched=1
  //    lat_us[write]=1834/7912/15023" (p50/p95/p99 per called procedure)
  std::string SummaryLine() const;
};

// Runs the configured workload on world.client(0) under the fault schedule,
// waits out any remaining scheduled faults, flushes the client, and audits
// integrity. Drives the world's scheduler; call on a fresh World.
ChaosReport RunChaos(World& world, const ChaosOptions& options);

// Dumps the world's observability state — metrics snapshot, server CPU flat
// profile, and the last `tail_events` trace events — for post-mortems when a
// chaos/fault test assertion fails.
void DumpObservability(World& world, std::ostream& out, size_t tail_events = 64);

}  // namespace renonfs

#endif  // RENONFS_SRC_WORKLOAD_CHAOS_H_
