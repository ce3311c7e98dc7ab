// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run derives five world seeds from --seed and repeats whole cycles over
// them (each repetition builds a fresh World, runs the fixed-size workload
// to completion and audits it) until the host-time budget is spent. It then
// prints every metric by name and unit and, as its last line, one JSON
// result object. Load is generated inside the simulation; on the host each
// repetition runs as fast as it can.
//
// --trace 0 prints the end-to-end metrics (perfbench/spec.h). --trace 1
// alternates untraced and stack-sampled cycles and prints the per-layer
// metrics; the run-time difference between the two is the tracing overhead.
// Simulated results are deterministic per world seed: every cycle must
// reproduce the same fingerprints, or the run is incorrect.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "percentile.h"
#include "sampler.h"
#include "spec.h"
#include "src/mbuf/mbuf.h"
#include "src/scenario/runner.h"
#include "src/workload/experiment.h"

namespace {

using namespace renonfs;
using perfbench::StackSampler;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- workloads ----------------------------------------------------------------

// An Nhfsstone cell of Table #1: one topology x transport at a fixed offered
// load, with the figure EXPERIMENTS.md records for the same internetwork and
// transport (read RPCs completed per second) as an ungated model reference.
struct NhfsstoneCell {
  TopologyKind topology;
  TransportChoice transport;
  double offered_ops_per_sec;
  SimTime duration;
  double table1_reads_per_sec;
  double table1_offered;
};

struct Workload {
  std::string name;
  bool soak = false;
  NhfsstoneCell cell{};
};

// The 50/50 read/lookup mix over dynamic-RTO UDP on one LAN, past the knee.
constexpr NhfsstoneCell kLanReadLookup = {TopologyKind::kSameLan, TransportChoice::kUdpDynamicRto,
                                          60, Seconds(600), 10.44, 24};
// Table #1's 56 Kbps row over TCP.
constexpr NhfsstoneCell kSlowlinkTcp = {TopologyKind::kSlowLinkPath, TransportChoice::kTcp, 4,
                                        Seconds(3000), 0.45, 4};

// The NQNFS lease soak as a scenario-DSL cell: three clients sharing a
// zipfian-skewed population under the default op mix, with no fault
// schedule. Every other key keeps the DSL default.
constexpr char kSoakScenario[] =
    "scenario = soak_leases_rw\n"
    "workload = opmix\n"
    "ops = 5000\n"
    "files = 32\n"
    "skew = zipfian\n"
    "mount = leases\n"
    "clients = 3\n"
    "shared_files = true\n";

bool FindWorkload(const std::string& name, Workload* out) {
  out->name = name;
  if (name == "lan_read_lookup") {
    out->cell = kLanReadLookup;
  } else if (name == "slowlink_tcp") {
    out->cell = kSlowlinkTcp;
  } else if (name == "soak_leases_rw") {
    out->soak = true;
  } else {
    return false;
  }
  return true;
}

// --- measurement plumbing -----------------------------------------------------

// Passive tee in front of the world's span collector: forwards every event,
// and pairs kClientCallStart with kClientComplete per (track, xid) to get
// exact simulated RPC latencies (the registry's log2 histograms are too
// coarse for a bound). Installs itself on construction, restores the
// previous sink on destruction.
class LatencyTee : public SpanSink {
 public:
  explicit LatencyTee(Tracer& tracer) : tracer_(tracer), next_(tracer.sink()) {
    tracer_.set_sink(this);
  }
  ~LatencyTee() override { tracer_.set_sink(next_); }
  LatencyTee(const LatencyTee&) = delete;
  LatencyTee& operator=(const LatencyTee&) = delete;

  void OnTraceEvent(const TraceEvent& event) override {
    if (next_ != nullptr) {
      next_->OnTraceEvent(event);
    }
    const uint64_t key = uint64_t{event.track} << 32 | event.xid;
    if (event.kind == TraceEventKind::kClientCallStart) {
      starts_[key] = event.at;
    } else if (event.kind == TraceEventKind::kClientComplete) {
      const auto it = starts_.find(key);
      if (it == starts_.end()) {
        return;
      }
      latencies_ms_.push_back(ToMilliseconds(event.at - it->second));
      starts_.erase(it);
      ++(event.arg == 1 ? completed_ok_ : completed_error_);
    }
  }
  void OnCpuCharge(uint32_t xid, uint8_t category, SimTime cost) override {
    if (next_ != nullptr) {
      next_->OnCpuCharge(xid, category, cost);
    }
  }

  std::vector<double> TakeLatenciesMs() { return std::move(latencies_ms_); }
  uint64_t completed_ok() const { return completed_ok_; }
  uint64_t completed_error() const { return completed_error_; }

 private:
  Tracer& tracer_;
  SpanSink* next_;
  std::unordered_map<uint64_t, SimTime> starts_;
  std::vector<double> latencies_ms_;
  uint64_t completed_ok_ = 0;
  uint64_t completed_error_ = 0;
};

// One repetition: host timings plus the simulated outcome, which must be
// identical in every repetition of one seed.
struct Rep {
  double world_s = 0;
  double preload_s = 0;
  double run_s = 0;

  uint64_t ops = 0;     // workload ops completed in the run
  uint64_t failed = 0;  // error results, soft timeouts, stale-lease writes
  double ops_per_sim_s = 0;
  double reads_per_sim_s = 0;  // Nhfsstone only: the Table #1 quantity
  perfbench::TailSummary latency;  // simulated RPC latency, call start to completion
  std::map<std::string, double> counts;      // simulated per-layer counts
  std::vector<std::string> problems;         // failed correctness checks
  std::vector<std::string> gate_violations;  // scenario gates, printed
  uint64_t snapshot_hash = 0;  // metrics registry (counters, not diagnostics)
  uint64_t fingerprint = 0;
};

// FNV-1a over everything simulated: a host-only change leaves it unchanged.
uint64_t Fingerprint(const Rep& rep, const std::vector<double>& latencies_ms) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& text) {
    for (unsigned char c : text) {
      h = (h ^ c) * 0x100000001b3ull;
    }
  };
  char buf[96];
  auto mix_number = [&](const char* name, double value) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, value);
    mix(buf);
  };
  mix_number("ops", static_cast<double>(rep.ops));
  mix_number("failed", static_cast<double>(rep.failed));
  mix_number("ops_per_sim_s", rep.ops_per_sim_s);
  mix_number("reads_per_sim_s", rep.reads_per_sim_s);
  std::snprintf(buf, sizeof(buf), "snapshot_hash=%" PRIx64 ";", rep.snapshot_hash);
  mix(buf);
  for (double ms : latencies_ms) {
    mix_number("lat", ms);
  }
  for (const auto& [name, value] : rep.counts) {
    mix_number(name.c_str(), value);
  }
  return h;
}

// Counts every workload shares, read after the run from public accessors.
// `events` and the CPU/disk deltas cover the run only.
void CollectCommon(World& world, size_t events, SimTime cpu_busy, SimTime disk_busy, Rep& rep) {
  auto& c = rep.counts;
  const double ops = static_cast<double>(rep.ops);
  Scheduler& sched = world.scheduler();
  const Scheduler::PoolStats pool = sched.pool_stats();
  c["sim.sched.events"] = static_cast<double>(events);
  c["sim.sched.events_per_op"] = Ratio(static_cast<double>(events), ops);
  c["sim.sched.pool_high_water"] = static_cast<double>(pool.high_water);
  c["sim.server_cpu_ms_per_op"] = Ratio(ToMilliseconds(cpu_busy), ops);
  c["sim.disk.busy_ms_per_op"] = Ratio(ToMilliseconds(disk_busy), ops);
  if (pool.callable_heap_allocs != 0) {
    rep.problems.push_back("scheduler callable_heap_allocs=" +
                           std::to_string(pool.callable_heap_allocs) + " (must be 0)");
  }

  uint64_t delivered = 0, background = 0, dropped = 0, forwarded = 0, reassembly = 0;
  for (const auto& medium : world.topology().network->media()) {
    const MediumStats& s = medium->stats();
    delivered += s.frames_delivered;
    background += s.background_frames;
    dropped += s.frames_dropped_queue + s.frames_dropped_loss + s.frames_damaged +
               s.frames_dropped_down;
  }
  for (const auto& node : world.topology().network->nodes()) {
    forwarded += node->stats().frames_forwarded;
    reassembly += node->stats().reassembly_timeouts;
  }
  c["net.frames_delivered"] = static_cast<double>(delivered);
  c["net.background_frames"] = static_cast<double>(background);
  c["net.drop_ratio"] =
      Ratio(static_cast<double>(dropped), static_cast<double>(delivered + dropped));
  c["net.ip.frames_forwarded"] = static_cast<double>(forwarded);
  c["net.ip.reassembly_timeouts"] = static_cast<double>(reassembly);

  const NfsServer& server = world.server();
  c["rpc.nfsd_slot_waits"] = static_cast<double>(server.rpc_stats().nfsd_slot_waits);
  c["rpc.dup_cache_replays"] = static_cast<double>(server.rpc_stats().duplicate_cache_replays);

  const NfsServerStats& ns = server.stats();
  uint64_t server_ops = 0;
  for (uint64_t n : ns.proc_counts) {
    server_ops += n;
  }
  c["nfs.server.ops"] = static_cast<double>(server_ops);
  c["nfs.server.disk_reads"] = static_cast<double>(ns.disk_reads);
  c["nfs.server.disk_writes"] = static_cast<double>(ns.disk_writes);
  c["nfs.server.gathered_writes"] = static_cast<double>(ns.gathered_writes);
  c["nfs.server.loaned_ratio"] = Ratio(static_cast<double>(ns.loaned_replies),
                                       static_cast<double>(ns.proc_counts[kNfsRead]));
  c["nfs.lease.recalls"] = static_cast<double>(server.lease_stats().recalls_sent);
  c["nfs.lease.evictions"] = static_cast<double>(server.lease_stats().evictions);

  const BufCacheStats& sb = server.cache().stats();
  c["vfs.server.buf_hit_ratio"] =
      Ratio(static_cast<double>(sb.hits), static_cast<double>(sb.hits + sb.misses));
  c["vfs.server.bufs_examined_per_lookup"] =
      Ratio(static_cast<double>(sb.bufs_examined), static_cast<double>(sb.hits + sb.misses));

  const MbufStats& mb = MbufStats::Instance();
  c["mbuf.bytes_copied"] = static_cast<double>(mb.bytes_copied);
  c["mbuf.copy_ratio"] = Ratio(static_cast<double>(mb.bytes_copied),
                               static_cast<double>(mb.bytes_copied + mb.bytes_shared));
  c["mbuf.cluster_allocs"] = static_cast<double>(mb.cluster_allocs);

  const MetricsSnapshot snapshot = world.MetricsNow();
  c["obs.flight.frames"] = static_cast<double>(world.flight().frames_captured());
  c["obs.metrics.sources"] =
      static_cast<double>(snapshot.counters.size() + snapshot.diagnostics.size());
  const SpanStats& spans = world.spans().stats();
  c["obs.span.events_seen"] = static_cast<double>(spans.events_seen);
  if (spans.conservation_failures != 0 || spans.pool_exhausted_drops != 0) {
    rep.problems.push_back("span conservation_failures=" +
                           std::to_string(spans.conservation_failures) + " pool_spills=" +
                           std::to_string(spans.pool_exhausted_drops) + " (must be 0)");
  }
  const SpanCollector::ProcBreakdown crit = world.spans().TotalBreakdown();
  for (size_t i = 0; i < kNumLatencyComponents; ++i) {
    c[std::string("crit.") + LatencyComponentName(static_cast<LatencyComponent>(i))] =
        Ratio(ToMilliseconds(crit.comp[i]), static_cast<double>(crit.ops));
  }
  rep.snapshot_hash = snapshot.Hash();
}

// Zero the per-layer counters a workload does not exercise, so every run
// prints the same set.
void DefaultCounts(Rep& rep) {
  for (const char* name :
       {"tcp.segments_sent", "tcp.retransmit_ratio", "tcp.timeouts", "tcp.fast_retransmits",
        "vfs.client.name_hit_ratio", "vfs.client.attr_hit_ratio", "vfs.client.buf_hit_ratio"}) {
    rep.counts.emplace(name, 0.0);
  }
}

void CollectRpc(const RpcTransportStats& s, Rep& rep) {
  auto& c = rep.counts;
  c["rpc.calls"] += static_cast<double>(s.calls);
  c["rpc.retransmits"] += static_cast<double>(s.retransmits);
  c["rpc.soft_timeouts"] += static_cast<double>(s.soft_timeouts);
}

void FinishRpc(Rep& rep) {
  auto& c = rep.counts;
  c["rpc.retransmit_ratio"] = Ratio(c["rpc.retransmits"], c["rpc.calls"]);
  c["nfs.client.rpcs_per_op"] = Ratio(c["rpc.calls"], static_cast<double>(rep.ops));
}

// Reads every regular file of the server's tree back through `client` and
// compares it with stable storage, byte for byte.
CoTask<Status> VerifyTree(World& world, NfsClient& client, Ino dir, size_t* files) {
  auto entries_or = world.fs().Readdir(dir, 0, 1u << 20);
  if (!entries_or.ok()) {
    co_return entries_or.status();
  }
  for (const DirEntry& entry : entries_or.value()) {
    auto attr_or = world.fs().Getattr(entry.ino);
    if (!attr_or.ok()) {
      co_return attr_or.status();
    }
    if (attr_or.value().type == FileType::kDirectory) {
      Status status = co_await VerifyTree(world, client, entry.ino, files);
      if (!status.ok()) {
        co_return status;
      }
      continue;
    }
    auto truth_or = world.fs().Read(entry.ino, 0, attr_or.value().size);
    if (!truth_or.ok()) {
      co_return truth_or.status();
    }
    const NfsFh fh = NfsFh::Make(1, entry.ino);
    Status status = co_await client.Open(fh);
    if (!status.ok()) {
      co_return status;
    }
    std::vector<uint8_t> seen;
    uint8_t buf[kNfsMaxData];
    for (;;) {
      auto n_or = co_await client.Read(fh, seen.size(), sizeof(buf), buf);
      if (!n_or.ok()) {
        co_return n_or.status();
      }
      if (n_or.value() == 0) {
        break;
      }
      seen.insert(seen.end(), buf, buf + n_or.value());
    }
    status = co_await client.Close(fh);
    if (!status.ok()) {
      co_return status;
    }
    if (seen != truth_or.value()) {
      co_return Status(ErrorCode::kIo, entry.name + " differs from stable storage");
    }
    ++*files;
  }
  co_return Status::Ok();
}

// With `setup_only` the repetition stops after set-up: the World is built,
// the tree preloaded, and both torn down again.
Rep RunNhfsstoneRep(const NhfsstoneCell& cell, uint64_t seed, StackSampler* sampler,
                    bool setup_only) {
  Rep rep;
  MbufStats::Instance().Reset();

  const auto world_start = Clock::now();
  WorldOptions world_options;
  world_options.topology = cell.topology;
  world_options.topology_options.seed = seed;
  world_options.seed_from_env = false;
  World world(world_options);
  rep.world_s = SecondsSince(world_start);

  const auto preload_start = Clock::now();
  ExperimentPoint point;
  point.topology = cell.topology;
  point.transport = cell.transport;
  std::unique_ptr<RpcClientTransport> transport =
      MakeRawTransport(world, cell.transport, point);
  transport->set_tracer(&world.tracer(), world.tracer().RegisterTrack("nhfsstone.rpc"));
  RawNfsCaller caller(transport.get());
  NhfsstoneOptions options;
  options.target_ops_per_sec = cell.offered_ops_per_sec;
  options.mix = NhfsstoneMix::ReadLookup();
  options.children = 8;
  options.duration = cell.duration;
  options.seed = seed;
  Nhfsstone bench(world, caller, options);
  bench.PreloadTree();
  rep.preload_s = SecondsSince(preload_start);
  if (setup_only) {
    return rep;
  }

  LatencyTee tee(world.tracer());
  Node* server_node = world.server_node();
  const size_t events0 = world.scheduler().events_executed();
  const SimTime cpu0 = server_node->cpu().busy_accum();
  const SimTime disk0 = server_node->disk().busy_accum();
  const auto run_start = Clock::now();
  if (sampler != nullptr) {
    sampler->Start();
  }
  const NhfsstoneResult result = bench.Run();
  if (sampler != nullptr) {
    sampler->Stop();
  }
  rep.run_s = SecondsSince(run_start);
  const size_t events = world.scheduler().events_executed() - events0;

  // Taken before the integrity pass below, whose RPCs are not workload ops.
  const std::vector<double> latencies_ms = tee.TakeLatenciesMs();
  rep.ops = tee.completed_ok() + tee.completed_error();
  rep.failed = tee.completed_error();
  rep.ops_per_sim_s = result.achieved_ops_per_sec;
  rep.reads_per_sim_s = result.read_ops_per_sec;
  DefaultCounts(rep);
  CollectCommon(world, events, server_node->cpu().busy_accum() - cpu0,
                server_node->disk().busy_accum() - disk0, rep);
  CollectRpc(transport->stats(), rep);
  FinishRpc(rep);
  if (auto* tcp = dynamic_cast<TcpRpcTransport*>(transport.get());
      tcp != nullptr && tcp->connection() != nullptr) {
    const TcpStats& s = tcp->connection()->stats();
    rep.counts["tcp.segments_sent"] = static_cast<double>(s.segments_sent);
    rep.counts["tcp.retransmit_ratio"] =
        Ratio(static_cast<double>(s.retransmits), static_cast<double>(s.segments_sent));
    rep.counts["tcp.timeouts"] = static_cast<double>(s.timeouts);
    rep.counts["tcp.fast_retransmits"] = static_cast<double>(s.fast_retransmits);
  }
  if (rep.ops == 0) {
    rep.problems.push_back("no RPC completed");
  }

  // Byte integrity: the test tree read back through the installation's own
  // client must match the server's stable storage.
  size_t files = 0;
  auto verify = VerifyTree(world, world.client(0), world.fs().root(), &files);
  const Status verified = world.Run(verify);
  if (!verified.ok()) {
    rep.problems.push_back("integrity: " + verified.ToString());
  } else if (files != options.directories * options.files_per_directory) {
    rep.problems.push_back("integrity: compared " + std::to_string(files) + " files");
  }
  rep.latency = perfbench::Summarize(latencies_ms);
  rep.fingerprint = Fingerprint(rep, latencies_ms);
  return rep;
}

// "opmix[c1] read mix_3 = NOENT" -> "NOENT"; "" for lines that are not ops.
std::string OpOutcome(const std::string& line) {
  if (!line.starts_with("opmix[") || line.find("] preload ") != std::string::npos) {
    return "";
  }
  const size_t eq = line.rfind(" = ");
  return eq == std::string::npos ? "" : line.substr(eq + 3);
}

Rep RunSoakRep(uint64_t seed, StackSampler* sampler, bool setup_only) {
  Rep rep;
  MbufStats::Instance().Reset();
  StatusOr<Scenario> parsed = Scenario::Parse(kSoakScenario);
  if (!parsed.ok()) {
    rep.problems.push_back("scenario: " + parsed.status().ToString());
    return rep;
  }
  Scenario scenario = std::move(parsed).value();
  scenario.seed = seed;
  StatusOr<WorldOptions> world_options = scenario.ToWorldOptions(/*seed_from_env=*/false);
  if (!world_options.ok()) {
    rep.problems.push_back("scenario: " + world_options.status().ToString());
    return rep;
  }

  const auto world_start = Clock::now();
  World world(std::move(world_options).value());
  rep.world_s = SecondsSince(world_start);
  if (setup_only) {
    return rep;
  }

  LatencyTee tee(world.tracer());
  Node* server_node = world.server_node();
  const size_t events0 = world.scheduler().events_executed();
  const SimTime sim0 = world.scheduler().now();
  const SimTime cpu0 = server_node->cpu().busy_accum();
  const SimTime disk0 = server_node->disk().busy_accum();
  const auto run_start = Clock::now();
  if (sampler != nullptr) {
    sampler->Start();
  }
  const ChaosReport report = RunChaos(world, scenario.ToChaosOptions());
  if (sampler != nullptr) {
    sampler->Stop();
  }
  rep.run_s = SecondsSince(run_start);
  const size_t events = world.scheduler().events_executed() - events0;

  // Namespace races between the three clients (a file another client just
  // removed or created) are correct NFS outcomes, not failures.
  for (const std::string& line : report.op_log) {
    const std::string outcome = OpOutcome(line);
    if (outcome.empty()) {
      continue;
    }
    ++rep.ops;
    if (outcome != "ok" && outcome != "NOENT" && outcome != "EXIST" && outcome != "STALE") {
      ++rep.failed;
    }
  }
  rep.failed += report.stale_lease_writes;
  rep.ops_per_sim_s =
      Ratio(static_cast<double>(rep.ops), ToSeconds(world.scheduler().now() - sim0));
  DefaultCounts(rep);
  CollectCommon(world, events, server_node->cpu().busy_accum() - cpu0,
                server_node->disk().busy_accum() - disk0, rep);
  uint64_t name[2] = {0, 0}, attr[2] = {0, 0}, buf[2] = {0, 0};
  for (size_t i = 0; i < world.client_count(); ++i) {
    const NfsClient& client = world.client(i);
    CollectRpc(client.transport_stats(), rep);
    name[0] += client.name_cache().stats().hits;
    name[1] += client.name_cache().stats().misses;
    attr[0] += client.attr_cache().stats().hits;
    attr[1] += client.attr_cache().stats().misses;
    buf[0] += client.buf_cache().stats().hits;
    buf[1] += client.buf_cache().stats().misses;
  }
  FinishRpc(rep);
  auto hit_ratio = [](const uint64_t* hm) {
    return Ratio(static_cast<double>(hm[0]), static_cast<double>(hm[0] + hm[1]));
  };
  rep.counts["vfs.client.name_hit_ratio"] = hit_ratio(name);
  rep.counts["vfs.client.attr_hit_ratio"] = hit_ratio(attr);
  rep.counts["vfs.client.buf_hit_ratio"] = hit_ratio(buf);

  // Gates (integrity first): a stale-lease write is counted as a failed op
  // and printed; every other violation makes the run incorrect.
  for (const std::string& violation : scenario.GateViolations(report)) {
    rep.gate_violations.push_back(violation);
    if (!violation.starts_with("stale_lease_writes")) {
      rep.problems.push_back(violation);
    }
  }
  if (report.files_compared == 0) {
    rep.problems.push_back("integrity: no file compared");
  }
  if (rep.ops != scenario.opmix.operations * scenario.clients) {
    rep.problems.push_back("ops logged " + std::to_string(rep.ops) + ", expected " +
                           std::to_string(scenario.opmix.operations * scenario.clients));
  }
  const std::vector<double> latencies_ms = tee.TakeLatenciesMs();
  rep.latency = perfbench::Summarize(latencies_ms);
  rep.fingerprint = Fingerprint(rep, latencies_ms);
  return rep;
}

Rep RunRep(const Workload& workload, uint64_t seed, StackSampler* sampler,
           bool setup_only = false) {
  return workload.soak ? RunSoakRep(seed, sampler, setup_only)
                       : RunNhfsstoneRep(workload.cell, seed, sampler, setup_only);
}

// --- schedule and reporting --------------------------------------------------

// Every run covers kSubSeeds independent installations, derived from the
// seed: sub-seed 0 is the seed itself, so "seed 1" includes world seed 1.
// Simulated metrics are medians over the sub-seeds, which keeps a run's
// figures from hinging on one installation's luck.
constexpr int kSubSeeds = 5;
constexpr uint64_t kSubSeedStride = 1000003;

uint64_t SubSeed(uint64_t seed, int k) { return seed + static_cast<uint64_t>(k) * kSubSeedStride; }

// Set-up-only rounds ahead of each cycle; setup_s is their median.
constexpr int kSetupRoundsPerCycle = 7;

// One pass over every sub-seed, in order.
struct Cycle {
  bool traced = false;
  std::vector<Rep> reps;

  double run_s() const {
    double total = 0;
    for (const Rep& rep : reps) {
      total += rep.run_s;
    }
    return total;
  }
  double Total(const char* count) const {
    double total = 0;
    for (const Rep& rep : reps) {
      total += rep.counts.at(count);
    }
    return total;
  }
  uint64_t ops() const {
    uint64_t total = 0;
    for (const Rep& rep : reps) {
      total += rep.ops;
    }
    return total;
  }
};

// Median over the sub-seeds of one cycle.
double MedianOver(const Cycle& cycle, double (*get)(const Rep&)) {
  std::vector<double> values;
  for (const Rep& rep : cycle.reps) {
    values.push_back(get(rep));
  }
  return perfbench::Median(values);
}

// Median over the traced (or untraced) cycles.
double MedianCycles(const std::vector<Cycle>& cycles, bool traced,
                    double (*get)(const Cycle&)) {
  std::vector<double> values;
  for (const Cycle& cycle : cycles) {
    if (cycle.traced == traced) {
      values.push_back(get(cycle));
    }
  }
  return perfbench::Median(values);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Options* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
      continue;
    }
    if (flag == "--seed") {
      out->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      out->trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty() && out->seconds > 0;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::pair<perfbench::MetricSpec, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, value] = metrics[i];
    std::printf("%s\"%.*s\": {\"value\": %.17g, \"unit\": \"%.*s\"}", i == 0 ? "" : ", ",
                static_cast<int>(spec.name.size()), spec.name.data(), value,
                static_cast<int>(spec.unit.size()), spec.unit.data());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options options;
  Workload workload;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  if (!FindWorkload(options.workload, &workload)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d sub-seeds=",
              workload.name.c_str(), options.seed, options.seconds, options.trace ? 1 : 0);
  for (int k = 0; k < kSubSeeds; ++k) {
    std::printf("%s%" PRIu64, k == 0 ? "" : ",", SubSeed(options.seed, k));
  }
  std::printf("\n");

  // Repeat whole cycles until the host-time budget is spent. Each cycle
  // starts with set-up-only rounds, so setup_s (their median) samples the
  // same stretch of host time as the runs. A traced run alternates untraced
  // and sampled cycles; the sampler's buffer exists only then, so it does not
  // count towards peak_rss_mb.
  std::unique_ptr<StackSampler> sampler;
  if (options.trace) {
    sampler = std::make_unique<StackSampler>(1 << 14);
  }
  std::vector<double> setup_world;
  std::vector<double> setup_preload;
  std::vector<double> setup_total;
  std::vector<Cycle> cycles;
  const auto start = Clock::now();
  while (cycles.size() < 2 || SecondsSince(start) < options.seconds) {
    for (int i = 0; i < kSetupRoundsPerCycle; ++i) {
      const Rep rep = RunRep(workload, SubSeed(options.seed, i % kSubSeeds), nullptr,
                             /*setup_only=*/true);
      setup_world.push_back(rep.world_s);
      setup_preload.push_back(rep.preload_s);
      setup_total.push_back(rep.world_s + rep.preload_s);
    }
    Cycle& cycle = cycles.emplace_back();
    cycle.traced = options.trace && cycles.size() % 2 == 0;
    for (int k = 0; k < kSubSeeds; ++k) {
      cycle.reps.push_back(RunRep(workload, SubSeed(options.seed, k),
                                  cycle.traced ? sampler.get() : nullptr));
      const Rep& rep = cycle.reps.back();
      std::printf("rep %zu.%d%s: world seed %" PRIu64 " run_s=%.6f ops=%" PRIu64
                  " fingerprint=%016" PRIx64 "\n",
                  cycles.size(), k, cycle.traced ? " (sampled)" : "", SubSeed(options.seed, k),
                  rep.run_s, rep.ops, rep.fingerprint);
    }
  }
  const auto report_start = Clock::now();

  // Correctness: every check of every repetition, plus determinism. Later
  // cycles replay the first one exactly (the fingerprint check below), so
  // attempted and failed count the ops of the kSubSeeds distinct simulations
  // once: they depend on the seed alone, not on how many cycles fit the
  // host-time budget.
  const Cycle& first = cycles.front();
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Rep& rep : first.reps) {
    attempted += rep.ops;
    failed += rep.failed;
  }
  for (const Cycle& cycle : cycles) {
    for (int k = 0; k < kSubSeeds; ++k) {
      const Rep& rep = cycle.reps[k];
      problems.insert(problems.end(), rep.problems.begin(), rep.problems.end());
      if (rep.fingerprint != first.reps[k].fingerprint) {
        problems.push_back("nondeterministic: world seed " +
                           std::to_string(SubSeed(options.seed, k)) +
                           " changed its fingerprint between cycles");
      }
    }
  }
  uint64_t fingerprint = 0xcbf29ce484222325ull;
  for (int k = 0; k < kSubSeeds; ++k) {
    const Rep& rep = first.reps[k];
    fingerprint = (fingerprint ^ rep.fingerprint) * 0x100000001b3ull;
    for (const std::string& violation : rep.gate_violations) {
      std::printf("GATE VIOLATION (%s, world seed %" PRIu64 "): %s\n", workload.name.c_str(),
                  SubSeed(options.seed, k), violation.c_str());
    }
    const perfbench::TailSummary& lat = rep.latency;
    std::printf("world seed %" PRIu64 ": failed %" PRIu64 " of %" PRIu64
                " ops; rpc latency n=%zu p50=%.4f sim_ms p%.2f=%.4f sim_ms (%zu beyond)\n",
                SubSeed(options.seed, k), rep.failed, rep.ops, lat.samples, lat.median,
                lat.tail_percentile, lat.tail, lat.beyond_tail);
  }
  const bool correct = problems.empty();
  for (const std::string& problem : problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("checks: %s (integrity, gates, span conservation, callable heap allocs, "
              "determinism over %zu cycles)\n",
              correct ? "ok" : "FAILED", cycles.size());
  std::printf("fingerprint %016" PRIx64 "\n", fingerprint);
  std::printf("op_fail_ratio %.6g (%" PRIu64 " of %" PRIu64 " ops over the %d world seeds)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)), failed,
              attempted, kSubSeeds);

  std::map<std::string, double> values;
  values["rpc_p50_ms"] = MedianOver(first, [](const Rep& r) { return r.latency.median; });
  values["rpc_p99_ms"] = MedianOver(first, [](const Rep& r) { return r.latency.tail; });
  values["rpc.latency_samples"] = MedianOver(first, [](const Rep& r) {
    return static_cast<double>(r.latency.samples);
  });
  values["rpc.tail_percentile"] =
      MedianOver(first, [](const Rep& r) { return r.latency.tail_percentile; });
  values["ops_per_sim_s"] = MedianOver(first, [](const Rep& r) { return r.ops_per_sim_s; });
  values["sim_ops_per_host_s"] = MedianCycles(cycles, false, [](const Cycle& c) {
    return static_cast<double>(c.ops()) / c.run_s();
  });
  values["setup_s"] = perfbench::Median(setup_total);
  values["peak_rss_mb"] = PeakRssMb();
  for (const auto& [name, value] : first.reps.front().counts) {
    std::vector<double> per_seed;
    for (const Rep& rep : first.reps) {
      per_seed.push_back(rep.counts.at(name));
    }
    values[name] = perfbench::Median(per_seed);
  }
  std::printf("simulated metrics: medians over the %d world seeds\n", kSubSeeds);

  if (workload.soak) {
    std::printf("model: unvalidated (no Table #1 figure for this cell)\n");
  } else {
    const double reads = MedianOver(first, [](const Rep& r) { return r.reads_per_sim_s; });
    std::printf("model: Table #1 %s %s records %.2f reads/s at %.0f rpc/s offered; this run "
                "%.4f reads/s at %.0f rpc/s offered, ratio %.3f (not gated)\n",
                TopologyKindName(workload.cell.topology),
                TransportChoiceName(workload.cell.transport), workload.cell.table1_reads_per_sec,
                workload.cell.table1_offered, reads, workload.cell.offered_ops_per_sec,
                reads / workload.cell.table1_reads_per_sec);
  }

  std::vector<std::pair<perfbench::MetricSpec, double>> printed;
  if (!options.trace) {
    for (const perfbench::MetricSpec& spec : perfbench::kEndToEnd) {
      printed.emplace_back(spec, values[std::string(spec.name)]);
    }
  } else {
    const std::map<std::string, uint64_t> charged = sampler->Attribute();
    const std::map<std::string, double> shares = perfbench::LayerShares(charged);
    auto cycle_time = [](const Cycle& c) { return c.run_s(); };
    const double traced_s = MedianCycles(cycles, true, cycle_time);
    const double untraced_s = MedianCycles(cycles, false, cycle_time);
    for (const auto& [layer, share] : shares) {
      values[(layer == "sim" ? "sim.sched" : layer) + ".host_share"] = share;
    }
    values["sim.sched.host_ns_per_event"] =
        Ratio(shares.at("sim") * traced_s * 1e9, first.Total("sim.sched.events"));
    values["obs.host_us_per_frame"] =
        Ratio(shares.at("obs") * traced_s * 1e6, first.Total("obs.flight.frames"));
    values["setup.world_s"] = perfbench::Median(setup_world);
    values["setup.preload_s"] = perfbench::Median(setup_preload);
    values["harness.trace_overhead"] = Ratio(traced_s, untraced_s) - 1.0;
    values["harness.profile_samples"] = static_cast<double>(sampler->samples());
    std::printf("spans (host s, median): setup.world=%.6f setup.preload=%.6f run=%.6f per "
                "cycle (sampled %.6f) report=%.6f\n",
                values["setup.world_s"], values["setup.preload_s"], untraced_s, traced_s,
                SecondsSince(report_start));
    std::printf("host profile: %zu samples (%" PRIu64 " dropped), tracing overhead %+.2f%%\n",
                sampler->samples(), sampler->dropped(), 100 * values["harness.trace_overhead"]);
    for (const auto& [layer, share] : shares) {
      std::printf("  %-8s %6.2f%%  (%" PRIu64 " samples)\n", layer.c_str(), 100 * share,
                  charged.at(layer));
    }
    for (const perfbench::MetricSpec& spec : perfbench::kPerLayer) {
      printed.emplace_back(spec, values[std::string(spec.name)]);
    }
  }
  for (const auto& [spec, value] : printed) {
    std::printf("%-38.*s %.6g %.*s\n", static_cast<int>(spec.name.size()), spec.name.data(),
                value, static_cast<int>(spec.unit.size()), spec.unit.data());
  }
  PrintJson(correct, attempted, failed, printed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
