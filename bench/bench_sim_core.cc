// Sim-core microbenchmark: wall-clock events per second through the
// timing-wheel discrete-event scheduler and the pooled allocators.
//
// Mixes:
//   schedule_fire    batches of one-shot events at short pseudo-random
//                    delays, drained with Run() — the datapath's dominant
//                    pattern (CPU charges, disk completions, net delivery).
//   schedule_cancel  same, but half the events are cancelled before they
//                    fire — dup-cache timers, abandoned retransmits.
//   timer_churn      a fixed population of Timers re-armed far more often
//                    than they expire — the retransmit/lease-renewal
//                    profile.
//   mbuf_churn       mbuf chain build / zero-copy share / teardown — pure
//                    FixedPool recycling, no scheduler.
//
// Flags: --quick shrinks every mix for CI smoke; --json FILE writes the
// measured numbers in BENCH_simcore.json form (regression floors =
// measured/8); --check exits 1 if any mix lands under its floor in the
// baseline file (--baseline FILE, default BENCH_simcore.json).
//
// Wall-clock timing deliberately uses std::chrono::steady_clock: this bench
// measures the simulator's own speed, not simulated behaviour, and nothing
// here feeds record/replay.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/sim/scheduler.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/table.h"

using namespace renonfs;

namespace {

bool g_quick = false;
int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    ++g_failures;
  }
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

// Batched one-shot events: schedule kBatch at delays in [1us, 1ms], drain,
// repeat. Batching keeps a realistic queue depth (~4k outstanding) instead
// of testing one giant build-up.
double RunScheduleFire(size_t total_events) {
  constexpr size_t kBatch = 4096;
  Scheduler scheduler;
  Rng rng(0x5eedc0de);
  uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  size_t remaining = total_events;
  while (remaining > 0) {
    const size_t batch = remaining < kBatch ? remaining : kBatch;
    for (size_t i = 0; i < batch; ++i) {
      const SimTime delay = Microseconds(1) + static_cast<SimTime>(rng.UniformUint64(99990));
      scheduler.Schedule(delay, [&fired]() { ++fired; });
    }
    scheduler.Run();
    remaining -= batch;
  }
  const auto stop = std::chrono::steady_clock::now();
  CHECK_EQ(fired, total_events);
  return static_cast<double>(total_events) / Seconds(start, stop);
}

// As above, but every second event is cancelled before the drain. Events/sec
// counts scheduled events (fired + cancelled).
double RunScheduleCancel(size_t total_events) {
  constexpr size_t kBatch = 4096;
  Scheduler scheduler;
  Rng rng(0xcafe);
  uint64_t fired = 0;
  std::vector<Scheduler::EventHandle> handles;
  handles.reserve(kBatch);
  const auto start = std::chrono::steady_clock::now();
  size_t remaining = total_events;
  while (remaining > 0) {
    const size_t batch = remaining < kBatch ? remaining : kBatch;
    handles.clear();
    for (size_t i = 0; i < batch; ++i) {
      const SimTime delay = Microseconds(1) + static_cast<SimTime>(rng.UniformUint64(99990));
      handles.push_back(scheduler.Schedule(delay, [&fired]() { ++fired; }));
    }
    for (size_t i = 0; i < handles.size(); i += 2) {
      scheduler.Cancel(handles[i]);
    }
    scheduler.Run();
    remaining -= batch;
  }
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(total_events) / Seconds(start, stop);
}

// A fixed population of retransmit-style timers with 10-60 ms timeouts,
// each re-armed every ~0.8 ms of simulated time — the paper's NFS
// retransmit profile, where the timer restarts on every reply and almost
// never expires (~99% of Starts move a still-pending event). The wheel
// unlinks the doubly-linked node and restamps it in place. Events/sec
// counts starts + fires.
double RunTimerChurn(size_t total_starts) {
  constexpr size_t kTimers = 2048;
  Scheduler scheduler;
  Rng rng(0x7133);
  uint64_t fires = 0;
  std::vector<std::unique_ptr<Timer>> timers;
  timers.reserve(kTimers);
  for (size_t i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(scheduler, [&fires]() { ++fires; }));
  }
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < total_starts; ++i) {
    Timer& timer = *timers[i & (kTimers - 1)];
    timer.Start(Milliseconds(10) + Microseconds(static_cast<SimTime>(rng.UniformUint64(50000))));
    if ((i & 255) == 255) {
      scheduler.RunFor(Microseconds(100));
    }
  }
  scheduler.Run();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(total_starts + fires) / Seconds(start, stop);
}

// Pure allocator churn: build a ~5 KB chain (3 clusters), share a slice of
// it zero-copy into a second chain, tear both down. Ops/sec counts chains.
double RunMbufChurn(size_t total_chains) {
  std::vector<uint8_t> payload(5000, 0xab);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < total_chains; ++i) {
    MbufChain chain = MbufChain::FromBytes(payload.data(), payload.size());
    MbufChain shared = chain.CopyRange(100, 4000);
    if (shared.Length() != 4000) {
      std::abort();
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(total_chains) / Seconds(start, stop);
}

struct MixResult {
  std::string name;
  double eps = 0;  // events/sec
};

// Pulls "floor_events_per_sec" for one mix out of the baseline JSON with a
// targeted string search — no JSON parser in tree, and the format is ours.
bool BaselineFloor(const std::string& json, const std::string& mix, double* floor) {
  const size_t mix_at = json.find("\"" + mix + "\"");
  if (mix_at == std::string::npos) {
    return false;
  }
  const size_t key_at = json.find("\"floor_events_per_sec\":", mix_at);
  if (key_at == std::string::npos) {
    return false;
  }
  *floor = std::atof(json.c_str() + key_at + std::strlen("\"floor_events_per_sec\":"));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string json_file;
  std::string baseline_file = "BENCH_simcore.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_file = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_file = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--check] [--baseline FILE] [--json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  const size_t fire_n = g_quick ? 200'000 : 2'000'000;
  const size_t cancel_n = g_quick ? 200'000 : 2'000'000;
  const size_t churn_n = g_quick ? 100'000 : 1'000'000;
  const size_t mbuf_n = g_quick ? 20'000 : 200'000;

  const std::vector<MixResult> results = {
      {"schedule_fire", RunScheduleFire(fire_n)},
      {"schedule_cancel", RunScheduleCancel(cancel_n)},
      {"timer_churn", RunTimerChurn(churn_n)},
      {"mbuf_churn", RunMbufChurn(mbuf_n)},
  };

  TextTable table(std::string("sim-core events/sec (") + (g_quick ? "quick" : "full") + ")");
  table.SetHeader({"mix", "ev/s"});
  for (const MixResult& r : results) {
    table.AddRow({r.name, TextTable::Num(r.eps, 0)});
  }
  std::printf("%s", table.Render().c_str());

  if (!json_file.empty()) {
    std::ofstream out(json_file);
    out << "{\n  \"bench\": \"sim_core\",\n";
    out << "  \"mode\": \"" << (g_quick ? "quick" : "full") << "\",\n";
    out << "  \"mixes\": {\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const MixResult& r = results[i];
      out << "    \"" << r.name << "\": {\"events_per_sec\": " << static_cast<uint64_t>(r.eps)
          << ", \"floor_events_per_sec\": " << static_cast<uint64_t>(r.eps / 8) << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", json_file.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_file.c_str());
  }

  if (check) {
    std::ifstream in(baseline_file);
    if (!in) {
      std::fprintf(stderr, "bench_sim_core: no baseline %s; floors not checked\n",
                   baseline_file.c_str());
    } else {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string json = buffer.str();
      for (const MixResult& r : results) {
        double floor = 0;
        if (!BaselineFloor(json, r.name, &floor)) {
          Check(false, "baseline is missing a floor for a mix");
          continue;
        }
        if (r.eps < floor) {
          std::fprintf(stderr, "CHECK FAILED: %s: %.0f ev/s under floor %.0f\n",
                       r.name.c_str(), r.eps, floor);
          ++g_failures;
        }
      }
    }
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "bench_sim_core: %d check(s) failed\n", g_failures);
    return 1;
  }
  return 0;
}
