// In-process stack sampler that charges host CPU time to the modules of
// src/.
//
// SIGPROF fires on ITIMER_PROF (process CPU time); the handler unwinds the
// interrupted stack with backtrace() into a preallocated buffer. After the
// sampled window, Attribute() symbolises every program-counter with one
// addr2line pass over the running binary (which must carry debug info) and
// charges each sample to its innermost frame that lies under src/<module>/
// or in the benchmark's own sources. Library frames (libc, libstdc++, inlined
// standard-library templates) pass the charge on to their caller; a sample
// with no such frame is charged to "other".
#ifndef RENONFS_PERFBENCH_SAMPLER_H_
#define RENONFS_PERFBENCH_SAMPLER_H_

#include <signal.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Layers host time is charged to, in report order. "sim" is the scheduler
// and its resource models (src/sim); "harness" is the workload generators,
// the scenario layer, the fault injector, the invariant auditor and this
// benchmark; "other" holds samples with no frame in either.
inline constexpr std::array<std::string_view, 13> kLayers = {
    "sim", "net", "tcp", "rpc", "nfs", "vfs", "fs",
    "mbuf", "xdr", "obs", "util", "harness", "other"};

// Layer of one source path, or "" when the path is not a src/ or benchmark
// file (system headers, "??").
std::string LayerOfPath(std::string_view path);

// Layer of one sample. `frames` is the stack innermost first; each frame is
// its inline chain of source paths, innermost first (addr2line -i order).
std::string ChargeSample(const std::vector<std::vector<std::string>>& frames);

// Every layer of kLayers mapped to its share of `counts`; the shares sum to 1
// (all zero when there are no samples).
std::map<std::string, double> LayerShares(const std::map<std::string, uint64_t>& counts);

// Inline chains (innermost first) of program-counters inside the running
// executable, by addr2line over /proc/self/exe. Addresses are
// runtime addresses; the load bias is removed here.
std::map<uintptr_t, std::vector<std::string>> Symbolize(const std::vector<uintptr_t>& pcs);

class StackSampler {
 public:
  static constexpr int kMaxDepth = 64;

  explicit StackSampler(size_t max_samples);
  ~StackSampler();
  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  // Arms the profiling timer (1 ms requested; the kernel's tick may make it
  // coarser); samples accumulate across Start/Stop pairs. Only one sampler
  // may run at a time.
  void Start();
  void Stop();

  size_t samples() const;
  uint64_t dropped() const;

  // Samples charged per layer (every layer of kLayers present).
  std::map<std::string, uint64_t> Attribute() const;

 private:
  struct Sample {
    int depth = 0;
    std::array<void*, kMaxDepth> pcs{};
  };
  static void OnSignal(int, siginfo_t* info, void* context);

  std::vector<Sample> buffer_;
};

}  // namespace perfbench

#endif  // RENONFS_PERFBENCH_SAMPLER_H_
