// Latency summaries for the benchmark: the median and the highest
// percentile (capped at p99) that still has at least ten samples beyond it,
// each reported with the sample count it rests on.
#ifndef RENONFS_PERFBENCH_PERCENTILE_H_
#define RENONFS_PERFBENCH_PERCENTILE_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kMinTailSamples = 10;

struct TailSummary {
  size_t samples = 0;
  double median = 0;
  // Nearest-rank value at `tail_percentile`; valid only when `tail_valid`.
  bool tail_valid = false;
  double tail = 0;
  double tail_percentile = 0;  // 99 when the sample count allows it
  size_t beyond_tail = 0;      // samples strictly after the tail rank
};

// Median of the values (mean of the middle two for an even count); 0 when
// empty. Takes a copy: the caller's order is kept.
double Median(std::vector<double> values);

// Sorts `samples` and summarises them. The tail rank is
// min(ceil(0.99 n), n - kMinTailSamples); with fewer than
// kMinTailSamples + 1 samples there is no valid tail.
TailSummary Summarize(std::vector<double> samples);

}  // namespace perfbench

#endif  // RENONFS_PERFBENCH_PERCENTILE_H_
