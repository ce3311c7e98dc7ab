#include "percentile.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

TailSummary Summarize(std::vector<double> samples) {
  TailSummary out;
  out.samples = samples.size();
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  out.median = Median(samples);
  const size_t n = samples.size();
  if (n <= kMinTailSamples) {
    return out;
  }
  // Nearest rank of p99 (1-based), pulled down until ten samples lie beyond.
  const size_t p99_rank = (99 * n + 99) / 100;
  const size_t rank = std::min(p99_rank, n - kMinTailSamples);
  out.tail_valid = true;
  out.tail = samples[rank - 1];
  out.tail_percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  out.beyond_tail = n - rank;
  return out;
}

}  // namespace perfbench
