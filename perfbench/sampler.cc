#include "sampler.h"

#include <execinfo.h>
#include <link.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>

namespace perfbench {
namespace {

// The one running sampler's buffer, published to the signal handler.
void* g_buffer = nullptr;
size_t g_capacity = 0;
std::atomic<size_t> g_count{0};
std::atomic<uint64_t> g_dropped{0};

// Load bias and PT_LOAD ranges of the main executable.
struct ExeImage {
  uintptr_t bias = 0;
  std::vector<std::pair<uintptr_t, uintptr_t>> ranges;

  bool Contains(uintptr_t pc) const {
    for (const auto& [lo, hi] : ranges) {
      if (pc >= lo && pc < hi) {
        return true;
      }
    }
    return false;
  }
};

ExeImage MainImage() {
  ExeImage image;
  dl_iterate_phdr(
      [](dl_phdr_info* info, size_t, void* data) {
        auto* out = static_cast<ExeImage*>(data);
        out->bias = info->dlpi_addr;
        for (int i = 0; i < info->dlpi_phnum; ++i) {
          const auto& ph = info->dlpi_phdr[i];
          if (ph.p_type == PT_LOAD) {
            const uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            out->ranges.emplace_back(lo, lo + ph.p_memsz);
          }
        }
        return 1;  // the main program is always the first object
      },
      &image);
  return image;
}

std::string SelfExe() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) {
    throw std::runtime_error("perfbench: cannot resolve /proc/self/exe");
  }
  return std::string(path, static_cast<size_t>(n));
}

// "file:line (discriminator 3)" -> "file".
std::string PathOf(const std::string& line) {
  const size_t colon = line.rfind(':');
  return colon == std::string::npos ? line : line.substr(0, colon);
}

}  // namespace

std::string LayerOfPath(std::string_view path) {
  const size_t slash = path.rfind('/');
  const std::string_view dir = slash == std::string_view::npos ? "" : path.substr(0, slash);
  if (dir == "perfbench" || dir.ends_with("/perfbench")) {
    return "harness";
  }
  static constexpr std::string_view kHarness[] = {"workload", "scenario", "fault"};
  for (size_t at = path.rfind("src/"); at != std::string_view::npos;
       at = at == 0 ? std::string_view::npos : path.rfind("src/", at - 1)) {
    if (at > 0 && path[at - 1] != '/') {
      continue;
    }
    const std::string_view rest = path.substr(at + 4);
    const size_t end = rest.find('/');
    if (end == std::string_view::npos) {
      continue;
    }
    const std::string_view module = rest.substr(0, end);
    for (std::string_view harness : kHarness) {
      if (module == harness) {
        return "harness";
      }
    }
    if (module == "sim" && rest.substr(end + 1).starts_with("audit.")) {
      return "harness";
    }
    for (std::string_view layer : kLayers) {
      if (module == layer) {
        return std::string(layer);
      }
    }
  }
  return "";
}

std::string ChargeSample(const std::vector<std::vector<std::string>>& frames) {
  for (const auto& chain : frames) {
    for (const std::string& path : chain) {
      std::string layer = LayerOfPath(path);
      if (!layer.empty()) {
        return layer;
      }
    }
  }
  return "other";
}

std::map<std::string, double> LayerShares(const std::map<std::string, uint64_t>& counts) {
  uint64_t total = 0;
  for (const auto& [layer, n] : counts) {
    total += n;
  }
  std::map<std::string, double> shares;
  for (std::string_view layer : kLayers) {
    const auto it = counts.find(std::string(layer));
    const uint64_t n = it == counts.end() ? 0 : it->second;
    shares[std::string(layer)] =
        total == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(total);
  }
  return shares;
}

std::map<uintptr_t, std::vector<std::string>> Symbolize(const std::vector<uintptr_t>& pcs) {
  const ExeImage image = MainImage();
  const std::string exe = SelfExe();
  std::map<uintptr_t, std::vector<std::string>> out;
  constexpr size_t kChunk = 2000;  // keeps each command line far below ARG_MAX
  for (size_t begin = 0; begin < pcs.size(); begin += kChunk) {
    const size_t end = std::min(pcs.size(), begin + kChunk);
    std::string command = "addr2line -a -i -e '" + exe + "'";
    char hex[32];
    for (size_t i = begin; i < end; ++i) {
      std::snprintf(hex, sizeof(hex), " 0x%jx", static_cast<uintmax_t>(pcs[i] - image.bias));
      command += hex;
    }
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
      throw std::runtime_error("perfbench: cannot run addr2line");
    }
    // With -a each input address opens a group: its "0x..." line, then one
    // "file:line" line per inline level, innermost first.
    size_t next = begin;
    std::vector<std::string>* chain = nullptr;
    char line[8192];
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
      std::string text(line);
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
        text.pop_back();
      }
      if (text.starts_with("0x")) {
        chain = next < end ? &out[pcs[next++]] : nullptr;
      } else if (chain != nullptr) {
        chain->push_back(PathOf(text));
      }
    }
    if (pclose(pipe) != 0 || next != end) {
      throw std::runtime_error("perfbench: addr2line failed");
    }
  }
  return out;
}

StackSampler::StackSampler(size_t max_samples) : buffer_(max_samples) {
  // backtrace() loads libgcc's unwinder on first use; do it here, not inside
  // the signal handler.
  void* warm[4];
  backtrace(warm, 4);
}

StackSampler::~StackSampler() { Stop(); }

void StackSampler::OnSignal(int, siginfo_t*, void* context) {
  const size_t slot = g_count.load(std::memory_order_relaxed);
  if (slot >= g_capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Sample& sample = static_cast<Sample*>(g_buffer)[slot];
  sample.depth = backtrace(sample.pcs.data(), kMaxDepth);
  // Drop the handler and signal-trampoline frames: the stack starts at the
  // interrupted program-counter.
  void* leaf = nullptr;
#if defined(__x86_64__)
  leaf = reinterpret_cast<void*>(static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
#else
  (void)context;
#endif
  int first = sample.depth < 2 ? sample.depth : 2;
  for (int i = 0; i < sample.depth; ++i) {
    if (sample.pcs[i] == leaf) {
      first = i;
      break;
    }
  }
  std::memmove(sample.pcs.data(), sample.pcs.data() + first,
               static_cast<size_t>(sample.depth - first) * sizeof(void*));
  sample.depth -= first;
  g_count.store(slot + 1, std::memory_order_relaxed);
}

void StackSampler::Start() {
  constexpr int kIntervalUs = 1000;
  if (g_buffer != nullptr && g_buffer != buffer_.data()) {
    throw std::logic_error("perfbench: another sampler is running");
  }
  g_buffer = buffer_.data();
  g_capacity = buffer_.size();
  struct sigaction action {};
  action.sa_sigaction = &StackSampler::OnSignal;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  itimerval timer{};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value.tv_usec = kIntervalUs;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

void StackSampler::Stop() {
  if (g_buffer != buffer_.data()) {
    return;
  }
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  g_buffer = nullptr;
  g_capacity = 0;
}

size_t StackSampler::samples() const { return g_count.load(std::memory_order_relaxed); }

uint64_t StackSampler::dropped() const { return g_dropped.load(std::memory_order_relaxed); }

std::map<std::string, uint64_t> StackSampler::Attribute() const {
  const ExeImage image = MainImage();
  const size_t count = samples();
  // Every frame but the leaf holds a return address; step back into the
  // call instruction so the line is the call site.
  auto frame_pc = [](const Sample& sample, int i) {
    const auto pc = reinterpret_cast<uintptr_t>(sample.pcs[static_cast<size_t>(i)]);
    return i == 0 ? pc : pc - 1;
  };
  std::set<uintptr_t> unique;
  for (size_t s = 0; s < count; ++s) {
    for (int i = 0; i < buffer_[s].depth; ++i) {
      const uintptr_t pc = frame_pc(buffer_[s], i);
      if (image.Contains(pc)) {
        unique.insert(pc);
      }
    }
  }
  const auto symbols = Symbolize(std::vector<uintptr_t>(unique.begin(), unique.end()));
  std::map<std::string, uint64_t> charged;
  for (std::string_view layer : kLayers) {
    charged[std::string(layer)] = 0;
  }
  std::vector<std::vector<std::string>> frames;
  for (size_t s = 0; s < count; ++s) {
    frames.clear();
    for (int i = 0; i < buffer_[s].depth; ++i) {
      const auto it = symbols.find(frame_pc(buffer_[s], i));
      // Frames outside the executable (libc, libstdc++) have no chain and
      // pass the charge to their caller.
      frames.push_back(it == symbols.end() ? std::vector<std::string>{} : it->second);
    }
    ++charged[ChargeSample(frames)];
  }
  return charged;
}

}  // namespace perfbench
