// Scenario-matrix soak runner: every cell of workload-personality ×
// transport × topology × fault-schedule from DefaultScenarioMatrix() runs
// under the chaos harness's byte-level integrity audit, and every cell must
// meet its gates — integrity intact, zero stale-lease writes, p99 and
// recovery-episode bounds. The paper tuned one personality at a time; the
// matrix is the regression net that keeps all of them honest at once.
//
// Flags:
//   --quick        3-cell smoke subset (one cell per transport, one faulted)
//   --check        exit 1 on any gate violation or replay divergence; each
//                  cell is re-executed from its own trace record and must
//                  reproduce bit-for-bit (same fault trace, op log, and
//                  metrics snapshot hash)
//   --out <path>   write the consolidated JSON capture (default
//                  BENCH_scenarios.json in full mode, none in --quick)
//   --artifacts <dir>  where failing cells drop replayable .trace files
//                  (default ".")
//   --baseline <json>  compare each cell's snapshot hash and replay verdict
//                  with the cell of the same name in a committed capture;
//                  under --check any difference fails. Writes no capture
//                  unless --out is given.
//
// scripts/check.sh runs `--quick --check` under ASan and the full matrix
// with `--check --baseline BENCH_scenarios.json` on the plain build;
// BENCH_scenarios.json archives a full-mode capture. A failing cell writes
// <artifacts>/scenario_<name>.trace — replay it with
// `chaos_demo --replay <file>`.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/runner.h"
#include "src/util/table.h"

using namespace renonfs;

namespace {

bool g_quick = false;
int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

struct CellResult {
  Scenario scenario;       // as run (effective seed)
  ChaosReport report;
  std::vector<std::string> violations;
  std::string replay = "skipped";  // "ok" | "divergent" | "skipped"
  std::vector<std::string> divergences;

  bool passed() const { return violations.empty() && replay != "divergent"; }
};

uint64_t MaxP99(const ChaosReport& report) {
  uint64_t max = 0;
  for (const auto& lat : report.latencies) {
    if (lat.p99_us > max) {
      max = lat.p99_us;
    }
  }
  return max;
}

std::string HashHex(uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// Replaces '.' so cell names make portable artifact filenames.
std::string ArtifactName(const std::string& cell) {
  std::string name = "scenario_";
  for (char c : cell) {
    name += (c == '.') ? '_' : c;
  }
  return name + ".trace";
}

CellResult RunCell(const Scenario& cell, bool check, const std::string& artifacts) {
  CellResult result;
  auto outcome_or = RunScenario(cell);
  CHECK(outcome_or.ok());  // matrix cells are valid by construction
  ScenarioOutcome outcome = std::move(outcome_or).value();
  result.scenario = outcome.scenario;
  result.report = std::move(outcome.report);
  result.violations = std::move(outcome.gate_violations);

  if (check) {
    // Determinism gate: the cell's own trace record must replay
    // divergence-free. This is the matrix double-checking the record/replay
    // promise on every cell, not just the ones that fail.
    const TraceRecord trace =
        TraceRecord::FromRun(result.scenario, result.report);
    auto replay_or = ReplayTrace(trace);
    CHECK(replay_or.ok());
    result.divergences = std::move(replay_or).value().divergences;
    result.replay = result.divergences.empty() ? "ok" : "divergent";
  }

  if (!result.violations.empty()) {
    const std::string path = artifacts + "/" + ArtifactName(result.scenario.name);
    const TraceRecord trace =
        TraceRecord::FromRun(result.scenario, result.report);
    const Status written = WriteTraceFile(trace, path);
    std::fprintf(stderr, "cell %s FAILED — %s\n", result.scenario.name.c_str(),
                 written.ok()
                     ? ("replayable trace written to " + path).c_str()
                     : "trace artifact could not be written");
    for (const std::string& violation : result.violations) {
      std::fprintf(stderr, "  gate: %s\n", violation.c_str());
    }
  }
  for (const std::string& divergence : result.divergences) {
    std::fprintf(stderr, "cell %s REPLAY DIVERGED: %s\n",
                 result.scenario.name.c_str(), divergence.c_str());
  }
  return result;
}

// --- JSON capture ----------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

void WriteJson(const std::string& path, const std::vector<CellResult>& cells) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_scenarios: cannot write %s\n", path.c_str());
    ++g_failures;
    return;
  }
  size_t passed = 0, replayed = 0, diverged = 0;
  for (const CellResult& cell : cells) {
    passed += cell.passed() ? 1 : 0;
    replayed += cell.replay != "skipped" ? 1 : 0;
    diverged += cell.replay == "divergent" ? 1 : 0;
  }
  out << "{\n";
  out << "  \"bench\": \"bench_scenarios\",\n";
  out << "  \"mode\": \"" << (g_quick ? "quick" : "full") << "\",\n";
  out << "  \"matrix\": {\"cells\": " << cells.size() << ", \"passed\": "
      << passed << ", \"replay_checked\": " << replayed
      << ", \"replay_divergent\": " << diverged << "},\n";
  out << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    const Scenario& s = cell.scenario;
    out << "    {\n";
    out << "      \"name\": \"" << JsonEscape(s.name) << "\",\n";
    out << "      \"seed\": " << s.seed << ",\n";
    out << "      \"workload\": \"" << WorkloadToken(s.workload) << "\",\n";
    out << "      \"mount\": \"" << JsonEscape(s.mount) << "\",\n";
    out << "      \"transport\": \"" << JsonEscape(s.transport) << "\",\n";
    out << "      \"topology\": \"" << TopologyToken(s.topology) << "\",\n";
    out << "      \"clients\": " << s.clients << ",\n";
    out << "      \"faults\": [";
    for (size_t f = 0; f < s.faults.size(); ++f) {
      out << (f ? ", " : "") << "\"" << JsonEscape(FaultSpecToString(s.faults[f]))
          << "\"";
    }
    out << "],\n";
    out << "      \"gates\": {\"max_p99_us\": " << s.gates.max_p99_us
        << ", \"max_recovery_episodes\": " << s.gates.max_recovery_episodes
        << "},\n";
    out << "      \"status\": \""
        << (cell.report.workload_status.ok()
                ? "ok"
                : std::string(ErrorCodeName(cell.report.workload_status.code())))
        << "\",\n";
    out << "      \"integrity_ok\": "
        << (cell.report.integrity_ok ? "true" : "false") << ",\n";
    out << "      \"files_compared\": " << cell.report.files_compared << ",\n";
    out << "      \"ops\": " << cell.report.op_log.size() << ",\n";
    out << "      \"fault_events\": " << cell.report.fault_trace.size() << ",\n";
    out << "      \"crashes\": " << cell.report.crash_count << ",\n";
    out << "      \"recovery_episodes\": "
        << cell.report.recovery.not_responding_events << ",\n";
    out << "      \"stale_lease_writes\": " << cell.report.stale_lease_writes
        << ",\n";
    out << "      \"max_p99_us\": " << MaxP99(cell.report) << ",\n";
    out << "      \"snapshot_hash\": \"" << HashHex(cell.report.snapshot_hash)
        << "\",\n";
    out << "      \"violations\": [";
    for (size_t v = 0; v < cell.violations.size(); ++v) {
      out << (v ? ", " : "") << "\"" << JsonEscape(cell.violations[v]) << "\"";
    }
    out << "],\n";
    out << "      \"replay\": \"" << cell.replay << "\",\n";
    // Critical-path attribution: where this cell's client-visible latency
    // went (component name + share of attributed time, dominant first).
    out << "      \"top_components\": [";
    const size_t n_comp = std::min<size_t>(cell.report.top_components.size(), 4);
    for (size_t c = 0; c < n_comp; ++c) {
      char share[32];
      std::snprintf(share, sizeof(share), "%.4f",
                    cell.report.top_components[c].second);
      out << (c ? ", " : "") << "{\"component\": \""
          << JsonEscape(cell.report.top_components[c].first)
          << "\", \"share\": " << share << "}";
    }
    out << "]\n";
    out << "    }" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"gate\": \"scripts/check.sh runs `bench_scenarios --quick --check`"
         " under ASan; any gate violation or replay divergence fails the"
         " build\"\n";
  out << "}\n";
  std::printf("wrote %s (%zu cells)\n", path.c_str(), cells.size());
}

// Finds `"<key>": "<value>"` for the named cell in a capture written by
// WriteJson — a targeted string search, since the format is ours.
bool BaselineField(const std::string& json, const std::string& cell,
                   const std::string& key, std::string* value) {
  const size_t cell_at = json.find("\"name\": \"" + JsonEscape(cell) + "\"");
  if (cell_at == std::string::npos) {
    return false;
  }
  const std::string tag = "\"" + key + "\": \"";
  const size_t key_at = json.find(tag, cell_at);
  const size_t next_cell = json.find("\"name\": \"", cell_at + 1);
  if (key_at == std::string::npos || key_at > next_cell) {
    return false;
  }
  const size_t start = key_at + tag.size();
  *value = json.substr(start, json.find('"', start) - start);
  return true;
}

// Every cell present in the baseline must reproduce its recorded snapshot
// hash and (when --check replayed it) its replay verdict; cells the baseline
// lacks are reported, not failed.
void CompareBaseline(const std::string& path, const std::vector<CellResult>& cells) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_scenarios: cannot read baseline %s\n", path.c_str());
    ++g_failures;
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  size_t compared = 0;
  for (const CellResult& cell : cells) {
    const std::string& name = cell.scenario.name;
    std::string hash, replay;
    if (!BaselineField(json, name, "snapshot_hash", &hash) ||
        !BaselineField(json, name, "replay", &replay)) {
      std::printf("baseline: %s not in %s\n", name.c_str(), path.c_str());
      continue;
    }
    ++compared;
    Check(hash == HashHex(cell.report.snapshot_hash),
          "cell " + name + " snapshot hash " + HashHex(cell.report.snapshot_hash) +
              " != baseline " + hash);
    Check(cell.replay == "skipped" || replay == cell.replay,
          "cell " + name + " replay " + cell.replay + " != baseline " + replay);
  }
  std::printf("baseline: compared %zu of %zu cells with %s\n", compared, cells.size(),
              path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path;
  std::string artifacts = ".";
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--artifacts") == 0 && i + 1 < argc) {
      artifacts = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--check] [--out <json>] "
                   "[--artifacts <dir>] [--baseline <json>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (out_path.empty() && !g_quick && baseline.empty()) {
    out_path = "BENCH_scenarios.json";
  }

  const std::vector<Scenario> matrix = DefaultScenarioMatrix(g_quick);
  std::vector<CellResult> results;
  results.reserve(matrix.size());

  TextTable table(g_quick ? "Scenario matrix — quick smoke"
                          : "Scenario matrix — workload × transport × "
                            "topology × faults");
  table.SetHeader({"cell", "seed", "ops", "files", "crashes", "recov",
                   "p99 max (ms)", "gates", "replay"});
  for (const Scenario& cell : matrix) {
    CellResult result = RunCell(cell, check, artifacts);
    table.AddRow({result.scenario.name, std::to_string(result.scenario.seed),
                  std::to_string(result.report.op_log.size()),
                  std::to_string(result.report.files_compared),
                  std::to_string(result.report.crash_count),
                  std::to_string(result.report.recovery.not_responding_events),
                  TextTable::Num(MaxP99(result.report) / 1000.0, 1),
                  result.violations.empty()
                      ? "pass"
                      : "FAIL(" + std::to_string(result.violations.size()) + ")",
                  result.replay});
    std::fflush(stdout);
    Check(result.violations.empty(),
          "cell " + result.scenario.name + " violated its gates");
    Check(result.replay != "divergent",
          "cell " + result.scenario.name + " replay diverged");
    results.push_back(std::move(result));
  }
  std::printf("%s\n", table.Render().c_str());

  if (!out_path.empty()) {
    WriteJson(out_path, results);
  }
  if (!baseline.empty()) {
    CompareBaseline(baseline, results);
  }

  if (check) {
    if (g_failures > 0) {
      std::fprintf(stderr, "bench_scenarios: %d check(s) failed\n", g_failures);
      return 1;
    }
    std::printf("bench_scenarios: all %zu cells passed, replay divergence-free\n",
                results.size());
  }
  return 0;
}
