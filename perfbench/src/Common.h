//===- perfbench/src/Common.h - shared driver helpers ----------*- C++ -*-===//
//
// Part of the cvliw project (CGO'03 clustered-VLIW coherence reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the perfbench driver's subcommands: an in-memory
/// span log written out when the run ends, clocks, and the rendering of
/// an experiment's tables exactly as `cvliw-bench` prints them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "cvliw/pipeline/ExperimentRegistry.h"

#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU seconds (user + system, all threads) this process has used.
inline double processCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

/// Spans kept in memory and written out as JSON lines when the run
/// ends. Each span has a name, start and end (steady-clock ns), the
/// index of its parent span (-1 for a root), the item or request id it
/// belongs to, and optional integer attributes. Single-threaded.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span and returns its index (0 and no record when disabled).
  size_t begin(const char *Name, uint64_t Id, long Parent = -1) {
    if (!Enabled)
      return 0;
    Spans.push_back(Span{Name, nowNs(), 0, Parent, Id, {}});
    return Spans.size() - 1;
  }

  void end(size_t Index) {
    if (Enabled)
      Spans[Index].EndNs = nowNs();
  }

  void arg(size_t Index, const char *Key, uint64_t Value) {
    if (Enabled)
      Spans[Index].Args.emplace_back(Key, Value);
  }

  bool write(const std::string &Path) const {
    std::ofstream OS(Path);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      OS << "{\"name\":\"" << S.Name << "\",\"start_ns\":" << S.StartNs
         << ",\"end_ns\":" << S.EndNs << ",\"parent\":" << S.Parent
         << ",\"id\":" << S.Id << ",\"args\":{";
      for (size_t A = 0; A != S.Args.size(); ++A)
        OS << (A ? "," : "") << "\"" << S.Args[A].first
           << "\":" << S.Args[A].second;
      OS << "}}\n";
    }
    return static_cast<bool>(OS);
  }

private:
  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    long Parent;
    uint64_t Id;
    std::vector<std::pair<const char *, uint64_t>> Args;
  };

  bool Enabled;
  std::vector<Span> Spans;
};

/// One experiment's output as `cvliw-bench NAME` prints it with the
/// "sweep: " log lines left out: the banner, a blank line, the tables.
/// \p Ok is false when the renderer reports a failed invariant.
inline std::string
renderExperiment(const cvliw::ExperimentSpec &Spec,
                 const std::vector<std::unique_ptr<cvliw::SweepEngine>> &Engines,
                 bool &Ok) {
  std::ostringstream OS;
  OS << Spec.Banner << "\n";
  cvliw::ExperimentRunContext Ctx{{}, OS};
  for (const auto &Engine : Engines)
    Ctx.Engines.push_back(Engine.get());
  Ok = Spec.Render(Ctx);
  return OS.str();
}

int runReplay(int Argc, char **Argv);
int runClient(int Argc, char **Argv);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
