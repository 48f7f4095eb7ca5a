//===- perfbench/src/Replay.cpp - traced replay of every runLoop call -----===//
//
// Part of the cvliw project (CGO'03 clustered-VLIW coherence reproduction).
//
//   perfbench-driver replay --threads N --base-seed S --tables FILE
//                           --spans FILE
//
// The repro_cold workload's traced run, in two phases:
//
// 1. Evaluates the sixteen registered experiments through SweepEngine
//    on one fresh ResultCache, untraced, exactly as `cvliw-bench --all
//    --threads N` does, and writes their rendered tables to the tables
//    file for the golden check.
// 2. Replays every cache miss of phase 1 on one thread, following
//    runLoop() step by step with one span per call into the workloads,
//    ir, alias, sched, profile and sim modules, and checks that each
//    replayed LoopRunResult serializes exactly like the entry phase 1
//    cached under the same key.
//
// Prints one JSON line with the counts and clocks of both phases; the
// spans go to the spans file.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "cvliw/alias/CodeSpecialization.h"
#include "cvliw/alias/MemoryDisambiguator.h"
#include "cvliw/ir/DDGBuilder.h"
#include "cvliw/net/WireFormat.h"
#include "cvliw/pipeline/ResultCache.h"
#include "cvliw/profile/ClusterProfiler.h"
#include "cvliw/sched/DDGTransform.h"
#include "cvliw/sched/MemoryChains.h"
#include "cvliw/sched/ModuloScheduler.h"
#include "cvliw/support/Rng.h"
#include "cvliw/workloads/KernelBuilder.h"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <unordered_set>

using namespace cvliw;

namespace perfbench {
namespace {

struct ReplayItem {
  ExperimentConfig Config;
  LoopSpec Spec;
  uint64_t Key = 0;
};

/// The effective loop seed of (point, loop) — the engine's rule; the
/// route-key cross-check in MissCollector::addGrid() fails if the two
/// drift.
uint64_t loopSeed(const SweepGrid &Grid, size_t Point, size_t Loop,
                  uint64_t SpecSeed) {
  if (!Grid.ReseedLoops)
    return SpecSeed;
  Rng LoopRng(sweepPointSeed(Grid, Point));
  uint64_t Seed = LoopRng.next();
  for (size_t I = 0; I != Loop; ++I)
    Seed = LoopRng.next();
  return Seed;
}

/// The distinct (config, loop) runs the engine computed, in the order
/// the engine's items reach them: every grid item, a §6 hybrid item as
/// its two profile-input estimates and the final run they select.
class MissCollector {
public:
  explicit MissCollector(const ResultCache &Cache) : Cache(Cache) {}

  void addGrid(const SweepGrid &Grid) {
    for (size_t Point = 0; Point != Grid.size(); ++Point) {
      size_t MachineIdx = Point % Grid.Machines.size();
      size_t Rest = Point / Grid.Machines.size();
      size_t SchemeIdx = Rest % Grid.Schemes.size();
      size_t BenchIdx = Rest / Grid.Schemes.size();
      ExperimentConfig Config =
          sweepItemConfig(Grid, MachineIdx, SchemeIdx, BenchIdx);
      const BenchmarkSpec &Bench = Grid.Benchmarks[BenchIdx];
      for (size_t Loop = 0; Loop != Bench.Loops.size(); ++Loop) {
        LoopSpec Spec = Bench.Loops[Loop];
        Spec.SeedBase = loopSeed(Grid, Point, Loop, Spec.SeedBase);
        if (!Grid.Schemes[SchemeIdx].Hybrid) {
          if (add(Config, Spec) != sweepItemRouteKey(Grid, Point, Loop))
            ++KeyMismatches;
          continue;
        }
        ExperimentConfig Estimate = Config;
        Estimate.SimulateOnProfileInput = true;
        Estimate.Policy = CoherencePolicy::MDC;
        uint64_t Mdc = cachedCycles(add(Estimate, Spec));
        Estimate.Policy = CoherencePolicy::DDGT;
        uint64_t Ddgt = cachedCycles(add(Estimate, Spec));
        ExperimentConfig Final = Config;
        Final.SimulateOnProfileInput = false;
        Final.Policy =
            Mdc <= Ddgt ? CoherencePolicy::MDC : CoherencePolicy::DDGT;
        add(Final, Spec);
      }
    }
  }

  const std::vector<ReplayItem> &items() const { return Items; }
  size_t keyMismatches() const { return KeyMismatches; }

private:
  uint64_t add(const ExperimentConfig &Config, const LoopSpec &Spec) {
    uint64_t Key = resultCacheKey(Config, Spec);
    if (Seen.insert(Key).second)
      Items.push_back(ReplayItem{Config, Spec, Key});
    return Key;
  }

  uint64_t cachedCycles(uint64_t Key) const {
    LoopRunResult Run;
    if (!Cache.lookup(Key, Run))
      throw std::runtime_error("hybrid estimate missing from the cache");
    return Run.Sim.TotalCycles;
  }

  const ResultCache &Cache;
  std::unordered_set<uint64_t> Seen;
  std::vector<ReplayItem> Items;
  size_t KeyMismatches = 0;
};

/// runLoop() (pipeline/Experiment.cpp) step by step, one span per call.
/// Must stay in step with it; the result comparison catches any drift.
LoopRunResult replayRunLoop(const LoopSpec &Spec,
                            const ExperimentConfig &Config, SpanLog &Log,
                            uint64_t Id) {
  const long Root = static_cast<long>(Log.begin("runLoop", Id));
  LoopRunResult Result;
  Result.LoopName = Spec.Name;
  Result.Weight = Spec.Weight;
  Result.ExecTrip = Spec.ExecTrip;

  size_t S = Log.begin("buildLoop", Id, Root);
  Loop L = buildLoop(Spec, Config.Machine);
  Log.end(S);
  S = Log.begin("buildRegisterFlowDDG", Id, Root);
  DDG G = buildRegisterFlowDDG(L);
  Log.end(S);
  S = Log.begin("MemoryDisambiguator::addMemoryEdges", Id, Root);
  MemoryDisambiguator Disambiguator(L);
  Disambiguator.addMemoryEdges(G);
  Log.end(S);

  if (Config.ApplySpecialization) {
    S = Log.begin("applyCodeSpecialization", Id, Root);
    applyCodeSpecialization(G);
    Log.end(S);
  }

  S = Log.begin("MemoryChains", Id, Root);
  MemoryChains OriginalChains(L, G);
  Result.BiggestChain = OriginalChains.biggestChainSize();
  Log.end(S);

  Loop *ScheduledLoop = &L;
  DDG *ScheduledGraph = &G;
  DDGTResult Transformed;
  if (Config.Policy == CoherencePolicy::DDGT) {
    S = Log.begin("applyDDGT", Id, Root);
    Transformed = applyDDGT(L, G, Config.Machine);
    Log.end(S);
    ScheduledLoop = &Transformed.TransformedLoop;
    ScheduledGraph = &Transformed.TransformedDDG;
  }

  S = Log.begin("profileLoop", Id, Root);
  ClusterProfile Profile =
      profileLoop(*ScheduledLoop, Config.Machine, /*UseProfileInput=*/true);
  Log.end(S);

  SchedulerOptions SchedOpts;
  SchedOpts.Policy = Config.Policy;
  SchedOpts.Heuristic = Config.Heuristic;
  SchedOpts.Ordering = Config.Ordering;
  SchedOpts.AssignLatencies = Config.AssignLatencies;
  S = Log.begin("MemoryChains", Id, Root);
  MemoryChains ScheduledChains(*ScheduledLoop, *ScheduledGraph);
  Log.end(S);

  S = Log.begin("ModuloScheduler::run", Id, Root);
  ModuloScheduler Scheduler(*ScheduledLoop, *ScheduledGraph, Config.Machine,
                            Profile, SchedOpts,
                            Config.Policy == CoherencePolicy::MDC
                                ? &ScheduledChains
                                : nullptr);
  std::optional<Schedule> Sched = Scheduler.run();
  Log.end(S);
  const ModuloScheduler::Diagnostics &Diag = Scheduler.diagnostics();
  Log.arg(S, "placement_failures", Diag.PlacementFailures);
  Log.arg(S, "copy_window_failures", Diag.CopyWindowFailures);
  Log.arg(S, "bus_failures", Diag.BusAllocationFailures);
  Log.arg(S, "scheduled", Sched ? 1 : 0);
  if (!Sched) {
    Log.end(static_cast<size_t>(Root));
    if (Config.TolerateUnschedulable) {
      Result.Scheduled = false;
      Result.BiggestChain = 0;
      return Result;
    }
    throw std::runtime_error("no modulo schedule found for loop " +
                             Spec.Name);
  }
  Log.arg(S, "ii", Sched->II);
  Log.arg(S, "mii", std::max(Sched->ResMII, Sched->RecMII));

  Result.II = Sched->II;
  Result.ResMII = Sched->ResMII;
  Result.RecMII = Sched->RecMII;
  Result.NumOps = ScheduledLoop->numOps();
  Result.NumMemOps = ScheduledLoop->numMemoryOps();
  Result.CopiesPerIter = Sched->numCopies();

  SimOptions SimOpts;
  SimOpts.Policy = Config.Policy;
  SimOpts.MaxIterations = Config.MaxIterations;
  SimOpts.CheckCoherence = Config.CheckCoherence;
  SimOpts.UseProfileInput = Config.SimulateOnProfileInput;
  S = Log.begin("simulateKernel", Id, Root);
  Result.Sim = simulateKernel(*ScheduledLoop, *ScheduledGraph, *Sched,
                              Config.Machine, SimOpts);
  Log.end(S);
  Log.arg(S, "dyn_ops", Result.Sim.DynamicOps);
  Log.arg(S, "mem_accesses", Result.Sim.MemoryAccesses);
  Log.arg(S, "cycles", Result.Sim.TotalCycles);
  Log.arg(S, "stall_cycles", Result.Sim.StallCycles);
  Log.end(static_cast<size_t>(Root));
  return Result;
}

bool sameResult(const LoopRunResult &A, const LoopRunResult &B) {
  return loopRunResultToJson(A).dump() == loopRunResultToJson(B).dump();
}

} // namespace

int runReplay(int Argc, char **Argv) {
  unsigned Threads = 3;
  ExperimentOverrides Overrides;
  std::string TablesPath, SpansPath;
  for (int I = 0; I < Argc; ++I) {
    const char *Arg = Argv[I];
    const char *Value = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (!Value) {
      std::cerr << "replay: " << Arg << " needs a value\n";
      return 2;
    }
    ++I;
    if (std::strcmp(Arg, "--threads") == 0) {
      Threads = static_cast<unsigned>(std::strtoul(Value, nullptr, 10));
    } else if (std::strcmp(Arg, "--base-seed") == 0) {
      Overrides.HasBaseSeed = true;
      Overrides.BaseSeed = std::strtoull(Value, nullptr, 10);
    } else if (std::strcmp(Arg, "--tables") == 0) {
      TablesPath = Value;
    } else if (std::strcmp(Arg, "--spans") == 0) {
      SpansPath = Value;
    } else {
      std::cerr << "replay: unknown argument '" << Arg << "'\n";
      return 2;
    }
  }
  if (Threads == 0 || TablesPath.empty() || SpansPath.empty()) {
    std::cerr << "usage: perfbench-driver replay --threads N --base-seed S "
                 "--tables FILE --spans FILE\n";
    return 2;
  }

  // Phase 1: the untraced engine pass on one fresh cache.
  ResultCache Cache;
  MissCollector Misses(Cache);
  std::vector<std::vector<SweepGrid>> AllGrids;
  uint64_t Hits = 0, MissCount = 0, LookupUs = 0;
  unsigned RenderFailures = 0;
  uint64_t RenderNs = 0;
  std::string Tables;
  const double EngineCpu0 = processCpuSeconds();
  const uint64_t EngineStart = nowNs();
  for (const ExperimentSpec &Spec :
       ExperimentRegistry::global().experiments()) {
    std::vector<std::unique_ptr<SweepEngine>> Engines;
    AllGrids.emplace_back();
    for (ExperimentGrid &Grid : Spec.BuildGrids()) {
      applyOverrides(Grid.Grid, Overrides);
      AllGrids.back().push_back(Grid.Grid);
      Engines.emplace_back(new SweepEngine(Grid.Grid, Threads));
      Engines.back()->setCache(&Cache);
      Engines.back()->run();
      Hits += Engines.back()->cacheHits();
      MissCount += Engines.back()->cacheMisses();
      LookupUs += Engines.back()->cacheLookupMicros();
    }
    const uint64_t RenderStart = nowNs();
    bool Ok = true;
    if (!Tables.empty())
      Tables += "\n";
    Tables += renderExperiment(Spec, Engines, Ok);
    RenderNs += nowNs() - RenderStart;
    if (!Ok)
      ++RenderFailures;
  }
  const double EngineWall = static_cast<double>(nowNs() - EngineStart) * 1e-9;
  const double EngineCpu = processCpuSeconds() - EngineCpu0;
  {
    std::ofstream OS(TablesPath);
    OS << Tables;
    if (!OS) {
      std::cerr << "replay: cannot write " << TablesPath << "\n";
      return 2;
    }
  }

  // Phase 2: the traced single-thread replay of every miss.
  for (const std::vector<SweepGrid> &Grids : AllGrids)
    for (const SweepGrid &Grid : Grids)
      Misses.addGrid(Grid);
  SpanLog Log(/*Enabled=*/true);
  size_t Matched = 0, Mismatched = 0, Missing = 0;
  const std::vector<ReplayItem> &Items = Misses.items();
  for (size_t I = 0; I != Items.size(); ++I) {
    LoopRunResult Replayed =
        replayRunLoop(Items[I].Spec, Items[I].Config, Log, I);
    LoopRunResult Cached;
    if (!Cache.lookup(Items[I].Key, Cached))
      ++Missing;
    else if (sameResult(Replayed, Cached))
      ++Matched;
    else
      ++Mismatched;
  }
  if (!Log.write(SpansPath)) {
    std::cerr << "replay: cannot write " << SpansPath << "\n";
    return 2;
  }

  std::cout << "{\"engine\":{\"lookups\":" << Hits + MissCount
            << ",\"hits\":" << Hits << ",\"misses\":" << MissCount
            << ",\"lookup_us\":" << LookupUs
            << ",\"render_s\":" << static_cast<double>(RenderNs) * 1e-9
            << ",\"render_failures\":" << RenderFailures
            << ",\"wall_s\":" << EngineWall << ",\"cpu_s\":" << EngineCpu
            << "},\"replay\":{\"items\":" << Items.size()
            << ",\"matched\":" << Matched << ",\"mismatched\":" << Mismatched
            << ",\"missing\":" << Missing
            << ",\"key_mismatches\":" << Misses.keyMismatches() << "}}"
            << std::endl;
  return 0;
}

} // namespace perfbench
