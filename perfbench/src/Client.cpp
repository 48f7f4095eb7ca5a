//===- perfbench/src/Client.cpp - FleetClient-driven workload client ------===//
//
// Part of the cvliw project (CGO'03 clustered-VLIW coherence reproduction).
//
//   perfbench-driver client
//
// A long-lived client that the benchmark script steers one command per
// stdin line, answering each with one JSON line on stdout:
//
//   connect ADDR[,ADDR...]   connect and hello to every daemon (timed)
//   close                    drop the connections
//   cold SEED TABLES SPANS   what `cvliw-bench --all --shards ...`
//                            does: all experiments pipelined with
//                            --base-seed SEED, harvested and rendered
//                            in registry order into TABLES
//   shutdown                 ask every daemon to exit cleanly
//   quit
//
// SPANS is a file for the span log, or "-" for an untraced run. Spans
// wrap each FleetClient call (submit, wait, take), with the experiment's
// registry index as their id; nothing inside the library is
// instrumented.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "cvliw/net/FleetClient.h"

#include <iostream>
#include <stdexcept>

using namespace cvliw;

namespace perfbench {
namespace {

/// Rows per frame the client offers in hello; the daemon grants at most
/// its own --max-batch-rows, which the benchmark leaves at its default.
constexpr size_t RequestedMaxBatch = 256;

std::string jsonEscape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out;
}

void replyError(const std::string &Error) {
  std::cout << "{\"ok\":false,\"error\":\"" << jsonEscape(Error) << "\"}"
            << std::endl;
}

std::vector<std::string> splitOn(const std::string &Text, char Sep) {
  std::vector<std::string> Parts;
  std::string Part;
  std::istringstream IS(Text);
  while (std::getline(IS, Part, Sep))
    if (!Part.empty())
      Parts.push_back(Part);
  return Parts;
}

/// One registered experiment's grids as a client expands them.
struct Experiment {
  const ExperimentSpec *Spec = nullptr;
  std::vector<SweepGrid> Grids;

  std::vector<const SweepGrid *> gridPointers() const {
    std::vector<const SweepGrid *> Out;
    for (const SweepGrid &Grid : Grids)
      Out.push_back(&Grid);
    return Out;
  }
};

std::vector<Experiment> expandExperiments(const ExperimentOverrides &Overrides) {
  std::vector<Experiment> Exps;
  for (const ExperimentSpec &Spec :
       ExperimentRegistry::global().experiments()) {
    Exps.emplace_back();
    Exps.back().Spec = &Spec;
    for (ExperimentGrid &Grid : Spec.BuildGrids()) {
      applyOverrides(Grid.Grid, Overrides);
      Exps.back().Grids.push_back(std::move(Grid.Grid));
    }
  }
  return Exps;
}

class ClientSession {
public:
  void connect(const std::string &Addrs) {
    Client.reset(new FleetClient);
    std::string Error;
    if (!Client->connect(splitOn(Addrs, ','), /*Retries=*/1, Error) ||
        !Client->negotiate(RequestedMaxBatch, /*Weight=*/1, Error))
      return replyError(Error);
    std::cout << "{\"ok\":true}" << std::endl;
  }

  void close() {
    Client.reset();
    std::cout << "{\"ok\":true}" << std::endl;
  }

  void shutdown() {
    std::string Error;
    if (!Client || !Client->shutdownServer(Error))
      return replyError(Client ? Error : "not connected");
    Client.reset();
    std::cout << "{\"ok\":true}" << std::endl;
  }

  void cold(uint64_t Seed, const std::string &TablesPath,
            const std::string &SpansPath);

private:
  std::unique_ptr<FleetClient> Client;
};

void ClientSession::cold(uint64_t Seed, const std::string &TablesPath,
                         const std::string &SpansPath) {
  if (!Client)
    return replyError("not connected");
  ExperimentOverrides Overrides;
  Overrides.HasBaseSeed = true;
  Overrides.BaseSeed = Seed;
  // Expanded before the clock starts, as cvliw-bench does before its
  // first submission.
  std::vector<Experiment> Seeded = expandExperiments(Overrides);
  std::vector<uint64_t> Ids(Seeded.size());
  SpanLog Log(SpansPath != "-");
  std::vector<std::string> FailedNames;
  std::string Tables, FirstError;
  uint64_t Rows = 0, Bytes = 0, Frames = 0, RenderNs = 0;

  const double Cpu0 = processCpuSeconds();
  const uint64_t T0 = nowNs();
  for (size_t I = 0; I != Seeded.size(); ++I) {
    std::string Error;
    size_t S = Log.begin("submit", I);
    bool Ok = Client->submitExperiment(Seeded[I].Spec->Name, Overrides,
                                       Seeded[I].gridPointers(), Ids[I],
                                       Error);
    Log.end(S);
    if (!Ok)
      return replyError(Error);
  }
  for (size_t I = 0; I != Seeded.size(); ++I) {
    const Experiment &E = Seeded[I];
    std::string Error;
    size_t S = Log.begin("wait", I);
    bool Ok = Client->wait(Ids[I], Error);
    Log.end(S);
    if (!Ok)
      return replyError(Error); // The connection is lost; so is the rest.
    std::vector<std::vector<SweepRow>> GridRows;
    RemoteSweepStats Stats;
    S = Log.begin("take", I);
    Ok = Client->take(Ids[I], GridRows, Stats, Error);
    Log.end(S);
    std::vector<std::unique_ptr<SweepEngine>> Engines;
    if (Ok) {
      for (const auto &Grid : GridRows)
        Rows += Grid.size();
      Bytes += Stats.BytesReceived;
      Frames += Stats.FramesReceived;
      try {
        for (size_t G = 0; G != E.Grids.size(); ++G) {
          Engines.emplace_back(new SweepEngine(E.Grids[G], 1));
          Engines.back()->adoptRows(std::move(GridRows.at(G)));
        }
      } catch (const std::exception &Ex) {
        Ok = false;
        Error = Ex.what();
      }
    }
    if (!Tables.empty())
      Tables += "\n";
    if (Ok) {
      const uint64_t RenderStart = nowNs();
      Tables += renderExperiment(*E.Spec, Engines, Ok);
      RenderNs += nowNs() - RenderStart;
      if (!Ok)
        Error = "renderer reported a failed invariant";
    }
    if (!Ok) {
      FailedNames.push_back(E.Spec->Name);
      if (FirstError.empty())
        FirstError = E.Spec->Name + ": " + Error;
    }
  }
  const double Wall = static_cast<double>(nowNs() - T0) * 1e-9;
  const double ClientCpu = processCpuSeconds() - Cpu0;

  std::ofstream OS(TablesPath);
  OS << Tables;
  if (!OS)
    return replyError("cannot write " + TablesPath);
  if (Log.enabled() && !Log.write(SpansPath))
    return replyError("cannot write " + SpansPath);

  std::cout << "{\"ok\":true,\"failed_names\":[";
  for (size_t I = 0; I != FailedNames.size(); ++I)
    std::cout << (I ? "," : "") << "\"" << FailedNames[I] << "\"";
  std::cout << "],\"first_error\":\"" << jsonEscape(FirstError)
            << "\",\"wall_s\":" << Wall << ",\"client_cpu_s\":" << ClientCpu
            << ",\"render_s\":" << static_cast<double>(RenderNs) * 1e-9
            << ",\"rows\":" << Rows << ",\"bytes\":" << Bytes
            << ",\"frames\":" << Frames << "}" << std::endl;
}

} // namespace

int runClient(int Argc, char **) {
  if (Argc != 0) {
    std::cerr << "usage: perfbench-driver client\n";
    return 2;
  }
  std::cout << "{\"ok\":true}" << std::endl;

  ClientSession Session;
  std::string Line;
  while (std::getline(std::cin, Line)) {
    std::istringstream IS(Line);
    std::string Command;
    IS >> Command;
    if (Command == "connect") {
      std::string Addrs;
      IS >> Addrs;
      Session.connect(Addrs);
    } else if (Command == "close") {
      Session.close();
    } else if (Command == "shutdown") {
      Session.shutdown();
    } else if (Command == "cold") {
      uint64_t Seed = 0;
      std::string Tables, Spans;
      IS >> Seed >> Tables >> Spans;
      Session.cold(Seed, Tables, Spans);
    } else if (Command == "quit") {
      break;
    } else {
      replyError("unknown command '" + Command + "'");
    }
  }
  return 0;
}

} // namespace perfbench
