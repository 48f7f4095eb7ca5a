//===- perfbench/src/main.cpp - the benchmark's driver program -----------===//
//
// Part of the cvliw project (CGO'03 clustered-VLIW coherence reproduction).
//
//   perfbench-driver replay ...   traced replay of a cold reproduction
//   perfbench-driver client ...   FleetClient workload client
//
// perfbench/run.py builds and runs this program; see Replay.cpp and
// Client.cpp for each subcommand's arguments and output.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstring>
#include <exception>
#include <iostream>

int main(int Argc, char **Argv) {
  std::cout.precision(12);
  if (Argc < 2) {
    std::cerr << "usage: perfbench-driver (replay | client) ...\n";
    return 2;
  }
  try {
    if (std::strcmp(Argv[1], "replay") == 0)
      return perfbench::runReplay(Argc - 2, Argv + 2);
    if (std::strcmp(Argv[1], "client") == 0)
      return perfbench::runClient(Argc - 2, Argv + 2);
  } catch (const std::exception &E) {
    std::cerr << "perfbench-driver: " << E.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench-driver: unknown subcommand '" << Argv[1] << "'\n";
  return 2;
}
