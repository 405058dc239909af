//===- perfbench/Census.h - Probe battery of the traced run -----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The census: a fixed, seeded set of a workload's own inputs that the
/// traced run pushes through every layer's public entry point once, after
/// the timed phases.  It serves two purposes:
///
///   - Probes.  Layers a workload's operations never call from the
///     benchmark's side (LoopInfo, Liveness, DataDeps, PDG, allocateRegisters,
///     scheduleCacheKey, DiskScheduleCache::lookup/insert, ...) get a span
///     on the workload's inputs, so every per-layer time is measured in
///     every traced run.  A probe times a standalone call; it is not the
///     layer's self time inside a compile.
///
///   - Exact counts.  Counters, allocation counts and outcome totals are
///     taken over the census only, so they repeat exactly for a seed no
///     matter how many operations the timed phases completed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CENSUS_H
#define PERFBENCH_CENSUS_H

#include "Common.h"

#include "engine/CompileEngine.h"
#include "obs/Counters.h"

#include <string>
#include <vector>

namespace perfbench {

/// One census input: the program, its reference outcome and the options
/// the workload compiles it with.
struct CensusInput {
  Program P;
  Outcome Ref;
  gis::PipelineOptions Opts;
};

/// Timing records the program itself returns (not spans), accumulated over
/// every compile of the traced phase and the census.
struct RecordTotals {
  double OptSeconds = 0;
  double RegionSeconds = 0;
  uint64_t Regions = 0;
  double QueueWaitSeconds = 0;
  uint64_t Functions = 0;

  void addStats(const gis::PipelineStats &S, unsigned NumFunctions);
  void addReport(const gis::EngineReport &R);
};

/// Totals over the census; every field repeats exactly for a seed.
struct CensusCounts {
  gis::obs::CounterSet Counters;
  uint64_t Functions = 0;
  uint64_t IrInstrs = 0;
  uint64_t Unpersisted = 0;
  uint64_t InterpInstrs = 0;
  uint64_t SimInstrs = 0;
  uint64_t SimCycles = 0;
  uint64_t Mispredicts = 0;
  /// Census outputs that disagreed with their reference (or compile and
  /// request failures).
  uint64_t Failures = 0;
};

/// Runs every input through every layer probe, recording spans under phase
/// "census".  \p SocketPath names a running compile server for the
/// serve.rtt probe (client retries off); \p DiskDir is a fresh directory
/// for the persist probes.
CensusCounts runCensus(const std::vector<CensusInput> &Inputs,
                       const std::string &SocketPath,
                       const std::string &DiskDir, RecordTotals &Records);

} // namespace perfbench

#endif // PERFBENCH_CENSUS_H
