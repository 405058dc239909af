//===- perfbench/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cold-compile and paper-quality (NOTES.md says why each was chosen).  A
/// workload owns its inputs, their references and the program state it
/// times (engine, caches).  Every timed phase replays the
/// workload's seeded stream from its start, so an untraced and a traced
/// phase of one run see the same operations.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Census.h"
#include "Common.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One operation of a timed phase.
struct OpRecord {
  double Ms; ///< latency
  bool Ok;   ///< answered and checked correct
};

/// What one timed phase measured.
struct PhaseResult {
  std::vector<OpRecord> Ops;
  double WallSeconds = 0;

  uint64_t attempted() const { return Ops.size(); }
  uint64_t failed() const;
  std::vector<double> latenciesMs() const;
  /// Correct operations per second of operation time.  The checking work
  /// between operations (reference comparison, interpretation, pricing)
  /// is not the program's, so the rate divides by the summed operation
  /// time, not by the phase's wall time.
  double opsPerSecond() const;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Everything before timing: input draw, references, profiles and BASE
  /// runs.  Called on a new or torn-down workload, so
  /// setup can be timed several times in one run.  False when the program
  /// failed during setup (the run is then incorrect).
  virtual bool setup() = 0;

  /// One timed phase of about \p Seconds of wall time.  With \p Records
  /// (the traced run) the program's own timing records are accumulated.
  virtual PhaseResult run(double Seconds, RecordTotals *Records) = 0;

  /// Geometric mean over the workload's fixed program sample of release
  /// cycles over BASE cycles (bimodal predictor), computed outside every
  /// timed phase.  \p Ok is false when a release build's output disagreed
  /// with its reference.
  virtual double cyclesRatio(bool &Ok) = 0;
  /// Programs in the geometric mean.
  virtual size_t cyclesSampleSize() const = 0;

  /// The traced run's census inputs (Census.h).
  virtual std::vector<CensusInput> census() = 0;

  /// Stops every thread and removes every file the workload created.
  virtual void teardown() = 0;
};

/// The workload called \p Name, or null for an unknown name.  Its files
/// live under \p WorkDir.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed,
                                       const std::string &WorkDir);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
