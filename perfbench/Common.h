//===- perfbench/Common.h - Programs, references, host stamp ----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pieces every workload shares: the program description, the reference
/// outcome a compiled program is checked against, the two compiler
/// configurations (release and the paper's BASE), cycle pricing, and the
/// host and noise stamp printed with every result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "machine/MachineDescription.h"
#include "machine/Timing.h"
#include "sched/Pipeline.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One input program: mini-C source, the entry to run and how to seed its
/// memory.
struct Program {
  std::string Name;
  std::string Source;
  std::string Entry = "main";
  std::vector<int64_t> Args;
  std::function<void(gis::Interpreter &, const gis::Module &)> Setup;
  uint64_t MaxSteps = 2'000'000;
};

/// What running a program showed: the values it printed and returned.
struct Outcome {
  bool Trapped = false;
  bool HasReturn = false;
  int64_t Return = 0;
  std::vector<int64_t> Printed;
  uint64_t Instrs = 0;

  bool sameAs(const Outcome &O) const {
    return !Trapped && !O.Trapped && HasReturn == O.HasReturn &&
           Return == O.Return && Printed == O.Printed;
  }
};

/// compileMiniC on \p P's source; null when it does not compile.
std::unique_ptr<gis::Module> frontend(const Program &P);

/// The machine every workload compiles for and prices on: the paper's
/// RS/6000 model.
const gis::MachineDescription &machine();

/// Runs \p P's entry on \p M (span "interp.run" around Interpreter::run).
/// With \p Priced the dynamic trace is priced on machine() under the
/// bimodal 2-bit predictor (span "machine.simulate"); with \p Prof the
/// entry's block and edge counts are recorded.
Outcome execute(const Program &P, const gis::Module &M,
                gis::TimingResult *Priced = nullptr,
                gis::ProfileData *Prof = nullptr);

/// The configuration users run: -O2, speculative global scheduling,
/// --regalloc, oracle off.
gis::PipelineOptions releaseOptions();
/// The paper's BASE compiler: global scheduling, unrolling and rotation off;
/// basic-block scheduling on (the same definition as bench/BenchCommon.h).
gis::PipelineOptions baseOptions();

/// Draw \p Attempt for slot \p Slot of a seeded stream of random mini-C
/// programs with two functions besides main, of the generator's default
/// function size, except that every fourth slot (Slot % 4 == 3) uses the
/// larger statement/nesting setting, so every run sees the same size mix.
Program randomProgram(uint64_t Seed, uint64_t Slot, unsigned Attempt);

/// Per-item seed derived from the run seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Index);

/// Steal ticks and 1-minute load average at one instant.
struct NoiseSample {
  uint64_t StealTicks = 0;
  uint64_t TotalTicks = 0;
  double Load1 = 0;
};
NoiseSample sampleNoise();

/// Peak resident set of the process in MiB.
double peakRssMb();

/// Online CPUs, never zero.
unsigned hostThreads();

/// JSON object describing the host, the build and the noise around a run.
std::string hostStampJson(const NoiseSample &Start, const NoiseSample &End);

/// JSON string literal of \p S.
std::string jsonQuote(const std::string &S);
/// JSON number with every digit of \p V.
std::string jsonNumber(double V);

/// Latency summary of one timed phase.  P50Ms is the median of every
/// latency.  TailMs is the mean of the slowest twentieth of the latencies,
/// and of at least the ten slowest (of all of them in a phase of ten or
/// fewer); TailSamples is how many it averages.  A percentile would jump:
/// paper-quality repeats seven programs whose latencies form separate
/// clusters, and the host runs each cluster in a fast and a slow speed
/// mode, so the sample at p95 lands in one mode or the other depending on
/// how long the host spent in each.  The mean over the slowest twentieth
/// moves smoothly with that share, and no single stall sets it.
struct LatencySummary {
  size_t Samples = 0;
  double P50Ms = 0;
  double TailMs = 0;
  size_t TailSamples = 0;
};
LatencySummary summarizeLatencies(const std::vector<double> &Ms);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
