//===- perfbench/Common.cpp - Programs, references, host stamp ------------===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Spans.h"

#include "frontend/CodeGen.h"
#include "support/RNG.h"
#include "workloads/RandomProgram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

using namespace gis;
using namespace perfbench;

std::unique_ptr<Module> perfbench::frontend(const Program &P) {
  CompileResult R = compileMiniC(P.Source);
  return R.ok() ? std::move(R.M) : nullptr;
}

const MachineDescription &perfbench::machine() {
  static const MachineDescription MD = MachineDescription::rs6k();
  return MD;
}

Outcome perfbench::execute(const Program &P, const Module &M,
                           TimingResult *Priced, ProfileData *Prof) {
  Outcome O;
  const Function *Entry = nullptr;
  for (const std::unique_ptr<Function> &F : M.functions())
    if (F->name() == P.Entry)
      Entry = F.get();
  if (!Entry || Entry->params().size() != P.Args.size()) {
    O.Trapped = true;
    return O;
  }
  Interpreter I(M);
  I.enableTrace(Priced != nullptr);
  if (P.Setup)
    P.Setup(I, M);
  for (size_t K = 0; K != P.Args.size(); ++K)
    I.setReg(Entry->params()[K], P.Args[K]);
  ExecResult R = [&] {
    Span S("interp.run");
    return I.run(*Entry, P.MaxSteps);
  }();
  O.Trapped = R.Trapped;
  O.HasReturn = R.HasReturnValue;
  O.Return = R.ReturnValue;
  O.Printed = std::move(R.Printed);
  O.Instrs = R.InstrCount;
  if (Priced) {
    TimingSimulator Sim(machine());
    BranchPredictorOptions PO;
    PO.Kind = PredictorKind::Bimodal2Bit;
    Sim.setPredictor(PO);
    Span S("machine.simulate");
    *Priced = Sim.simulate(I.trace());
  }
  if (Prof) {
    Prof->record(*Entry, I.blockCounts());
    Prof->recordEdges(*Entry, I.edgeCounts());
  }
  return O;
}

PipelineOptions perfbench::releaseOptions() {
  PipelineOptions Opts;
  Opts.Level = SchedLevel::Speculative;
  Opts.Opt.Level = 2;
  Opts.AllocateRegisters = true;
  Opts.EnableOracle = false;
  return Opts;
}

PipelineOptions perfbench::baseOptions() {
  PipelineOptions Opts;
  Opts.Level = SchedLevel::None;
  Opts.EnableUnroll = false;
  Opts.EnableRotate = false;
  return Opts;
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Index) {
  return RNG(RNG(Seed).next() + Index).next();
}

perfbench::Program perfbench::randomProgram(uint64_t Seed, uint64_t Slot,
                                           unsigned Attempt) {
  RandomProgramOptions RO;
  RO.NumHelpers = 2;
  // Trip counts bound only the reference interpretation, not the code
  // shape; small ones keep checking cheap next to compiling.
  RO.MaxLoopTrip = 4;
  bool Large = Slot % 4 == 3;
  if (Large) {
    RO.MaxStmtsPerFunction = 48;
    RO.MaxBlockDepth = 4;
  }
  Program P;
  P.Name = (Large ? "rand-large-" : "rand-") + std::to_string(Slot);
  P.Source = generateRandomMiniC(mixSeed(Seed, Slot * 64 + Attempt), RO);
  // Bounds the traces recorded for pricing (24 bytes a step): larger ones
  // dominated the process's peak memory and made it vary with the seed.
  P.MaxSteps = 60'000;
  return P;
}

NoiseSample perfbench::sampleNoise() {
  NoiseSample S;
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  if (Stat >> Cpu && Cpu == "cpu") {
    // user nice system idle iowait irq softirq steal ...
    uint64_t V[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (uint64_t &X : V)
      Stat >> X;
    S.StealTicks = V[7];
    for (uint64_t X : V)
      S.TotalTicks += X;
  }
  std::ifstream Load("/proc/loadavg");
  Load >> S.Load1;
  return S;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

unsigned perfbench::hostThreads() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

namespace {
std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}
} // namespace

std::string perfbench::hostStampJson(const NoiseSample &Start,
                                     const NoiseSample &End) {
  std::ostringstream OS;
  OS << "{\"cpu\": " << jsonQuote(cpuModel()) << ", \"nproc\": "
     << hostThreads() << ", \"compiler\": " << jsonQuote(PERFBENCH_COMPILER)
     << ", \"build_type\": " << jsonQuote(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << jsonQuote(PERFBENCH_CXX_FLAGS)
     << ", \"steal_ticks\": " << (End.StealTicks - Start.StealTicks)
     << ", \"total_ticks\": " << (End.TotalTicks - Start.TotalTicks)
     << ", \"load1_start\": " << jsonNumber(Start.Load1)
     << ", \"load1_end\": " << jsonNumber(End.Load1) << "}";
  return OS.str();
}

std::string perfbench::jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string perfbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

LatencySummary perfbench::summarizeLatencies(const std::vector<double> &Ms) {
  LatencySummary S;
  S.Samples = Ms.size();
  if (Ms.empty())
    return S;
  auto Median = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    size_t N = V.size();
    return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
  };
  S.P50Ms = Median(Ms);
  size_t N = Ms.size();
  S.TailSamples = std::min(N, std::max<size_t>(10, (N + 19) / 20));
  std::vector<double> Sorted = Ms;
  std::sort(Sorted.begin(), Sorted.end());
  double Sum = 0;
  for (size_t K = N - S.TailSamples; K != N; ++K)
    Sum += Sorted[K];
  S.TailMs = Sum / static_cast<double>(S.TailSamples);
  return S;
}
