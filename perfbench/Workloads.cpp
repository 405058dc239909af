//===- perfbench/Workloads.cpp - The benchmark's workloads ----------------===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "Spans.h"

#include "engine/CompileEngine.h"
#include "support/RNG.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

namespace fs = std::filesystem;
using namespace gis;
namespace perfbench {
namespace {

double geomean(const std::vector<double> &Ratios) {
  if (Ratios.empty())
    return 0;
  double LogSum = 0;
  for (double R : Ratios)
    LogSum += std::log(R);
  return std::exp(LogSum / static_cast<double>(Ratios.size()));
}

/// A program and the outcome of interpreting its unscheduled frontend IR.
struct Checked {
  Program P;
  Outcome Ref;
};

Checked withReference(Program P) {
  Checked C{std::move(P), {}};
  if (std::unique_ptr<Module> M = frontend(C.P))
    C.Ref = execute(C.P, *M);
  else
    C.Ref.Trapped = true;
  return C;
}

/// The seeded stream of random programs with a reference.  A draw whose
/// unscheduled IR traps or runs out of interpreter steps has no reference
/// and is replaced by the slot's next draw; the replacement depends only on
/// the seed, so every phase and every run with that seed sees the same
/// stream.  The first \p Kept slots stay in memory; later ones are drawn
/// again on every access, so memory does not grow with the operations a
/// phase completes.
class RandomStream {
public:
  RandomStream(uint64_t Seed, size_t Kept) : Seed(Seed) {
    for (size_t K = 0; K != Kept; ++K)
      KeptSlots.push_back(draw(K));
  }

  /// Slot \p K; a slot past the kept ones is valid until the next call.
  const Checked &at(size_t K) {
    if (K < KeptSlots.size())
      return KeptSlots[K];
    Latest = draw(K);
    return Latest;
  }

private:
  Checked draw(size_t K) const {
    Checked C;
    for (unsigned Attempt = 0; Attempt != MaxAttempts; ++Attempt) {
      C = withReference(randomProgram(Seed, K, Attempt));
      if (!C.Ref.Trapped)
        break;
    }
    // A slot without a reference after MaxAttempts draws keeps its trapped
    // one, and every operation on it fails its check.
    return C;
  }

  static constexpr unsigned MaxAttempts = 64;
  uint64_t Seed;
  std::vector<Checked> KeptSlots;
  Checked Latest;
};

/// Cycles of \p C compiled with \p Opts; 0 when the build's output
/// disagrees with the reference.
uint64_t buildCycles(const Checked &C, const PipelineOptions &Opts) {
  std::unique_ptr<Module> M = frontend(C.P);
  if (!M)
    return 0;
  scheduleModule(*M, machine(), Opts);
  TimingResult T;
  if (!execute(C.P, *M, &T).sameAs(C.Ref))
    return 0;
  return T.Cycles;
}

double ratioOrFail(const std::vector<uint64_t> &Release,
                   const std::vector<uint64_t> &Base, bool &Ok) {
  std::vector<double> Ratios;
  for (size_t K = 0; K != Base.size(); ++K) {
    if (!Release[K] || !Base[K]) {
      Ok = false;
      continue;
    }
    Ratios.push_back(static_cast<double>(Release[K]) /
                     static_cast<double>(Base[K]));
  }
  return geomean(Ratios);
}

//===----------------------------------------------------------------------===//
// cold-compile
//===----------------------------------------------------------------------===//

/// Unique random modules, one CompileEngine::compileBatch call each, with a
/// memory and a disk tier that every lookup misses.
class ColdCompile final : public Workload {
public:
  ColdCompile(uint64_t Seed, std::string Dir)
      : Seed(Seed), Dir(std::move(Dir)) {}

  bool setup() override {
    Stream = std::make_unique<RandomStream>(Seed, Sample);
    BaseCycles.assign(Sample, 0);
    ReleaseCycles.assign(Sample, 0);
    bool Ok = true;
    for (size_t K = 0; K != Sample; ++K) {
      BaseCycles[K] = buildCycles(Stream->at(K), baseOptions());
      Ok &= BaseCycles[K] != 0;
    }
    return Ok;
  }

  PhaseResult run(double Seconds, RecordTotals *Records) override {
    PhaseResult R;
    fs::path CacheDir = fs::path(Dir) / "cold-cache";
    fs::remove_all(CacheDir);
    {
      EngineOptions EO;
      EO.Jobs = 1;
      EO.CacheCapacity = MemCapacity;
      EO.CacheDir = CacheDir.string();
      CompileEngine Engine(machine(), releaseOptions(), EO);
      uint64_t Start = nowNs();
      for (size_t K = 0; nowNs() - Start < Seconds * 1e9; ++K) {
        const Checked &C = Stream->at(K);
        setSpanOp(K + 1);
        std::unique_ptr<Module> M;
        EngineReport Report;
        uint64_t T0 = nowNs();
        {
          Span Op("op");
          M = [&] {
            Span S("frontend.parse");
            return frontend(C.P);
          }();
          if (M) {
            Span S("sched.pipeline");
            Report = Engine.compileBatch({BatchItem{M.get(), C.P.Name}});
          }
        }
        uint64_t T1 = nowNs();
        setSpanOp(0);
        bool Ok = M != nullptr;
        if (M) {
          if (Records)
            Records->addReport(Report);
          bool PriceIt = K < Sample && !ReleaseCycles[K];
          TimingResult T;
          Ok = execute(C.P, *M, PriceIt ? &T : nullptr).sameAs(C.Ref);
          if (Ok && PriceIt)
            ReleaseCycles[K] = T.Cycles;
        }
        R.Ops.push_back({static_cast<double>(T1 - T0) / 1e6, Ok});
      }
      R.WallSeconds = static_cast<double>(nowNs() - Start) / 1e9;
    }
    fs::remove_all(CacheDir);
    return R;
  }

  double cyclesRatio(bool &Ok) override {
    Ok = true;
    for (size_t K = 0; K != Sample; ++K)
      if (!ReleaseCycles[K])
        ReleaseCycles[K] = buildCycles(Stream->at(K), releaseOptions());
    return ratioOrFail(ReleaseCycles, BaseCycles, Ok);
  }
  size_t cyclesSampleSize() const override { return Sample; }

  std::vector<CensusInput> census() override {
    std::vector<CensusInput> In;
    for (size_t K = 0; K != CensusSize; ++K)
      In.push_back({Stream->at(K).P, Stream->at(K).Ref, releaseOptions()});
    return In;
  }

  void teardown() override { Stream.reset(); }

private:
  static constexpr size_t Sample = 24;
  static constexpr size_t CensusSize = 8;
  /// Memory-tier bound in functions: small enough that the tier reaches
  /// its steady size early in a run, so peak memory does not track the
  /// number of operations completed.
  static constexpr size_t MemCapacity = 96;

  uint64_t Seed;
  std::string Dir;
  std::unique_ptr<RandomStream> Stream;
  std::vector<uint64_t> BaseCycles, ReleaseCycles;
};

//===----------------------------------------------------------------------===//
// paper-quality
//===----------------------------------------------------------------------===//

/// The E14 correlated-diamond program (bench/bench_trace.cpp): two diamonds
/// on the same condition, the case where superblocks pay under a bimodal
/// predictor.
Program correlatedProgram() {
  Program P;
  P.Name = "CORR";
  P.Source = R"(
int data[512];
int corr_dispatch(int n) {
  int i = 0;
  int s = 0;
  while (i < n) {
    int v = data[i - (i / 512) * 512];
    if (v > 0) { s = s + v; } else { s = s - v; }
    if (v > 0) { s = s + 1; } else { s = s + 2; }
    i = i + 1;
  }
  print(s);
  return s;
}
)";
  P.Entry = "corr_dispatch";
  P.Args = {4000};
  P.Setup = [](Interpreter &I, const Module &M) {
    const GlobalArray &Data = M.globals().front();
    for (int K = 0; K != 512; ++K)
      I.storeWord(Data.Address + 4 * K, K % 5 < 3 ? 1 : -1);
  };
  return P;
}

/// The paper's Figure 1 minmax loop over seeded data.
Program minmaxProgram(uint64_t DataSeed, const std::string &Name) {
  Program P;
  P.Name = Name;
  P.Source = minmaxFigure1Source();
  P.Entry = "minmax";
  P.Args = {4001};
  P.Setup = [DataSeed](Interpreter &I, const Module &M) {
    const GlobalArray &A = M.globals().front();
    RNG Rng(DataSeed);
    for (int K = 0; K != 4002; ++K)
      I.storeWord(A.Address + 4 * K, Rng.range(-1000, 1000));
  };
  return P;
}

/// The SPEC-shaped programs, minmax on two seeded data sets and CORR, each
/// compiled with --superblocks over a profile taken in setup.  The timed
/// operation is the compile (frontend and scheduleModule); running the
/// result on the interpreter and pricing it follow outside the operation,
/// as its check, so that the interpreter's memory traffic, which follows
/// other tenants of the host more than the program, sets no gated time.
/// minmax runs twice per round so that a round holds seven programs and
/// the median operation falls inside one program's latency cluster rather
/// than on the gap between two.
class PaperQuality final : public Workload {
public:
  explicit PaperQuality(uint64_t Seed) : Seed(Seed) {}

  bool setup() override {
    Entries.clear();
    std::vector<Program> Ps;
    for (const gis::Workload &W : specLikeWorkloads()) {
      Program P;
      P.Name = W.Name;
      P.Source = W.Source;
      P.Entry = W.EntryFunction;
      P.Args = W.Args;
      // Shorter runs of the two long programs (E3 uses 20000 and 4000):
      // at full length their priced traces set the process's peak memory,
      // and the check after each compile would fill most of the phase.
      if (W.Name == "LI")
        P.Args = {2000};
      if (W.Name == "GCC")
        P.Args = {1000};
      P.Setup = W.Setup;
      P.MaxSteps = W.MaxSteps;
      Ps.push_back(std::move(P));
    }
    Ps.push_back(minmaxProgram(mixSeed(Seed, 1), "MINMAX-1"));
    Ps.push_back(minmaxProgram(mixSeed(Seed, 2), "MINMAX-2"));
    Ps.push_back(correlatedProgram());

    bool Ok = true;
    for (Program &P : Ps) {
      auto E = std::make_unique<Entry>();
      E->C.P = std::move(P);
      std::unique_ptr<Module> M = frontend(E->C.P);
      if (M)
        E->C.Ref = execute(E->C.P, *M, nullptr, &E->Profile);
      else
        E->C.Ref.Trapped = true;
      E->Opts = releaseOptions();
      E->Opts.EnableSuperblocks = true;
      E->Opts.Profile = &E->Profile;
      E->BaseCycles = buildCycles(E->C, baseOptions());
      Ok &= !E->C.Ref.Trapped && E->BaseCycles != 0;
      Entries.push_back(std::move(E));
    }
    return Ok;
  }

  PhaseResult run(double Seconds, RecordTotals *Records) override {
    PhaseResult R;
    size_t N = Entries.size();
    size_t Offset = Seed % N;
    uint64_t Start = nowNs();
    // Whole rounds only, so every run holds the same program mix.
    do {
      for (size_t J = 0; J != N; ++J) {
        Entry &E = *Entries[(Offset + J) % N];
        setSpanOp(R.Ops.size() + 1);
        std::unique_ptr<Module> M;
        PipelineStats Stats;
        Outcome Got;
        TimingResult T;
        uint64_t T0 = nowNs();
        {
          Span Op("op");
          M = [&] {
            Span S("frontend.parse");
            return frontend(E.C.P);
          }();
          if (M) {
            Span S("sched.pipeline");
            Stats = scheduleModule(*M, machine(), E.Opts);
          }
        }
        uint64_t T1 = nowNs();
        setSpanOp(0);
        // Each program is priced once; later rounds only check the output.
        if (M)
          Got = execute(E.C.P, *M, E.ReleaseCycles ? nullptr : &T);
        bool Ok = M && Got.sameAs(E.C.Ref);
        R.Ops.push_back({static_cast<double>(T1 - T0) / 1e6, Ok});
        if (!Ok)
          continue;
        if (!E.ReleaseCycles)
          E.ReleaseCycles = T.Cycles;
        if (Records)
          Records->addStats(Stats,
                            static_cast<unsigned>(M->functions().size()));
      }
    } while (nowNs() - Start < Seconds * 1e9);
    R.WallSeconds = static_cast<double>(nowNs() - Start) / 1e9;
    return R;
  }

  double cyclesRatio(bool &Ok) override {
    Ok = true;
    std::vector<uint64_t> Release, Base;
    for (std::unique_ptr<Entry> &E : Entries) {
      if (!E->ReleaseCycles)
        E->ReleaseCycles = buildCycles(E->C, E->Opts);
      Release.push_back(E->ReleaseCycles);
      Base.push_back(E->BaseCycles);
    }
    return ratioOrFail(Release, Base, Ok);
  }
  size_t cyclesSampleSize() const override { return Entries.size(); }

  std::vector<CensusInput> census() override {
    std::vector<CensusInput> In;
    for (std::unique_ptr<Entry> &E : Entries)
      In.push_back({E->C.P, E->C.Ref, E->Opts});
    return In;
  }

  void teardown() override { Entries.clear(); }

private:
  struct Entry {
    Checked C;
    ProfileData Profile;
    PipelineOptions Opts; ///< borrows Profile, so entries never move
    uint64_t BaseCycles = 0;
    uint64_t ReleaseCycles = 0;
  };

  uint64_t Seed;
  std::vector<std::unique_ptr<Entry>> Entries;
};

} // namespace

uint64_t PhaseResult::failed() const {
  uint64_t N = 0;
  for (const OpRecord &O : Ops)
    N += !O.Ok;
  return N;
}

std::vector<double> PhaseResult::latenciesMs() const {
  std::vector<double> Ms;
  for (const OpRecord &O : Ops)
    Ms.push_back(O.Ms);
  return Ms;
}

double PhaseResult::opsPerSecond() const {
  double Seconds = 0;
  for (const OpRecord &O : Ops)
    Seconds += O.Ms / 1e3;
  return Seconds > 0 ? static_cast<double>(attempted() - failed()) / Seconds
                     : 0.0;
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"cold-compile",
                                                 "paper-quality"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       const std::string &WorkDir) {
  if (Name == "cold-compile")
    return std::make_unique<ColdCompile>(Seed, WorkDir);
  if (Name == "paper-quality")
    return std::make_unique<PaperQuality>(Seed);
  return nullptr;
}

} // namespace perfbench
