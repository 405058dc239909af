//===- perfbench/main.cpp - The repository benchmark ---------------------===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//           [--spans FILE]
//
// Untraced (--trace 0, binary perfbench): sets the workload up repeatedly
// before and after one timed phase of S seconds (setup_s is the median),
// prices the cycle sample, and prints the end-to-end metrics.
//
// Traced (--trace 1, binary perfbench_traced): sets up once, runs an
// untraced phase and a traced phase of S/2 seconds each over the same
// stream, then the census (Census.h), and prints the per-layer metrics.
// With --spans it also writes every span it recorded to FILE.
//
// The last line of stdout is the result object; the lines before it give
// the same numbers with their sample counts, the host and noise stamp, and
// a detail object.  Exit code 0 whenever a result was printed (correct or
// not), 2 on a usage error, 1 when the workload could not be run.
//
//===----------------------------------------------------------------------===//

#include "Census.h"
#include "Common.h"
#include "Spans.h"
#include "Workloads.h"

#include "persist/Server.h"

#include <algorithm>
#include <malloc.h>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;
using namespace gis;
using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
  std::string SpansPath;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false, HaveDir = false;
  for (int K = 1; K + 1 < Argc; K += 2) {
    std::string Flag = Argv[K], V = Argv[K + 1];
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (Flag == "--trace") {
      A.Trace = V == "1";
    } else if (Flag == "--work-dir") {
      A.WorkDir = V;
      HaveDir = true;
    } else if (Flag == "--spans") {
      A.SpansPath = V;
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && HaveWorkload && HaveDir && A.Seconds > 0;
}

/// One metric of the result object.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  bool Integer = false;
};

std::string resultLine(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics) {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t K = 0; K != Metrics.size(); ++K) {
    const Metric &M = Metrics[K];
    OS << (K ? ", " : "") << jsonQuote(M.Name) << ": {\"value\": ";
    if (M.Integer)
      OS << static_cast<uint64_t>(M.Value);
    else
      OS << jsonNumber(M.Value);
    OS << ", \"unit\": " << jsonQuote(M.Unit) << "}";
  }
  OS << "}}";
  return OS.str();
}

void printMetricLines(const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("  %-34s %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// Seconds of setups in each of the untraced run's two setup batches.
constexpr double SetupBudgetS = 1.5;

/// Sets \p W up at least twice, and more while the setups add up to under
/// \p Budget seconds, appending each setup's time to \p SetupS.  \p W is
/// left set up; \p Ok is cleared if a setup failed.
void timeSetups(Workload &W, double Budget, std::vector<double> &SetupS,
                bool &Ok) {
  double Total = 0;
  for (size_t K = 0; K < 2 || (Total < Budget && K < 50); ++K) {
    if (K) {
      // Hand the discarded setup's memory back, so that the process holds
      // one setup at a time, as a user's process would.
      W.teardown();
      malloc_trim(0);
    }
    uint64_t T0 = nowNs();
    Ok &= W.setup();
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    Total += SetupS.back();
  }
}

//===----------------------------------------------------------------------===//
// Untraced run: the end-to-end metrics
//===----------------------------------------------------------------------===//

int runEndToEnd(const Args &A, Workload &W, const NoiseSample &Noise0) {
  // setup_s is the median of setups taken in two batches, one before the
  // timed phase and one after it.  The host changes speed for seconds at a
  // time, so setups spread over the whole run sample more of its states
  // than setups taken back to back.
  std::vector<double> SetupS;
  bool SetupOk = true;
  timeSetups(W, SetupBudgetS, SetupS, SetupOk);

  PhaseResult R = W.run(A.Seconds, nullptr);
  bool CyclesOk = true;
  double Cycles = W.cyclesRatio(CyclesOk);
  double PeakRss = peakRssMb();
  size_t CyclesPrograms = W.cyclesSampleSize();
  W.teardown();
  malloc_trim(0);
  timeSetups(W, SetupBudgetS, SetupS, SetupOk);
  W.teardown();
  NoiseSample Noise1 = sampleNoise();

  std::vector<double> SortedSetup = SetupS;
  std::sort(SortedSetup.begin(), SortedSetup.end());
  size_t NS = SortedSetup.size();
  double SetupMedian = (SortedSetup[(NS - 1) / 2] + SortedSetup[NS / 2]) / 2;

  LatencySummary L = summarizeLatencies(R.latenciesMs());
  uint64_t Attempted = R.attempted(), Failed = R.failed();
  double FailRatio =
      ratio(static_cast<double>(Failed), static_cast<double>(Attempted));
  bool Correct = SetupOk && CyclesOk && Failed == 0 && Attempted > 0;

  std::vector<Metric> Metrics = {
      {"ops_per_s", R.opsPerSecond(), "1/s"},
      {"p50_ms", L.P50Ms, "ms"},
      {"tail_ms", L.TailMs, "ms"},
      {"cycles_ratio", Cycles, "ratio"},
      {"peak_rss_mb", PeakRss, "MB"},
      {"setup_s", SetupMedian, "s"},
  };
  std::printf("perfbench %s seed=%llu seconds=%g (untraced)\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds);
  printMetricLines(Metrics);
  std::printf("  %-34s %.6g ratio (%llu failed of %llu attempted)\n",
              "fail_ratio", FailRatio, static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  std::printf("  latency: %zu samples over a %.3f s phase; tail_ms is the "
              "mean of the slowest %zu; cycles_ratio over %zu programs\n",
              L.Samples, R.WallSeconds, L.TailSamples, CyclesPrograms);
  std::printf("  setup_s samples:");
  for (double S : SetupS)
    std::printf(" %.4f", S);
  std::printf("\n");

  std::ostringstream Detail;
  Detail << "{\"detail\": {\"workload\": " << jsonQuote(A.Workload)
         << ", \"seed\": " << A.Seed << ", \"trace\": 0"
         << ", \"samples\": " << L.Samples
         << ", \"tail_samples\": " << L.TailSamples
         << ", \"wall_s\": " << jsonNumber(R.WallSeconds)
         << ", \"fail_ratio\": " << jsonNumber(FailRatio)
         << ", \"cycles_programs\": " << CyclesPrograms
         << ", \"setup_ok\": " << (SetupOk ? "true" : "false")
         << ", \"cycles_ok\": " << (CyclesOk ? "true" : "false")
         << ", \"setup_s_samples\": [";
  for (size_t K = 0; K != SetupS.size(); ++K)
    Detail << (K ? ", " : "") << jsonNumber(SetupS[K]);
  Detail << "], \"host\": " << hostStampJson(Noise0, Noise1) << "}}";
  std::printf("%s\n", Detail.str().c_str());
  std::printf("%s\n",
              resultLine(Correct, Attempted, Failed, Metrics).c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced run: the per-layer metrics
//===----------------------------------------------------------------------===//

/// Mean self time per call, in ms, over both span summaries.
double meanSelfMs(const SpanSummary &A, const SpanSummary &B,
                  const std::string &Name) {
  uint64_t Calls = 0;
  double Ns = 0;
  for (const SpanSummary *S : {&A, &B})
    if (auto It = S->ByName.find(Name); It != S->ByName.end()) {
      Calls += It->second.Calls;
      Ns += It->second.SelfNs;
    }
  return Calls ? Ns / static_cast<double>(Calls) / 1e6 : 0.0;
}

/// Self allocations of every census span of \p Layer ("frontend" covers
/// "frontend.parse", ...).
uint64_t layerAllocs(const SpanSummary &Census, const std::string &Layer) {
  uint64_t N = 0;
  for (const auto &[Name, T] : Census.ByName)
    if (Name.rfind(Layer + ".", 0) == 0)
      N += T.SelfAllocs;
  return N;
}

int runTraced(const Args &A, Workload &W, const NoiseSample &Noise0) {
  bool SetupOk = W.setup();
  double Half = A.Seconds / 2;
  PhaseResult Untraced = W.run(Half, nullptr);

  enableTracing(true);
  setSpanPhase("timed");
  RecordTotals Records;
  PhaseResult Traced = W.run(Half, &Records);

  // serve.rtt needs a daemon: a memory-only one started for the census.
  persist::ServerOptions SO;
  SO.SocketPath = (fs::path(A.WorkDir) / "census.sock").string();
  SO.Workers = 1;
  persist::CompileServer CensusServer(machine(), releaseOptions(), SO);
  if (!CensusServer.start().isOk()) {
    std::fprintf(stderr, "perfbench: cannot start the census daemon\n");
    return 1;
  }
  CensusCounts C = runCensus(W.census(), SO.SocketPath,
                             (fs::path(A.WorkDir) / "census-disk").string(),
                             Records);
  enableTracing(false);
  CensusServer.drainAndJoin();
  W.teardown();
  NoiseSample Noise1 = sampleNoise();

  SpanSummary Timed = summarizeSpans("timed");
  SpanSummary Census = summarizeSpans("census");
  if (!A.SpansPath.empty() && !writeSpans(A.SpansPath))
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.SpansPath.c_str());
  auto Ms = [&](const char *Name) { return meanSelfMs(Timed, Census, Name); };
  auto Ctr = [&](obs::CounterId Id) {
    return static_cast<double>(C.Counters.get(Id));
  };
  auto CtrRatio = [&](obs::CounterId Num, obs::CounterId Other) {
    return ratio(Ctr(Num), Ctr(Num) + Ctr(Other));
  };
  auto Allocs = [&](const char *Layer) {
    return static_cast<double>(layerAllocs(Census, Layer));
  };
  const SpanTotals &Ops = Timed.ByName["op"];
  uint64_t SchedAllocs = Census.ByName["sched.pipeline"].SelfAllocs;

  std::vector<Metric> Metrics = {
      {"frontend.parse_ms", Ms("frontend.parse"), "ms"},
      {"frontend.ir_instrs", static_cast<double>(C.IrInstrs), "count", true},
      {"frontend.allocs", Allocs("frontend"), "count", true},
      {"opt.run_ms",
       ratio(Records.OptSeconds * 1e3, static_cast<double>(Records.Functions)),
       "ms"},
      {"opt.instrs_removed",
       Ctr(obs::OptDceRemoved) + Ctr(obs::OptValuesNumbered), "count", true},
      {"analysis.loopinfo_ms", Ms("analysis.loopinfo"), "ms"},
      {"analysis.liveness_ms", Ms("analysis.liveness"), "ms"},
      {"analysis.datadeps_ms", Ms("analysis.datadeps"), "ms"},
      {"analysis.pdg_ms", Ms("analysis.pdg"), "ms"},
      {"analysis.allocs", Allocs("analysis"), "count", true},
      {"coldpath.ddg_nodes", Ctr(obs::ColdDdgNodes), "count", true},
      {"coldpath.liveness_delta_ratio",
       CtrRatio(obs::ColdLivenessDelta, obs::ColdLivenessFull), "ratio"},
      {"coldpath.disambig_hit_ratio",
       CtrRatio(obs::ColdDisambigCacheHits, obs::ColdDisambigCacheMisses),
       "ratio"},
      {"coldpath.ckpt_bytes", Ctr(obs::ColdCkptBytes), "bytes", true},
      {"sched.verify_scoped_ratio",
       ratio(Ctr(obs::ColdVerifyBlocksScoped), Ctr(obs::ColdVerifyBlocksTotal)),
       "ratio"},
      {"sched.pipeline_ms", Ms("sched.pipeline"), "ms"},
      {"sched.region_ms",
       ratio(Records.RegionSeconds * 1e3, static_cast<double>(Records.Regions)),
       "ms"},
      {"sched.allocs", static_cast<double>(SchedAllocs), "count", true},
      {"sched.allocs_per_func",
       ratio(static_cast<double>(SchedAllocs),
             static_cast<double>(C.Functions)),
       "allocs/func"},
      {"motion.useful", Ctr(obs::MotionUseful), "count", true},
      {"motion.speculative", Ctr(obs::MotionSpeculative), "count", true},
      {"spec.veto_liveout", Ctr(obs::SpecVetoLiveOut), "count", true},
      {"tx.rollbacks", Ctr(obs::Rollbacks), "count", true},
      {"regalloc.spilled_intervals", Ctr(obs::RegAllocSpilledIntervals),
       "count", true},
      {"regalloc.spill_ops",
       Ctr(obs::RegAllocSpillStores) + Ctr(obs::RegAllocSpillReloads), "count",
       true},
      {"regalloc.failures", Ctr(obs::RegAllocFailures), "count", true},
      {"regalloc.alloc_ms", Ms("regalloc.alloc"), "ms"},
      {"regalloc.allocs", Allocs("regalloc"), "count", true},
      {"trace.formed", Ctr(obs::TraceFormed), "count", true},
      {"trace.tail_dup_instrs", Ctr(obs::TraceTailDupInstrs), "count", true},
      {"trace.truncated", Ctr(obs::TraceTruncated), "count", true},
      {"engine.key_ms", Ms("engine.key"), "ms"},
      {"engine.queue_wait_ms",
       ratio(Records.QueueWaitSeconds * 1e3,
             static_cast<double>(Records.Functions)),
       "ms"},
      {"engine.allocs", Allocs("engine"), "count", true},
      {"persist.disk_lookup_ms", Ms("persist.disk_lookup"), "ms"},
      {"persist.publish_ms", Ms("persist.publish"), "ms"},
      {"persist.unpersisted", static_cast<double>(C.Unpersisted), "count",
       true},
      {"persist.allocs", Allocs("persist"), "count", true},
      {"serve.rtt_ms", Ms("serve.rtt"), "ms"},
      {"serve.allocs", Allocs("serve"), "count", true},
      {"ir.print_ms", Ms("ir.print"), "ms"},
      {"ir.allocs", Allocs("ir"), "count", true},
      {"interp.run_ms", Ms("interp.run"), "ms"},
      {"interp.instrs", static_cast<double>(C.InterpInstrs), "count", true},
      {"interp.allocs", Allocs("interp"), "count", true},
      {"machine.simulate_ms", Ms("machine.simulate"), "ms"},
      {"machine.mispredicts", static_cast<double>(C.Mispredicts), "count",
       true},
      {"machine.ipc",
       ratio(static_cast<double>(C.SimInstrs),
             static_cast<double>(C.SimCycles)),
       "ratio"},
      {"machine.allocs", Allocs("machine"), "count", true},
      {"op.unattributed_ms",
       ratio(Ops.SelfNs / 1e6, static_cast<double>(Ops.Calls)), "ms"},
      {"op.unattributed_share", ratio(Ops.SelfNs, Ops.TotalNs), "ratio"},
      {"tracing.untraced_ops_per_s", Untraced.opsPerSecond(), "1/s"},
      {"tracing.traced_ops_per_s", Traced.opsPerSecond(), "1/s"},
      {"tracing.slowdown",
       ratio(Untraced.opsPerSecond(), Traced.opsPerSecond()), "ratio"},
  };

  uint64_t Attempted = Untraced.attempted() + Traced.attempted();
  uint64_t Failed = Untraced.failed() + Traced.failed() + C.Failures;
  bool Correct = SetupOk && Failed == 0 && Attempted > 0;

  std::printf("perfbench %s seed=%llu seconds=%g (traced)\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds);
  printMetricLines(Metrics);
  std::printf("  ops: %llu untraced + %llu traced, %llu failed; census "
              "failures %llu\n",
              static_cast<unsigned long long>(Untraced.attempted()),
              static_cast<unsigned long long>(Traced.attempted()),
              static_cast<unsigned long long>(Untraced.failed() +
                                              Traced.failed()),
              static_cast<unsigned long long>(C.Failures));

  std::ostringstream Detail;
  Detail << "{\"detail\": {\"workload\": " << jsonQuote(A.Workload)
         << ", \"seed\": " << A.Seed << ", \"trace\": 1, \"spans\": {";
  bool First = true;
  for (const auto &[Phase, S] : {std::pair{"timed", &Timed},
                                 std::pair{"census", &Census}})
    for (const auto &[Name, T] : S->ByName) {
      Detail << (First ? "" : ", ") << jsonQuote(std::string(Phase) + ":" +
                                                 Name)
             << ": {\"calls\": " << T.Calls
             << ", \"total_ms\": " << jsonNumber(T.TotalNs / 1e6)
             << ", \"self_ms\": " << jsonNumber(T.SelfNs / 1e6)
             << ", \"self_allocs\": " << T.SelfAllocs << "}";
      First = false;
    }
  Detail << "}, \"host\": " << hostStampJson(Noise0, Noise1) << "}}";
  std::printf("%s\n", Detail.str().c_str());
  std::printf("%s\n",
              resultLine(Correct, Attempted, Failed, Metrics).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--spans FILE]\n",
                 Argv[0]);
    return 2;
  }
  if (A.Trace != countsAllocations()) {
    std::fprintf(stderr, "perfbench: --trace %d needs the %s binary\n",
                 A.Trace ? 1 : 0,
                 A.Trace ? "perfbench_traced" : "perfbench");
    return 2;
  }
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Seed, A.WorkDir);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  std::error_code EC;
  fs::create_directories(A.WorkDir, EC);
  if (EC) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", A.WorkDir.c_str());
    return 1;
  }
  NoiseSample Noise0 = sampleNoise();
  int Rc = A.Trace ? runTraced(A, *W, Noise0) : runEndToEnd(A, *W, Noise0);
  W.reset();
  fs::remove_all(A.WorkDir, EC);
  return Rc;
}
