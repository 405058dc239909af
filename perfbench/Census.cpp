//===- perfbench/Census.cpp - Probe battery of the traced run -------------===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "Census.h"
#include "Spans.h"

#include "analysis/DataDeps.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/PDG.h"
#include "analysis/Region.h"
#include "engine/ScheduleCache.h"
#include "ir/Printer.h"
#include "machine/Timing.h"
#include "persist/Client.h"
#include "persist/DiskCache.h"
#include "regalloc/LinearScan.h"

using namespace gis;
using namespace perfbench;

void RecordTotals::addStats(const PipelineStats &S, unsigned NumFunctions) {
  for (const opt::OptPassTime &T : S.Opt.PassTimes)
    OptSeconds += T.Seconds;
  for (const RegionTime &T : S.RegionTimes)
    RegionSeconds += T.Seconds;
  Regions += S.RegionTimes.size();
  Functions += NumFunctions;
}

void RecordTotals::addReport(const EngineReport &R) {
  addStats(R.Aggregate, R.FunctionsCompiled);
  QueueWaitSeconds += R.TotalQueueWaitSeconds;
}

namespace {

/// Standalone analyses over one function's input IR.
void probeAnalyses(const Function &F) {
  const MachineDescription &MD = machine();
  LoopInfo LI = [&] {
    Span S("analysis.loopinfo");
    return LoopInfo::compute(F);
  }();
  {
    Span S("analysis.liveness");
    Liveness L = Liveness::compute(F);
    (void)L;
  }
  if (!LI.isReducible())
    return;
  for (int Idx = -1; Idx < static_cast<int>(LI.numLoops()); ++Idx) {
    SchedRegion R = SchedRegion::build(F, LI, Idx);
    {
      Span S("analysis.datadeps");
      DataDeps D = DataDeps::compute(F, R, MD);
      (void)D;
    }
    {
      Span S("analysis.pdg");
      PDG G = PDG::build(F, R, MD);
      (void)G;
    }
  }
}

void probeInput(const CensusInput &In, const std::string &SocketPath,
                persist::DiskScheduleCache &Disk, CensusCounts &C,
                RecordTotals &Records) {
  std::unique_ptr<Module> M0 = [&] {
    Span S("frontend.parse");
    return frontend(In.P);
  }();
  std::unique_ptr<Module> M2 = frontend(In.P);
  std::unique_ptr<Module> M3 = frontend(In.P);
  if (!M0 || !M2 || !M3) {
    ++C.Failures;
    return;
  }

  const MachineDescription &MD = machine();
  uint64_t MachineFp = fingerprintMachine(MD);
  uint64_t OptionsFp = fingerprintOptions(In.Opts);
  std::vector<Key128> Keys;
  for (const std::unique_ptr<Function> &F : M0->functions()) {
    C.IrInstrs += F->numInstrs();
    probeAnalyses(*F);
    Span S("engine.key");
    Keys.push_back(scheduleCacheKey(*F, MachineFp, OptionsFp));
  }
  C.Functions += M0->functions().size();

  // The release compile whose output is checked, priced and served.
  EngineOptions EOpts;
  EOpts.UseCache = false;
  CompileEngine Engine(MD, In.Opts, EOpts);
  EngineReport Report = [&] {
    Span S("sched.pipeline");
    return Engine.compileBatch({BatchItem{M2.get(), In.P.Name}});
  }();
  C.Counters += Report.Aggregate.Counters;
  Records.addReport(Report);
  for (const FunctionCompileResult &R : Report.PerFunction)
    if (!R.Stats.Diags.empty() || !R.Stats.Decisions.empty())
      ++C.Unpersisted; // DiskScheduleCache::insert refuses these

  // Register allocation alone, on copies of the scheduled, unallocated code.
  PipelineOptions PreAlloc = In.Opts;
  PreAlloc.AllocateRegisters = false;
  scheduleModule(*M3, MD, PreAlloc);
  for (const std::unique_ptr<Function> &F : M3->functions()) {
    Function Copy = *F;
    RegAllocStats St;
    Span S("regalloc.alloc");
    (void)allocateRegisters(Copy, MD, St);
  }

  // The disk tier's publish and lookup paths, on this compile's results.
  for (size_t K = 0; K != Keys.size() && K != Report.PerFunction.size();
       ++K) {
    const Function &F = *M2->functions()[K];
    {
      Span S("persist.publish");
      Disk.insert(Keys[K], F, Report.PerFunction[K].Stats);
    }
    Function Out(F.name());
    PipelineStats OutStats;
    Span S("persist.disk_lookup");
    Disk.lookup(Keys[K], Out, OutStats);
  }

  {
    Span S("ir.print");
    std::string Text = moduleToString(*M2);
    (void)Text;
  }

  TimingResult T;
  Outcome Got = execute(In.P, *M2, &T);
  C.InterpInstrs += Got.Instrs;
  if (!Got.sameAs(In.Ref))
    ++C.Failures;
  C.SimInstrs += T.Instructions;
  C.SimCycles += T.Cycles;
  C.Mispredicts += T.Mispredicts;

  persist::ClientOptions CO;
  CO.SocketPath = SocketPath;
  CO.Retries = 0;
  persist::CompileRequest Req;
  Req.DeadlineMs = 60000;
  Req.Name = In.P.Name;
  Req.Source = In.P.Source;
  persist::CompileResponse Resp = [&] {
    Span S("serve.rtt");
    return persist::compileOverSocket(CO, Req);
  }();
  if (Resp.Kind != persist::ResponseKind::Ok)
    ++C.Failures;
}

} // namespace

CensusCounts perfbench::runCensus(const std::vector<CensusInput> &Inputs,
                                  const std::string &SocketPath,
                                  const std::string &DiskDir,
                                  RecordTotals &Records) {
  CensusCounts C;
  setSpanPhase("census");
  setSpanOp(0);
  persist::DiskScheduleCache Disk(DiskDir);
  if (!Disk.open().isOk())
    ++C.Failures;
  for (const CensusInput &In : Inputs)
    probeInput(In, SocketPath, Disk, C, Records);
  return C;
}
