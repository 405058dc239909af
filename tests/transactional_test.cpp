//===- tests/transactional_test.cpp - Transactional pipeline tests ---------===//
//
// End-to-end tests of the failure model: random programs run through the
// full pipeline with the differential oracle checking every transaction;
// deterministic fault injection corrupts each stage in turn and the
// pipeline must never abort, never emit ill-formed IR, and roll the
// function back bit-identically to its checkpoint.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "analysis/Region.h"
#include "frontend/CodeGen.h"
#include "interp/DifferentialOracle.h"
#include "interp/Interpreter.h"
#include "ir/Checkpoint.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sched/Pipeline.h"
#include "support/FaultInjection.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace gis;

namespace {

struct Observed {
  bool Trapped;
  std::string TrapReason;
  std::vector<int64_t> Printed;
  int64_t ReturnValue;
  std::vector<std::pair<int64_t, int64_t>> Memory;
};

/// Runs `main` of \p M and captures everything observable.  The generous
/// step budget accommodates the occasional long-running random program.
Observed observe(const Module &M) {
  Observed O;
  Interpreter I(M);
  Function *Main = const_cast<Module &>(M).findFunction("main");
  EXPECT_NE(Main, nullptr);
  ExecResult R = I.run(*Main, 50'000'000);
  O.TrapReason = R.TrapReason;
  O.Trapped = R.Trapped;
  O.Printed = R.Printed;
  O.ReturnValue = R.ReturnValue;
  for (const auto &[Addr, Val] : I.memory())
    if (Val != 0)
      O.Memory.emplace_back(Addr, Val);
  std::sort(O.Memory.begin(), O.Memory.end());
  return O;
}

/// The pipeline configurations the fuzz tests cover: local-only, useful,
/// the paper's full speculative pipeline, and the duplication extension.
PipelineOptions configOpts(int Config) {
  PipelineOptions Opts;
  switch (Config) {
  case 0:
    Opts.Level = SchedLevel::None;
    break;
  case 1:
    Opts.Level = SchedLevel::Useful;
    Opts.EnableUnroll = false;
    Opts.EnableRotate = false;
    break;
  case 2: // the paper's full pipeline
    Opts.Level = SchedLevel::Speculative;
    break;
  case 3: // future-work extension: scheduling with duplication
    Opts.Level = SchedLevel::Speculative;
    Opts.AllowDuplication = true;
    break;
  default:
    ADD_FAILURE();
  }
  return Opts;
}

std::string diagDump(const PipelineStats &Stats) {
  std::string Out;
  for (const Diagnostic &D : Stats.Diags)
    Out += D.str() + "\n";
  return Out;
}

void expectSameBehaviour(const Module &Base, const Module &Sched,
                         const std::string &Source) {
  Observed A = observe(Base);
  if (A.Trapped && A.TrapReason == "step budget exhausted")
    return; // pathological long-runner; the in-pipeline oracle covered it
  Observed B = observe(Sched);
  ASSERT_FALSE(A.Trapped) << Source;
  ASSERT_FALSE(B.Trapped) << Source;
  EXPECT_EQ(A.Printed, B.Printed) << Source;
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << Source;
  EXPECT_EQ(A.Memory, B.Memory) << Source;
}

} // namespace

//===----------------------------------------------------------------------===
// Oracle fuzz: every transaction of every config differentially executed
//===----------------------------------------------------------------------===

class TransactionalOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

// 50 seeds x 4 configs = 200 random programs.  With the oracle enabled the
// pipeline differentially executes the function after every transform; a
// single mismatch (or a verifier false positive, visible as a rollback
// without an injected fault) fails the test.
TEST_P(TransactionalOracleTest, NoMismatchesAndNoSpuriousRollbacks) {
  auto [Seed, Config] = GetParam();
  std::string Source = generateRandomMiniC(Seed);
  CompileResult Base = compileMiniC(Source);
  ASSERT_TRUE(Base.ok()) << Base.Error << "\n" << Source;
  CompileResult Sched = compileMiniC(Source);
  ASSERT_TRUE(Sched.ok());

  PipelineOptions Opts = configOpts(Config);
  Opts.EnableOracle = true;
  Opts.OracleMaxSteps = 200'000;
  PipelineStats Stats =
      scheduleModule(*Sched.M, MachineDescription::rs6k(), Opts);

  EXPECT_EQ(Stats.OracleMismatches, 0u) << diagDump(Stats) << Source;
  EXPECT_EQ(Stats.VerifierFailures, 0u) << diagDump(Stats) << Source;
  EXPECT_EQ(Stats.EngineFailures, 0u) << diagDump(Stats) << Source;
  EXPECT_EQ(Stats.RegionsRolledBack + Stats.TransformsRolledBack, 0u)
      << diagDump(Stats) << Source;
  ASSERT_TRUE(verifyModule(*Sched.M).empty()) << Source;
  expectSameBehaviour(*Base.M, *Sched.M, Source);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, TransactionalOracleTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 51),
                       ::testing::Values(0, 1, 2, 3)));

//===----------------------------------------------------------------------===
// Fault injection: corrupt each stage in turn
//===----------------------------------------------------------------------===

class FaultMatrixTest : public ::testing::TestWithParam<const char *> {
protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

// For each pipeline stage, scan seeds until the armed fault fires (the
// stage must occur in at least one of the programs).  Every run -- faulted
// or not -- must leave well-formed IR with unchanged behaviour, and a
// fired fault must be caught by a verifier and rolled back.
TEST_P(FaultMatrixTest, CorruptionIsCaughtAndRolledBack) {
  const char *Stage = GetParam();
  unsigned TotalFaults = 0;
  for (uint64_t Seed = 1; Seed <= 40 && TotalFaults == 0; ++Seed) {
    std::string Source = generateRandomMiniC(Seed);
    CompileResult Base = compileMiniC(Source);
    ASSERT_TRUE(Base.ok()) << Base.Error;
    CompileResult Sched = compileMiniC(Source);
    ASSERT_TRUE(Sched.ok());

    PipelineOptions Opts;
    Opts.Level = SchedLevel::Speculative;
    Opts.AllowDuplication = true; // so the "duplicate" stage exists
    FaultInjector::instance().arm(Stage);
    PipelineStats Stats =
        scheduleModule(*Sched.M, MachineDescription::rs6k(), Opts);
    FaultInjector::instance().disarm();

    ASSERT_TRUE(verifyModule(*Sched.M).empty())
        << "stage " << Stage << " seed " << Seed;
    if (Stats.FaultsInjected > 0) {
      EXPECT_EQ(Stats.FaultsInjected, 1u);
      EXPECT_GE(Stats.VerifierFailures, 1u) << diagDump(Stats);
      EXPECT_GE(Stats.RegionsRolledBack + Stats.TransformsRolledBack, 1u)
          << diagDump(Stats);
      EXPECT_FALSE(Stats.Diags.empty());
      TotalFaults += Stats.FaultsInjected;
    }
    expectSameBehaviour(*Base.M, *Sched.M, Source);
  }
  // The stage must have been reachable somewhere in the seed range,
  // otherwise this test exercises nothing.
  EXPECT_GE(TotalFaults, 1u) << "stage " << Stage << " never ran";
}

INSTANTIATE_TEST_SUITE_P(Stages, FaultMatrixTest,
                         ::testing::Values("prerename", "unroll", "region",
                                           "rotate", "duplicate", "local"));

// A fault in a region-scheduling transaction specifically bumps the
// region rollback counter.
TEST(FaultInjectionTest, RegionFaultIncrementsRegionRollback) {
  std::string Source = generateRandomMiniC(2);
  CompileResult Base = compileMiniC(Source);
  ASSERT_TRUE(Base.ok());
  CompileResult Sched = compileMiniC(Source);
  ASSERT_TRUE(Sched.ok());

  PipelineOptions Opts;
  FaultInjector::instance().arm("region");
  PipelineStats Stats =
      scheduleModule(*Sched.M, MachineDescription::rs6k(), Opts);
  FaultInjector::instance().disarm();

  ASSERT_EQ(Stats.FaultsInjected, 1u);
  EXPECT_GE(Stats.RegionsRolledBack, 1u) << diagDump(Stats);
  EXPECT_EQ(Stats.TransformsRolledBack, 0u) << diagDump(Stats);
  ASSERT_TRUE(verifyModule(*Sched.M).empty());
  expectSameBehaviour(*Base.M, *Sched.M, Source);
}

//===----------------------------------------------------------------------===
// Rollback restores the checkpoint bit-identically
//===----------------------------------------------------------------------===

TEST(RollbackTest, RestoreIsBitIdentical) {
  std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(3));
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  F.renumberOriginalOrder();

  FunctionSnapshot Snap(F);
  ASSERT_TRUE(corruptFunctionForTest(F));
  EXPECT_FALSE(functionsIdentical(F, Snap.function()));
  Snap.restore(F);
  EXPECT_TRUE(functionsIdentical(F, Snap.function()));
}

// With global scheduling and pre-renaming off, "local" is the only
// transaction; corrupting it must leave the first function exactly as the
// checkpoint had it -- i.e. identical to a never-scheduled compile.
TEST(RollbackTest, PipelineRollbackLeavesFunctionUntouched) {
  std::string Source = generateRandomMiniC(5);
  std::unique_ptr<Module> Ref = compileMiniCOrDie(Source);
  std::unique_ptr<Module> M = compileMiniCOrDie(Source);

  PipelineOptions Opts;
  Opts.Level = SchedLevel::None;
  Opts.EnablePreRenaming = false;
  FaultInjector::instance().arm("local");
  PipelineStats Stats = scheduleModule(*M, MachineDescription::rs6k(), Opts);
  FaultInjector::instance().disarm();

  ASSERT_EQ(Stats.FaultsInjected, 1u);
  EXPECT_EQ(Stats.TransformsRolledBack, 1u) << diagDump(Stats);

  // The fault fired in the first function's only transaction; rollback
  // must restore the pre-pipeline state (modulo the pipeline's initial
  // CFG/order normalization, applied to the reference too).
  Function &RefF = *Ref->functions()[0];
  RefF.recomputeCFG();
  RefF.renumberOriginalOrder();
  EXPECT_TRUE(functionsIdentical(*M->functions()[0], RefF));
}

//===----------------------------------------------------------------------===
// Unit tests: fault injector and differential oracle
//===----------------------------------------------------------------------===

TEST(FaultInjectorTest, NthOccurrenceOneShot) {
  FaultInjector &FI = FaultInjector::instance();
  FI.arm("region:2");
  EXPECT_TRUE(FI.armed());
  EXPECT_EQ(FI.trigger(), 2u);
  EXPECT_FALSE(FI.shouldFire("region")); // occurrence 1
  EXPECT_FALSE(FI.shouldFire("local"));  // different stage never fires
  EXPECT_TRUE(FI.shouldFire("region"));  // occurrence 2
  EXPECT_FALSE(FI.shouldFire("region")); // one-shot
  EXPECT_EQ(FI.firedCount(), 1u);
  FI.disarm();
  EXPECT_FALSE(FI.armed());
  EXPECT_FALSE(FI.shouldFire("region"));
}

TEST(DifferentialOracleTest, MatchesIdenticalFunctions) {
  const char *Text = R"(
func f {
BL0:
  LI r1 = 41
  CALL print(r1)
  RET
}
)";
  std::unique_ptr<Module> A = parseModuleOrDie(Text);
  std::unique_ptr<Module> B = parseModuleOrDie(Text);
  OracleReport Rep = runDifferentialOracle(*A, *A->functions()[0],
                                           *B->functions()[0]);
  EXPECT_EQ(Rep.Verdict, OracleVerdict::Match) << Rep.Detail;
}

//===----------------------------------------------------------------------===
// Region-local rollback
//===----------------------------------------------------------------------===

namespace {

/// A function with two independent inner loops -- two sibling regions in
/// one wave of the region dependence forest.
const char *TwoLoopSource = R"(
  int main() {
    int a = 0; int b = 0; int i = 0; int j = 0;
    while (i < 9) { a = a + i * 2; i = i + 1; }
    while (j < 9) { b = b + j * 3; j = j + 1; }
    print(a); print(b);
    return a + b;
  }
)";

/// The real-block set of loop \p LoopIdx of \p F.
std::vector<BlockId> loopBlocks(const Function &F, int LoopIdx) {
  LoopInfo LI = LoopInfo::compute(F);
  SchedRegion R = SchedRegion::build(F, LI, LoopIdx);
  std::vector<BlockId> Blocks;
  for (const RegionNode &N : R.nodes())
    if (N.isBlock())
      Blocks.push_back(N.Block);
  return Blocks;
}

} // namespace

// A RegionSnapshot restores exactly the blocks it captured: corruption
// inside the region is undone; a sibling region's state is not touched.
TEST(RollbackTest, RegionSnapshotRestoresOnlyItsRegion) {
  std::unique_ptr<Module> M = compileMiniCOrDie(TwoLoopSource);
  Function &F = *M->functions()[0];
  F.recomputeCFG();
  F.renumberOriginalOrder();
  std::vector<BlockId> Loop0 = loopBlocks(F, 0);
  std::vector<BlockId> Loop1 = loopBlocks(F, 1);
  ASSERT_FALSE(Loop0.empty());
  ASSERT_FALSE(Loop1.empty());

  FunctionSnapshot Orig(F);
  RegionSnapshot Snap(F, Loop0);

  // Corrupt the snapshotted region; restore must be bit-identical.
  ASSERT_TRUE(corruptRegionForTest(F, Loop0));
  EXPECT_FALSE(functionsIdentical(F, Orig.function()));
  Snap.restore(F);
  EXPECT_TRUE(functionsIdentical(F, Orig.function()));

  // Corrupt a *sibling* region; restoring the loop-0 snapshot must leave
  // the sibling's damage in place (region-local, not whole-function).
  ASSERT_TRUE(corruptRegionForTest(F, Loop1));
  Snap.restore(F);
  EXPECT_FALSE(functionsIdentical(F, Orig.function()));
}

// A fault injected into one region's scheduling transaction rolls back
// only that region: exactly one region rollback, no transform rollback,
// every sibling region still scheduled and the function verifier green.
// The parameter is the region job the fault fires on, counted in
// scheduling order: the first task of the first wave, and the fourth --
// a task of a later wave that runs on top of the earlier commits.
class RegionFaultTest : public ::testing::TestWithParam<unsigned> {
protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_P(RegionFaultTest, FaultRollsBackOnlyFaultedRegion) {
  unsigned FaultedJob = GetParam();
  PipelineOptions Opts;

  // Fault-free reference: how many regions a clean run schedules.
  std::unique_ptr<Module> Ref = compileMiniCOrDie(TwoLoopSource);
  PipelineStats RefStats =
      scheduleModule(*Ref, MachineDescription::rs6k(), Opts);
  ASSERT_EQ(RefStats.RegionsRolledBack, 0u);
  ASSERT_GE(RefStats.Global.RegionsScheduled, std::max(2u, FaultedJob));

  std::unique_ptr<Module> Base = compileMiniCOrDie(TwoLoopSource);
  std::unique_ptr<Module> Sched = compileMiniCOrDie(TwoLoopSource);
  FaultInjector::instance().arm("region:" + std::to_string(FaultedJob));
  PipelineStats Stats =
      scheduleModule(*Sched, MachineDescription::rs6k(), Opts);
  FaultInjector::instance().disarm();

  ASSERT_EQ(Stats.FaultsInjected, 1u);
  EXPECT_EQ(Stats.RegionsRolledBack, 1u) << diagDump(Stats);
  EXPECT_EQ(Stats.TransformsRolledBack, 0u) << diagDump(Stats);
  EXPECT_GE(Stats.VerifierFailures, 1u) << diagDump(Stats);
  // Siblings committed: only the faulted region's work was dropped.
  EXPECT_EQ(Stats.Global.RegionsScheduled,
            RefStats.Global.RegionsScheduled - 1);
  ASSERT_TRUE(verifyModule(*Sched).empty());
  expectSameBehaviour(*Base, *Sched, TwoLoopSource);
}

INSTANTIATE_TEST_SUITE_P(RegionJobs, RegionFaultTest,
                         ::testing::Values(1u, 4u));

namespace {

unsigned totalRegs(const Function &F) {
  return F.numRegs(RegClass::GPR) + F.numRegs(RegClass::FPR) +
         F.numRegs(RegClass::CR);
}

std::string blockText(const Function &F, BlockId B) {
  std::string Text;
  for (InstrId I : F.block(B).instrs())
    Text += instructionToString(F, I) + "\n";
  return Text;
}

} // namespace

// The regions of a wave run in place one after another, so a fault on a
// middle task must leave the earlier siblings' commits alone, restore the
// victim's blocks and register counters to their state before the task,
// and let the later siblings commit on top of that state.  The fixture is
// the superblock wave of helper0 in corpus seed 183: twelve trace tasks,
// the last wave to touch their blocks once the local scheduler is off,
// with no tail duplication at a zero clone budget -- so the function
// without superblocks ("Before") holds every trace's pre-task state --
// and exactly one task, a middle one, allocating a register (a rename).
TEST_F(RegionFaultTest, MiddleTaskFaultRestoresOnlyThatTask) {
  const std::string Source = generateRandomMiniC(183);
  PipelineOptions BeforeOpts;
  BeforeOpts.RunLocalScheduler = false;
  BeforeOpts.TraceDupBudget = 0;
  PipelineOptions Opts = BeforeOpts;
  Opts.EnableSuperblocks = true;

  struct Run {
    std::unique_ptr<Module> M;
    PipelineStats Stats;
    const Function &fn() const { return *M->findFunction("helper0"); }
  };
  auto Schedule = [&](const PipelineOptions &O, const std::string &Arm) {
    Run R{compileMiniCOrDie(Source), {}};
    if (!Arm.empty())
      FaultInjector::instance().arm(Arm);
    R.Stats = schedulePipeline(*R.M->findFunction("helper0"),
                               MachineDescription::rs6k(), O);
    FaultInjector::instance().disarm();
    return R;
  };
  const Run Before = Schedule(BeforeOpts, "");
  const Run Clean = Schedule(Opts, "");
  ASSERT_EQ(Clean.Stats.TailDupInstrs, 0u);
  ASSERT_EQ(Clean.Stats.RegionsRolledBack, 0u);

  // The superblock wave is the last one; its tasks' "region" fault
  // occurrences follow every earlier region task.
  const unsigned LastWave = Clean.Stats.RegionWaves - 1;
  std::vector<size_t> WaveTasks;
  for (size_t K = 0; K != Clean.Stats.RegionTimes.size(); ++K)
    if (Clean.Stats.RegionTimes[K].Wave == LastWave)
      WaveTasks.push_back(K);
  ASSERT_GE(WaveTasks.size(), 3u);

  // The victim: the middle task whose commit allocates a register.
  for (size_t T = 1; T + 1 < WaveTasks.size(); ++T) {
    const std::string Arm = "region:" + std::to_string(WaveTasks[T] + 1);
    const Run Faulted = Schedule(Opts, Arm);
    if (totalRegs(Faulted.fn()) == totalRegs(Clean.fn()))
      continue; // this task renames nothing; not the fixture's victim

    const PipelineStats &S = Faulted.Stats;
    ASSERT_EQ(S.FaultsInjected, 1u);
    EXPECT_EQ(S.RegionsRolledBack, 1u) << diagDump(S);
    EXPECT_EQ(S.TransformsRolledBack, 0u) << diagDump(S);
    ASSERT_EQ(S.Diags.size(), 1u);
    EXPECT_EQ(S.Diags[0].Stage, "region");
    EXPECT_EQ(S.Diags[0].LoopIndex,
              Clean.Stats.RegionTimes[WaveTasks[T]].LoopIdx);
    EXPECT_EQ(S.Global.RegionsScheduled,
              Clean.Stats.Global.RegionsScheduled - 1);

    // Register counters: the victim's rename is undone, and it was the
    // only one, so the counters are those before the wave.
    for (RegClass C : {RegClass::GPR, RegClass::FPR, RegClass::CR})
      EXPECT_EQ(Faulted.fn().numRegs(C), Before.fn().numRegs(C));

    // Blocks: each block is either in its pre-wave state (the victim's)
    // or as the clean run scheduled it (the siblings', earlier and later
    // alike); both kinds occur.
    unsigned Restored = 0, Committed = 0;
    for (BlockId B = 0; B != Faulted.fn().numBlocks(); ++B) {
      std::string Text = blockText(Faulted.fn(), B);
      bool AsBefore = Text == blockText(Before.fn(), B);
      bool AsClean = Text == blockText(Clean.fn(), B);
      EXPECT_TRUE(AsBefore || AsClean) << "block " << B;
      Restored += AsBefore && !AsClean;
      Committed += AsClean && !AsBefore;
    }
    EXPECT_GE(Restored, 1u);
    EXPECT_GE(Committed, 1u);
    ASSERT_TRUE(verifyFunction(Faulted.fn()).empty());
    return;
  }
  FAIL() << "no middle task of the superblock wave renames a register";
}

TEST(DifferentialOracleTest, FlagsChangedObservableValue) {
  std::unique_ptr<Module> A = parseModuleOrDie(R"(
func f {
BL0:
  LI r1 = 41
  CALL print(r1)
  RET
}
)");
  std::unique_ptr<Module> B = parseModuleOrDie(R"(
func f {
BL0:
  LI r1 = 42
  CALL print(r1)
  RET
}
)");
  OracleReport Rep = runDifferentialOracle(*A, *A->functions()[0],
                                           *B->functions()[0]);
  EXPECT_EQ(Rep.Verdict, OracleVerdict::Mismatch);
  EXPECT_FALSE(Rep.Detail.empty());
}
