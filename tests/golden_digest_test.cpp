//===- tests/golden_digest_test.cpp - Whole-corpus schedule digests -------===//
//
// Golden digests of the scheduled output over the 200-seed random mini-C
// corpus.  Each configuration (-O0/-O2 x useful/speculative x superblocks
// off/on, always with register allocation, at both Incremental settings)
// compiles every seed, prints the scheduled module and folds all printer
// output into one hashKey128.  The digest is compared with the value
// recorded in tests/data/schedule_digests.txt, so any change to any
// schedule of the corpus -- a motion, a rename, a spill -- fails here.
// The recorded values were produced by the pipeline as it stood before the
// region-wave scheduling was reduced to one in-place path (CHANGES.md
// names the commit), which makes this the proof that the reduction changed
// no schedule.
//
// A configuration is one test case, so `ctest -j` spreads the corpus over
// the available cores.  To re-record after an intended schedule change,
// run the suite and copy each failure's "computed" digest into the data
// file, after checking that the change is the intended one.
//
//===----------------------------------------------------------------------===//

#include "frontend/CodeGen.h"
#include "ir/Printer.h"
#include "machine/MachineDescription.h"
#include "sched/Pipeline.h"
#include "support/Hashing.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

using namespace gis;

#ifndef GIS_TEST_DATA_DIR
#error "GIS_TEST_DATA_DIR must be defined by the build"
#endif

namespace {

struct DigestConfig {
  unsigned OptLevel;
  SchedLevel Level;
  bool Superblocks;
  bool Incremental;
};

std::string configName(const DigestConfig &C) {
  std::string Name = "O" + std::to_string(C.OptLevel);
  Name += C.Level == SchedLevel::Speculative ? "_spec" : "_useful";
  Name += C.Superblocks ? "_sb" : "_nosb";
  Name += C.Incremental ? "_inc" : "_noinc";
  return Name;
}

// Names the configuration in gtest's failure output.
void PrintTo(const DigestConfig &C, std::ostream *OS) { *OS << configName(C); }

std::string hex(const Key128 &K) {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64 "%016" PRIx64, K.Hi, K.Lo);
  return Buf;
}

/// Recorded digests, keyed by configName().
std::map<std::string, std::string> recordedDigests() {
  std::ifstream In(std::string(GIS_TEST_DATA_DIR) + "/schedule_digests.txt");
  std::map<std::string, std::string> Digests;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Name, Digest;
    if (Fields >> Name >> Digest)
      Digests[Name] = Digest;
  }
  return Digests;
}

class GoldenDigestTest : public ::testing::TestWithParam<DigestConfig> {};

TEST_P(GoldenDigestTest, CorpusMatchesRecordedDigest) {
  const DigestConfig &C = GetParam();
  PipelineOptions Opts;
  Opts.Opt.Level = C.OptLevel;
  Opts.Level = C.Level;
  Opts.EnableSuperblocks = C.Superblocks;
  Opts.Incremental = C.Incremental;
  Opts.AllocateRegisters = true;

  std::string All;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::unique_ptr<Module> M = compileMiniCOrDie(generateRandomMiniC(Seed));
    scheduleModule(*M, MachineDescription::rs6k(), Opts);
    All += moduleToString(*M);
  }
  const std::string Name = configName(C);
  const std::string Computed = hex(hashKey128(All));
  std::map<std::string, std::string> Recorded = recordedDigests();
  auto It = Recorded.find(Name);
  ASSERT_NE(It, Recorded.end())
      << "no recorded digest for " << Name << "; computed " << Computed;
  EXPECT_EQ(It->second, Computed)
      << Name << ": recorded " << It->second << ", computed " << Computed;
}

std::vector<DigestConfig> allConfigs() {
  std::vector<DigestConfig> Configs;
  for (unsigned O : {0u, 2u})
    for (SchedLevel L : {SchedLevel::Useful, SchedLevel::Speculative})
      for (bool SB : {false, true})
        for (bool Inc : {true, false})
          Configs.push_back({O, L, SB, Inc});
  return Configs;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenDigestTest, ::testing::ValuesIn(allConfigs()),
    [](const ::testing::TestParamInfo<DigestConfig> &Info) {
      return configName(Info.param);
    });

} // namespace
