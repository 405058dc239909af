//===- perfbench/Spans.cpp - Spans recorded around layer calls ------------===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

using namespace perfbench;

namespace {

struct SpanRecord {
  const char *Name;
  const char *Phase;
  uint64_t Op;
  uint64_t Start;
  uint64_t End;
  uint64_t AllocStart;
  uint64_t AllocEnd;
  int32_t Parent;
};

struct ThreadBuffer {
  std::vector<SpanRecord> Records;
  int32_t Open = -1;
  uint64_t Op = 0;
  const char *Phase = "";
};

std::atomic<bool> Enabled{false};

std::mutex RegistryMu;
/// Every thread's buffer; buffers outlive their threads so the summary can
/// read them after the joins.
std::vector<std::unique_ptr<ThreadBuffer>> Registry;

thread_local ThreadBuffer *Mine = nullptr;

ThreadBuffer &mine() {
  if (!Mine) {
    AllocPause P;
    auto B = std::make_unique<ThreadBuffer>();
    B->Records.reserve(1u << 16);
    std::lock_guard<std::mutex> L(RegistryMu);
    Mine = B.get();
    Registry.push_back(std::move(B));
  }
  return *Mine;
}

} // namespace

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void perfbench::enableTracing(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

bool perfbench::tracingEnabled() {
  return Enabled.load(std::memory_order_relaxed);
}

void perfbench::setSpanOp(uint64_t Op) {
  if (tracingEnabled())
    mine().Op = Op;
}

void perfbench::setSpanPhase(const char *Phase) {
  if (tracingEnabled())
    mine().Phase = Phase;
}

Span::Span(const char *Name) {
  if (!tracingEnabled())
    return;
  ThreadBuffer &B = mine();
  {
    AllocPause P;
    B.Records.push_back(SpanRecord{Name, B.Phase, B.Op, 0, 0, 0, 0, B.Open});
  }
  Index = static_cast<int32_t>(B.Records.size() - 1);
  B.Open = Index;
  SpanRecord &R = B.Records.back();
  R.AllocStart = threadAllocations();
  R.Start = nowNs();
}

Span::~Span() {
  if (Index < 0)
    return;
  uint64_t End = nowNs();
  ThreadBuffer &B = *Mine;
  SpanRecord &R = B.Records[static_cast<size_t>(Index)];
  R.End = End;
  R.AllocEnd = threadAllocations();
  B.Open = R.Parent;
}

SpanSummary perfbench::summarizeSpans(const char *Phase) {
  SpanSummary S;
  std::lock_guard<std::mutex> L(RegistryMu);
  for (const std::unique_ptr<ThreadBuffer> &B : Registry) {
    const std::vector<SpanRecord> &Rs = B->Records;
    std::vector<uint64_t> ChildNs(Rs.size(), 0), ChildAllocs(Rs.size(), 0);
    for (const SpanRecord &R : Rs)
      if (R.Parent >= 0) {
        ChildNs[static_cast<size_t>(R.Parent)] += R.End - R.Start;
        ChildAllocs[static_cast<size_t>(R.Parent)] +=
            R.AllocEnd - R.AllocStart;
      }
    for (size_t K = 0; K != Rs.size(); ++K) {
      const SpanRecord &R = Rs[K];
      if (std::strcmp(R.Phase, Phase) != 0)
        continue;
      SpanTotals &T = S.ByName[R.Name];
      uint64_t Total = R.End - R.Start;
      ++T.Calls;
      T.TotalNs += static_cast<double>(Total);
      T.SelfNs += static_cast<double>(Total - ChildNs[K]);
      T.SelfAllocs += (R.AllocEnd - R.AllocStart) - ChildAllocs[K];
    }
  }
  return S;
}

bool perfbench::writeSpans(const std::string &Path) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::lock_guard<std::mutex> L(RegistryMu);
  uint64_t Origin = UINT64_MAX;
  for (const std::unique_ptr<ThreadBuffer> &B : Registry)
    for (const SpanRecord &R : B->Records)
      Origin = std::min(Origin, R.Start);
  for (size_t T = 0; T != Registry.size(); ++T) {
    const std::vector<SpanRecord> &Rs = Registry[T]->Records;
    for (size_t K = 0; K != Rs.size(); ++K) {
      const SpanRecord &R = Rs[K];
      std::fprintf(Out,
                   "{\"thread\": %zu, \"index\": %zu, \"parent\": %d, "
                   "\"op\": %llu, \"phase\": \"%s\", \"name\": \"%s\", "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"allocs\": %llu}\n",
                   T, K, static_cast<int>(R.Parent),
                   static_cast<unsigned long long>(R.Op), R.Phase, R.Name,
                   static_cast<unsigned long long>(R.Start - Origin),
                   static_cast<unsigned long long>(R.End - Origin),
                   static_cast<unsigned long long>(R.AllocEnd - R.AllocStart));
    }
  }
  return std::fclose(Out) == 0;
}
