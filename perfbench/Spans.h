//===- perfbench/Spans.h - Spans recorded around layer calls ----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer.  A Span is opened by the benchmark around one
/// call into a layer's public entry point (compileMiniC, compileBatch,
/// Interpreter::run, ...).  Each record keeps its name, start, end, parent
/// span and operation id, plus the calling thread's allocation count at
/// open and close.  Records stay in per-thread memory and are summarised
/// once every thread that wrote them has been joined.
///
/// With tracing disabled (every end-to-end run) a Span costs one load and
/// one branch.  Allocation counts come from the counting global allocator
/// that only the traced binary links (AllocHook.cpp); the untraced binary
/// links NoAllocHook.cpp, whose counter is constantly zero.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// operator new calls made by the calling thread so far (0 in the untraced
/// binary).
uint64_t threadAllocations();
/// True in the binary whose global allocator counts.
bool countsAllocations();

/// While alive, the calling thread's allocations are not counted: the
/// tracer's own bookkeeping must not be charged to the span it records.
class AllocPause {
public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause &) = delete;
  AllocPause &operator=(const AllocPause &) = delete;
};

/// Spans are recorded only between enableTracing(true) and
/// enableTracing(false); call both from the main thread while no other
/// benchmark thread runs.
void enableTracing(bool On);
bool tracingEnabled();

/// Tags every span the calling thread opens from now on.  Op 0 means "not
/// part of a timed operation"; Phase names the part of the run the spans
/// belong to (a static string, e.g. "timed" or "census").
void setSpanOp(uint64_t Op);
void setSpanPhase(const char *Phase);

/// RAII span.  \p Name must be a string literal (records keep the pointer).
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int32_t Index = -1;
};

/// Totals of every span of one name.  Self values exclude the intervals and
/// allocations covered by the span's direct children.
struct SpanTotals {
  uint64_t Calls = 0;
  double TotalNs = 0;
  double SelfNs = 0;
  uint64_t SelfAllocs = 0;
};

/// Summary of the spans of one phase.
struct SpanSummary {
  std::map<std::string, SpanTotals> ByName;
};

/// Summarises every recorded span whose phase is \p Phase.  Call only after
/// every thread that recorded spans has been joined.
SpanSummary summarizeSpans(const char *Phase);

/// Writes every recorded span, one JSON object per line, to \p Path: its
/// thread, index and parent index within that thread, operation id, phase,
/// name, start and end (ns from the earliest span) and allocations.  Call
/// only after every thread that recorded spans has been joined.  False
/// when the file cannot be written.
bool writeSpans(const std::string &Path);

/// Nanoseconds on the steady clock.
uint64_t nowNs();

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
