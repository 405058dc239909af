//===- perfbench/NoAllocHook.cpp - Allocation counter stub ----------------===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Linked into the untraced perfbench binary, which keeps the standard
// global allocator: end-to-end numbers never pay for allocation counting.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

uint64_t perfbench::threadAllocations() { return 0; }
bool perfbench::countsAllocations() { return false; }
perfbench::AllocPause::AllocPause() {}
perfbench::AllocPause::~AllocPause() {}
