//===- analysis/RegionSlice.cpp - Region-local analysis slice -------------===//

#include "analysis/RegionSlice.h"

#include <algorithm>

using namespace gis;

LivenessSlice LivenessSlice::build(const Function &F, const SchedRegion &R,
                                   const Liveness &WholeLV) {
  LivenessSlice LS;
  for (const RegionNode &N : R.nodes())
    if (N.isBlock())
      LS.Blocks.push_back(N.Block);

  LS.SlotOf.assign(F.numBlocks(), -1);
  for (unsigned S = 0; S != LS.Blocks.size(); ++S)
    LS.SlotOf[LS.Blocks[S]] = static_cast<int>(S);

  LS.InSuccs.resize(LS.Blocks.size());
  LS.InPreds.resize(LS.Blocks.size());
  LS.Boundary.resize(LS.Blocks.size());
  for (unsigned S = 0; S != LS.Blocks.size(); ++S) {
    for (BlockId Succ : F.block(LS.Blocks[S]).succs()) {
      if (LS.ownsBlock(Succ)) {
        // In-region successor -- includes the back edge to the region
        // entry, so liveness that re-enters the loop is solved, not frozen.
        LS.InSuccs[S].push_back(LS.slotOf(Succ));
        LS.InPreds[LS.slotOf(Succ)].push_back(S);
      } else {
        // Out-of-region successor (loop exit or collapsed child-loop
        // entry): freeze its live-in set as a boundary constant.
        for (Reg Rg : WholeLV.liveInRegs(Succ))
          LS.Boundary[S].push_back(Rg);
      }
    }
    std::sort(LS.Boundary[S].begin(), LS.Boundary[S].end());
    LS.Boundary[S].erase(
        std::unique(LS.Boundary[S].begin(), LS.Boundary[S].end()),
        LS.Boundary[S].end());
  }

  LS.recompute(F);
  return LS;
}

bool LivenessSlice::rebuildSlotSets(const Function &F, unsigned S) {
  BitSet NewUEVar(Universe), NewKill(Universe);
  for (InstrId Id : F.block(Blocks[S]).instrs()) {
    const Instruction &I = F.instr(Id);
    for (Reg Rg : I.uses()) {
      unsigned Idx = denseIndex(Rg);
      if (!NewKill.test(Idx))
        NewUEVar.set(Idx);
    }
    for (Reg Rg : I.defs())
      NewKill.set(denseIndex(Rg));
  }
  bool Changed = !(NewUEVar == UEVars[S]) || !(NewKill == Kills[S]);
  UEVars[S] = std::move(NewUEVar);
  Kills[S] = std::move(NewKill);
  return Changed;
}

void LivenessSlice::recompute(const Function &F) {
  // Dense universe from the function's *current* counters so registers
  // created by renaming since build() are representable.
  ClassBase[0] = 0;
  ClassBase[1] = F.numRegs(RegClass::GPR);
  ClassBase[2] = ClassBase[1] + F.numRegs(RegClass::FPR);
  Universe = ClassBase[2] + F.numRegs(RegClass::CR);

  unsigned U = Universe;
  unsigned N = static_cast<unsigned>(Blocks.size());

  UEVars.assign(N, BitSet(U));
  Kills.assign(N, BitSet(U));
  BoundaryBits.assign(N, BitSet(U));
  for (unsigned S = 0; S != N; ++S) {
    rebuildSlotSets(F, S);
    for (Reg Rg : Boundary[S])
      BoundaryBits[S].set(denseIndex(Rg));
  }

  LiveIns = UEVars;
  LiveOuts.assign(N, BitSet(U));

  // Backward fixed point over the region blocks only; the frozen boundary
  // plays the role of the out-of-region successors' live-in sets.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned K = N; K-- > 0;) {
      BitSet Out = BoundaryBits[K];
      for (unsigned T : InSuccs[K])
        Out.unionWith(LiveIns[T]);
      if (Out == LiveOuts[K])
        continue; // LiveIn is a function of LiveOut: nothing to redo
      BitSet In = Out;
      In.subtract(Kills[K]);
      In.unionWith(UEVars[K]);
      LiveOuts[K] = std::move(Out);
      if (!(In == LiveIns[K])) {
        LiveIns[K] = std::move(In);
        Changed = true;
      }
    }
  }
}

Liveness::UpdateResult
LivenessSlice::recomputeBlocks(const Function &F,
                               const std::vector<BlockId> &Changed) {
  Liveness::UpdateResult R;

  // Universe growth (renaming since the last solve) shifts the dense
  // per-class indexing; every cached bit set is then stale.  Full solve.
  unsigned NewGPR = F.numRegs(RegClass::GPR);
  unsigned NewFPR = F.numRegs(RegClass::FPR);
  unsigned NewCR = F.numRegs(RegClass::CR);
  unsigned N = static_cast<unsigned>(Blocks.size());
  if (ClassBase[1] != NewGPR || ClassBase[2] != NewGPR + NewFPR ||
      Universe != NewGPR + NewFPR + NewCR || UEVars.size() != N) {
    recompute(F);
    R.Full = true;
    R.BlocksResolved = N;
    return R;
  }

  // Re-derive the edited blocks' summaries; unchanged summaries leave the
  // old solution a valid (least) fixpoint.
  std::vector<unsigned> DirtySlots;
  std::vector<uint8_t> Seen(N, 0);
  for (BlockId B : Changed) {
    GIS_ASSERT(ownsBlock(B), "liveness slice delta for a non-region block");
    unsigned S = slotOf(B);
    if (Seen[S])
      continue;
    Seen[S] = 1;
    if (rebuildSlotSets(F, S))
      DirtySlots.push_back(S);
  }
  if (DirtySlots.empty())
    return R;

  // Affected slots: everything that reaches a dirty slot inside the
  // region (backward walk over in-region predecessor edges; the frozen
  // boundary never changes, so out-of-region paths contribute nothing).
  std::vector<uint8_t> Affected(N, 0);
  std::vector<unsigned> Work = DirtySlots;
  for (unsigned S : Work)
    Affected[S] = 1;
  while (!Work.empty()) {
    unsigned S = Work.back();
    Work.pop_back();
    for (unsigned P : InPreds[S])
      if (!Affected[P]) {
        Affected[P] = 1;
        Work.push_back(P);
      }
  }

  // Reset affected slots to bottom and re-solve the restricted system
  // with unaffected live-in sets frozen (exact: every in-region successor
  // of an unaffected slot is unaffected).
  for (unsigned S = 0; S != N; ++S) {
    if (!Affected[S])
      continue;
    ++R.BlocksResolved;
    LiveIns[S] = UEVars[S];
    LiveOuts[S].clear();
  }
  bool IterChanged = true;
  while (IterChanged) {
    IterChanged = false;
    for (unsigned K = N; K-- > 0;) {
      if (!Affected[K])
        continue;
      BitSet Out = BoundaryBits[K];
      for (unsigned T : InSuccs[K])
        Out.unionWith(LiveIns[T]);
      if (Out == LiveOuts[K])
        continue;
      BitSet In = Out;
      In.subtract(Kills[K]);
      In.unionWith(UEVars[K]);
      LiveOuts[K] = std::move(Out);
      if (!(In == LiveIns[K])) {
        LiveIns[K] = std::move(In);
        IterChanged = true;
      }
    }
  }
  return R;
}

bool LivenessSlice::isLiveOut(BlockId B, Reg R) const {
  return LiveOuts[slotOf(B)].test(denseIndex(R));
}

bool LivenessSlice::isLiveIn(BlockId B, Reg R) const {
  return LiveIns[slotOf(B)].test(denseIndex(R));
}

RegionSlice RegionSlice::build(const Function &F, SchedRegion R,
                               const Liveness &WholeLV) {
  RegionSlice S;
  S.LV = LivenessSlice::build(F, R, WholeLV);
  for (const RegionNode &N : R.nodes())
    if (N.isBlock())
      S.Blocks.push_back(N.Block);
  S.R = std::move(R);
  return S;
}
