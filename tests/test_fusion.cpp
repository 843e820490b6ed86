// Superstep fusion must be invisible to the simulated machine.
//
// graph::fuseSupersteps merges runs of adjacent Execute steps into one
// ExecuteFused step so the engine can simulate each tile's work for the whole
// run with a single host dispatch. The engine applies it only when it has a
// host pool (two or more host threads), so the fused side of every A/B here
// runs on two. These tests pin down the legality rules — copies, host calls
// and ABFT compute sets end a fusable run; only a fault plan (or health
// monitor) makes the engine fall back to per-superstep execution — and
// assert the only property that matters: fused and unfused runs are
// bit-identical in results and exactly equal in every Profile total, trace
// event, tile profile and cancellation point. Trace sinks, tile profiles,
// cancel checks and excluded tiles must not stop fusion from engaging; a
// cancel-check probe that sees whether a later member already ran tells the
// two apart. The event-driven exchange path (cached copy plans) gets the
// same treatment against the full per-segment walk.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "graph/compiler.hpp"
#include "graph/engine.hpp"
#include "graph/graph.hpp"
#include "ipu/fault.hpp"
#include "support/tile_profile.hpp"
#include "support/trace.hpp"

using namespace graphene;
using namespace graphene::graph;

namespace {

/// Field-by-field exact comparison (doubles compared with ==).
void expectProfilesIdentical(const ipu::Profile& a, const ipu::Profile& b) {
  EXPECT_EQ(a.computeCycles.size(), b.computeCycles.size());
  for (const auto& [category, cycles] : a.computeCycles) {
    auto it = b.computeCycles.find(category);
    ASSERT_NE(it, b.computeCycles.end()) << "missing category " << category;
    EXPECT_EQ(cycles, it->second) << "cycles differ in " << category;
  }
  EXPECT_EQ(a.exchangeCycles, b.exchangeCycles);
  EXPECT_EQ(a.syncCycles, b.syncCycles);
  EXPECT_EQ(a.computeSupersteps, b.computeSupersteps);
  EXPECT_EQ(a.exchangeSupersteps, b.exchangeSupersteps);
  EXPECT_EQ(a.exchangeInstructions, b.exchangeInstructions);
  EXPECT_EQ(a.exchangedBytes, b.exchangedBytes);
  EXPECT_EQ(a.verticesExecuted, b.verticesExecuted);
  ASSERT_EQ(a.faultEvents.size(), b.faultEvents.size());
}

/// A two-tile graph whose compute sets append a marker to every element of
/// `data` (x = 2x + k): order-sensitive, so any reordering of supersteps or
/// tiles would change the result bits.
struct TestRig {
  Graph g{ipu::IpuTarget::testTarget(2)};
  TensorId data = kInvalidTensor;

  TestRig() {
    TensorInfo info;
    info.name = "data";
    info.dtype = ipu::DType::Float32;
    info.mapping = TileMapping::linear(8, 2);
    data = g.addTensor(std::move(info));
  }

  /// Adds a compute set (one vertex per tile) computing x = 2x + k over the
  /// tile's slice of `data`. Its codelet sets `ran`, when given.
  ComputeSetId addStep(float k, const std::string& category = "step",
                       std::atomic<bool>* ran = nullptr) {
    CodeletId c = g.addCodelet(Codelet{
        "affine", [k, ran](VertexContext& ctx) {
          auto s = ctx.floatSpan(0);
          for (float& x : s) x = 2.0f * x + k;
          if (ran != nullptr) ran->store(true);
          return VertexCost{static_cast<double>(s.size()) * 3.0, false};
        }});
    ComputeSetId cs = g.addComputeSet(category);
    for (std::size_t tile = 0; tile < 2; ++tile) {
      Vertex vx;
      vx.codelet = c;
      vx.tile = tile;
      vx.args.push_back(TensorSlice{data, tile, 0, 4});
      g.addVertex(cs, vx);
    }
    return cs;
  }

  CopySegment haloSeg(std::size_t srcTile, std::size_t dstTile) {
    CopySegment s;
    s.src = data;
    s.srcTile = srcTile;
    s.srcBegin = 0;
    s.dst = data;
    s.dsts.push_back({dstTile, 2});
    s.count = 2;
    return s;
  }

  std::vector<float> runOn(Engine& e, const ProgramPtr& p) {
    e.writeTensor<float>(data, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8});
    e.run(p);
    return e.readTensor<float>(data);
  }
};

struct Observers {
  bool trace = false;
  bool tileProfile = false;
  bool excludeTile1 = false;
};

/// Everything the attached observers saw of one run of `a; b`, plus whether
/// b's tile work had already run when a was committed — true only when the
/// engine fused the pair.
struct Observed {
  std::vector<float> data;
  ipu::Profile profile;
  std::vector<support::TraceEvent> events;
  std::string tileProfileJson;
  double simCycles = 0;
  bool bRanAtFirstCommit = false;
};

Observed runObserved(std::size_t hostThreads, bool fusion, Observers obs) {
  TestRig rig;
  std::atomic<bool> bRan{false};
  auto seq = Program::sequence();
  seq->children.push_back(Program::execute(rig.addStep(1.0f)));
  seq->children.push_back(
      Program::execute(rig.addStep(2.0f, "step", &bRan)));

  support::TraceSink sink;
  support::TileProfile tp;
  Engine e(rig.g, hostThreads);
  e.setSuperstepFusion(fusion);  // explicit: hold under GRAPHENE_NO_FUSION=1
  if (obs.trace) e.setTraceSink(&sink);
  if (obs.tileProfile) e.setTileProfile(&tp);
  if (obs.excludeTile1) e.setExcludedTiles({1});
  Observed out;
  bool polled = false;
  // The probe: polled after every committed superstep, it never stops.
  e.setCancelCheck([&](const Engine&) -> const char* {
    if (!polled) out.bRanAtFirstCommit = bRan.load();
    polled = true;
    return nullptr;
  });
  out.data = rig.runOn(e, seq);
  out.profile = e.profile();
  out.events = sink.events();
  if (obs.tileProfile) {
    out.tileProfileJson = support::tileProfileToJson(tp).dump(2);
  }
  out.simCycles = e.simCycles();
  return out;
}

void expectSameObservations(const Observed& a, const Observed& b) {
  EXPECT_EQ(a.data, b.data);
  expectProfilesIdentical(a.profile, b.profile);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_TRUE(a.events[i] == b.events[i]) << "traces diverge at event " << i;
  }
  EXPECT_EQ(a.tileProfileJson, b.tileProfileJson);
  EXPECT_EQ(a.simCycles, b.simCycles);
}

}  // namespace

TEST(Fusion, FusesAdjacentExecuteRunsOnly) {
  TestRig rig;
  ComputeSetId a = rig.addStep(1.0f);
  ComputeSetId b = rig.addStep(2.0f);
  ComputeSetId c = rig.addStep(3.0f);
  auto seq = Program::sequence();
  seq->children.push_back(Program::execute(a));
  seq->children.push_back(Program::execute(b));
  seq->children.push_back(Program::copy({rig.haloSeg(0, 1)}));
  seq->children.push_back(Program::execute(c));

  auto fused = fuseSupersteps(seq, rig.g);
  ProgramStats stats = analyzeProgram(fused);
  EXPECT_EQ(stats.fusedSteps, 1u);    // a+b fused; copy ends the run
  EXPECT_EQ(stats.executeSteps, 3u);  // members still count as supersteps
  EXPECT_EQ(stats.copySteps, 1u);
  // The original tree is untouched.
  EXPECT_EQ(analyzeProgram(seq).fusedSteps, 0u);

  // Fused and unfused execution agree bit-for-bit, including every profile
  // total (each member commits its own superstep).
  Engine unfused(rig.g, 1);
  unfused.setSuperstepFusion(false);
  Engine fusedEngine(rig.g, 2);
  // Force fusion on so the A/B holds even when the whole suite runs under
  // GRAPHENE_NO_FUSION=1 (the CI oracle job).
  fusedEngine.setSuperstepFusion(true);
  ASSERT_TRUE(fusedEngine.superstepFusion());
  const std::vector<float> want = rig.runOn(unfused, seq);
  const std::vector<float> got = rig.runOn(fusedEngine, seq);
  EXPECT_EQ(want, got);
  expectProfilesIdentical(unfused.profile(), fusedEngine.profile());
  EXPECT_EQ(fusedEngine.profile().computeSupersteps, 3u);
  EXPECT_EQ(fusedEngine.simCycles(), unfused.simCycles());
}

TEST(Fusion, SingleExecuteAndNonExecuteStepsAreLeftAlone) {
  TestRig rig;
  ComputeSetId a = rig.addStep(1.0f);
  auto seq = Program::sequence();
  seq->children.push_back(Program::copy({rig.haloSeg(0, 1)}));
  seq->children.push_back(Program::execute(a));
  seq->children.push_back(Program::copy({rig.haloSeg(1, 0)}));

  ProgramStats stats = analyzeProgram(fuseSupersteps(seq, rig.g));
  EXPECT_EQ(stats.fusedSteps, 0u);  // a lone Execute never fuses
  EXPECT_EQ(stats.executeSteps, 1u);
  EXPECT_EQ(stats.copySteps, 2u);
}

TEST(Fusion, AbftComputeSetsBlockFusion) {
  TestRig rig;
  ComputeSetId a = rig.addStep(1.0f);
  ComputeSetId guard = rig.addStep(0.5f, "abft");
  ComputeSetId b = rig.addStep(2.0f);
  auto seq = Program::sequence();
  seq->children.push_back(Program::execute(a));
  seq->children.push_back(Program::execute(guard));
  seq->children.push_back(Program::execute(b));

  // The ABFT set splits the run: a and b end up alone, nothing fuses.
  ProgramStats stats = analyzeProgram(fuseSupersteps(seq, rig.g));
  EXPECT_EQ(stats.fusedSteps, 0u);
  EXPECT_EQ(stats.executeSteps, 3u);

  // With the ABFT set at the end, the leading pair still fuses.
  auto seq2 = Program::sequence();
  seq2->children.push_back(Program::execute(a));
  seq2->children.push_back(Program::execute(b));
  seq2->children.push_back(Program::execute(guard));
  ProgramStats stats2 = analyzeProgram(fuseSupersteps(seq2, rig.g));
  EXPECT_EQ(stats2.fusedSteps, 1u);
  EXPECT_EQ(stats2.executeSteps, 3u);
}

TEST(Fusion, HostCallsBlockFusion) {
  TestRig rig;
  ComputeSetId a = rig.addStep(1.0f);
  ComputeSetId b = rig.addStep(2.0f);
  auto seq = Program::sequence();
  seq->children.push_back(Program::execute(a));
  seq->children.push_back(Program::hostCall([](Engine&) {}));
  seq->children.push_back(Program::execute(b));
  ProgramStats stats = analyzeProgram(fuseSupersteps(seq, rig.g));
  EXPECT_EQ(stats.fusedSteps, 0u);
  EXPECT_EQ(stats.hostCallSteps, 1u);
}

TEST(Fusion, FaultPlanFallsBackAndStaysIdentical) {
  // A stall on the fused pair's superstep: the fault hook must observe the
  // same superstep indices and charge the same cycles whether or not the
  // program was fused — the engine runs fused members as plain supersteps
  // whenever a plan is attached.
  auto makePlan = [] {
    return ipu::FaultPlan::fromJsonText(R"({
      "seed": 3,
      "faults": [{"type": "stall", "tile": 1, "cycles": 777, "superstep": 1}]
    })");
  };
  TestRig rigA;
  ComputeSetId a1 = rigA.addStep(1.0f);
  ComputeSetId b1 = rigA.addStep(2.0f);
  auto seqA = Program::sequence();
  seqA->children.push_back(Program::execute(a1));
  seqA->children.push_back(Program::execute(b1));

  TestRig rigB;
  ComputeSetId a2 = rigB.addStep(1.0f);
  ComputeSetId b2 = rigB.addStep(2.0f);
  auto seqB = Program::sequence();
  seqB->children.push_back(Program::execute(a2));
  seqB->children.push_back(Program::execute(b2));

  ipu::FaultPlan planA = makePlan();
  ipu::FaultPlan planB = makePlan();
  Engine unfused(rigA.g, 1);
  unfused.setSuperstepFusion(false);
  unfused.setFaultPlan(&planA);
  Engine fused(rigB.g, 2);
  fused.setSuperstepFusion(true);  // hold the A/B under GRAPHENE_NO_FUSION=1
  fused.setFaultPlan(&planB);
  const std::vector<float> want = rigA.runOn(unfused, seqA);
  const std::vector<float> got = rigB.runOn(fused, seqB);
  EXPECT_EQ(want, got);
  expectProfilesIdentical(unfused.profile(), fused.profile());
  EXPECT_FALSE(fused.profile().faultEvents.empty());
}

TEST(Fusion, TraceSinkFusesAndStaysIdentical) {
  const Observed fused = runObserved(2, true, {.trace = true});
  const Observed unfused = runObserved(1, false, {.trace = true});
  EXPECT_TRUE(fused.bRanAtFirstCommit);
  EXPECT_FALSE(unfused.bRanAtFirstCommit);
  expectSameObservations(unfused, fused);
  // A compute and a sync event per superstep, at the unfused timestamps.
  EXPECT_EQ(fused.events.size(), 4u);
}

TEST(Fusion, ExcludedTilesFuseAndStayIdentical) {
  const Observed fused = runObserved(2, true, {.excludeTile1 = true});
  const Observed unfused = runObserved(1, false, {.excludeTile1 = true});
  EXPECT_TRUE(fused.bRanAtFirstCommit);
  EXPECT_FALSE(unfused.bRanAtFirstCommit);
  expectSameObservations(unfused, fused);
  // The excluded tile really executed nothing: its slice still holds the
  // uploaded values.
  EXPECT_EQ(fused.data[4], 5.0f);
  EXPECT_EQ(fused.data[7], 8.0f);
}

TEST(Fusion, EngagesUnderEveryObserverAndStaysIdentical) {
  // Trace sink, tile profile, cancel check and an excluded tile at once:
  // with a host pool the pair still fuses, and without one (or with fusion
  // switched off) it does not. Every observation is the same either way.
  const Observers all{.trace = true, .tileProfile = true, .excludeTile1 = true};
  const Observed fused = runObserved(2, true, all);
  const Observed switchedOff = runObserved(2, false, all);
  const Observed oneThread = runObserved(1, true, all);
  EXPECT_TRUE(fused.bRanAtFirstCommit);
  EXPECT_FALSE(switchedOff.bRanAtFirstCommit);
  EXPECT_FALSE(oneThread.bRanAtFirstCommit);
  expectSameObservations(switchedOff, fused);
  expectSameObservations(switchedOff, oneThread);
  EXPECT_FALSE(fused.tileProfileJson.empty());
}

TEST(Fusion, CancelMidFusedRunStopsAtTheUnfusedSuperstep) {
  // The check fires at the second of three commits. The fused engine has
  // simulated all three members' tile work by then, yet it must throw the
  // same error (superstep, cycle) and leave the same Profile and trace as
  // the unfused run; only tensor contents may have run ahead.
  struct Stopped {
    std::string message;
    ipu::Profile profile;
    std::vector<support::TraceEvent> events;
    double simCycles = 0;
    bool cRan = false;
  };
  auto run = [](std::size_t hostThreads, bool fusion) {
    TestRig rig;
    std::atomic<bool> cRan{false};
    auto seq = Program::sequence();
    seq->children.push_back(Program::execute(rig.addStep(1.0f)));
    seq->children.push_back(Program::execute(rig.addStep(2.0f)));
    seq->children.push_back(
        Program::execute(rig.addStep(3.0f, "step", &cRan)));
    support::TraceSink sink;
    Engine e(rig.g, hostThreads);
    e.setSuperstepFusion(fusion);
    e.setTraceSink(&sink);
    int polls = 0;
    e.setCancelCheck([&polls](const Engine&) -> const char* {
      return ++polls == 2 ? "deadline" : nullptr;
    });
    Stopped out;
    try {
      rig.runOn(e, seq);
      ADD_FAILURE() << "the cancel check did not stop the run";
    } catch (const CancelledError& ce) {
      out.message = ce.what();
      EXPECT_EQ(ce.reason(), "deadline");
    }
    out.profile = e.profile();
    out.events = sink.events();
    out.simCycles = e.simCycles();
    out.cRan = cRan.load();
    return out;
  };
  const Stopped unfused = run(1, false);
  const Stopped fused = run(2, true);
  EXPECT_FALSE(unfused.cRan);
  EXPECT_TRUE(fused.cRan);  // the fused run really ran ahead on the tiles
  EXPECT_NE(unfused.message.find("after superstep 2 at cycle"),
            std::string::npos)
      << unfused.message;
  EXPECT_EQ(unfused.message, fused.message);
  expectProfilesIdentical(unfused.profile, fused.profile);
  EXPECT_EQ(fused.profile.computeSupersteps, 2u);
  ASSERT_EQ(unfused.events.size(), fused.events.size());
  for (std::size_t i = 0; i < fused.events.size(); ++i) {
    EXPECT_TRUE(unfused.events[i] == fused.events[i]) << "event " << i;
  }
  EXPECT_EQ(unfused.simCycles, fused.simCycles);
}

TEST(Fusion, FusedPlanRebuildsWhenComputeSetGrows) {
  // Run a fused pair, then append vertices to one member and run again: the
  // cached per-tile worklist must rebuild (it mirrors each member plan's
  // vertex-count staleness stamp), not replay the stale one.
  TestRig rigA;
  ComputeSetId a1 = rigA.addStep(1.0f);
  ComputeSetId b1 = rigA.addStep(2.0f);
  auto seqA = Program::sequence();
  seqA->children.push_back(Program::execute(a1));
  seqA->children.push_back(Program::execute(b1));
  TestRig rigB;
  ComputeSetId a2 = rigB.addStep(1.0f);
  ComputeSetId b2 = rigB.addStep(2.0f);
  auto seqB = Program::sequence();
  seqB->children.push_back(Program::execute(a2));
  seqB->children.push_back(Program::execute(b2));

  Engine unfused(rigA.g, 1);
  unfused.setSuperstepFusion(false);
  Engine fused(rigB.g, 2);
  fused.setSuperstepFusion(true);  // hold the A/B under GRAPHENE_NO_FUSION=1
  rigA.runOn(unfused, seqA);
  rigB.runOn(fused, seqB);

  // Grow member b with a second pass over tile 0 (same codelet as "step").
  auto grow = [](TestRig& rig, ComputeSetId cs) {
    CodeletId c = rig.g.addCodelet(Codelet{
        "affine2", [](VertexContext& ctx) {
          auto s = ctx.floatSpan(0);
          for (float& x : s) x = 2.0f * x + 9.0f;
          return VertexCost{static_cast<double>(s.size()) * 3.0, false};
        }});
    Vertex vx;
    vx.codelet = c;
    vx.tile = 0;
    vx.args.push_back(TensorSlice{rig.data, 0, 0, 4});
    rig.g.addVertex(cs, vx);
  };
  grow(rigA, b1);
  grow(rigB, b2);
  const std::vector<float> want = rigA.runOn(unfused, seqA);
  const std::vector<float> got = rigB.runOn(fused, seqB);
  EXPECT_EQ(want, got);
  expectProfilesIdentical(unfused.profile(), fused.profile());
}

TEST(Exchange, CachedCopyPlanMatchesSegmentWalk) {
  // The engine resolves a Copy step once and replays it unless a fault plan
  // is attached. An *empty* fault plan forces the full per-segment walk
  // without changing any outcome — a perfect oracle.
  TestRig rigA;
  auto seqA = Program::sequence();
  seqA->children.push_back(
      Program::copy({rigA.haloSeg(0, 1), rigA.haloSeg(1, 0)}));
  seqA->children.push_back(Program::execute(rigA.addStep(1.0f)));
  seqA->children.push_back(
      Program::copy({rigA.haloSeg(0, 1), rigA.haloSeg(1, 0)}));
  TestRig rigB;
  auto seqB = Program::sequence();
  seqB->children.push_back(
      Program::copy({rigB.haloSeg(0, 1), rigB.haloSeg(1, 0)}));
  seqB->children.push_back(Program::execute(rigB.addStep(1.0f)));
  seqB->children.push_back(
      Program::copy({rigB.haloSeg(0, 1), rigB.haloSeg(1, 0)}));

  ipu::FaultPlan empty = ipu::FaultPlan::fromJsonText(R"({"faults": []})");
  Engine walked(rigA.g, 1);
  walked.setFaultPlan(&empty);  // forces the per-segment path
  Engine cached(rigB.g, 1);
  const std::vector<float> want = rigA.runOn(walked, seqA);
  const std::vector<float> got = rigB.runOn(cached, seqB);
  EXPECT_EQ(want, got);
  expectProfilesIdentical(walked.profile(), cached.profile());
  EXPECT_GT(cached.profile().exchangedBytes, 0u);

  // Replay: run the same program again on the cached engine — the second
  // pass (a pure cache hit) must charge exactly the same exchange totals.
  const auto bytesOnce = cached.profile().exchangedBytes;
  const auto cyclesOnce = cached.profile().exchangeCycles;
  rigB.runOn(cached, seqB);
  EXPECT_EQ(cached.profile().exchangedBytes, 2 * bytesOnce);
  EXPECT_EQ(cached.profile().exchangeCycles, 2 * cyclesOnce);

  // A tile profile does not make the engine walk: the cached plan records
  // its resolved transfers into the traffic matrix, which — like the
  // exchange totals — must match the walk's, on the first run and on a
  // replay alike.
  support::TileProfile walkedTp, cachedTp;
  Engine walkedProfiled(rigA.g, 1);
  walkedProfiled.setFaultPlan(&empty);
  walkedProfiled.setTileProfile(&walkedTp);
  Engine cachedProfiled(rigB.g, 1);
  cachedProfiled.setTileProfile(&cachedTp);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    EXPECT_EQ(rigA.runOn(walkedProfiled, seqA),
              rigB.runOn(cachedProfiled, seqB));
    EXPECT_GT(cachedTp.traffic.totalBytes(), 0u);
    EXPECT_EQ(cachedTp.traffic.totalBytes(),
              static_cast<std::uint64_t>(
                  cachedProfiled.profile().exchangedBytes));
    EXPECT_EQ(walkedTp.exchangeCycles, cachedTp.exchangeCycles);
    EXPECT_EQ(walkedTp.exchangeSupersteps, cachedTp.exchangeSupersteps);
    EXPECT_EQ(support::tileProfileToJson(walkedTp).dump(2),
              support::tileProfileToJson(cachedTp).dump(2));
  }
}

TEST(Exchange, ZeroByteExchangeIsSkippedButStillCommitted) {
  // A Copy whose only destination is its own source is a zero-byte exchange
  // superstep: the event-driven path must skip the segment simulation yet
  // still commit the superstep (count +1, zero bytes, zero cycles) exactly
  // like the full walk does.
  TestRig rigA;
  CopySegment self;
  self.src = rigA.data;
  self.srcTile = 0;
  self.srcBegin = 0;
  self.dst = rigA.data;
  self.dsts.push_back({0, 0});
  self.count = 4;
  auto seqA = Program::sequence();
  seqA->children.push_back(Program::copy({self}));

  ipu::FaultPlan empty = ipu::FaultPlan::fromJsonText(R"({"faults": []})");
  Engine walked(rigA.g, 1);
  walked.setFaultPlan(&empty);
  Engine cached(rigA.g, 1);
  const std::vector<float> want = rigA.runOn(walked, seqA);
  const std::vector<float> got = rigA.runOn(cached, seqA);
  EXPECT_EQ(want, got);
  expectProfilesIdentical(walked.profile(), cached.profile());
  EXPECT_EQ(cached.profile().exchangeSupersteps, 1u);
  EXPECT_EQ(cached.profile().exchangedBytes, 0u);
  EXPECT_EQ(cached.profile().exchangeCycles, 0.0);
}
