// Tile-level profiler.
//
// Covers the tentpole guarantees: per-tile critical-path attribution sums
// back to Profile::computeCycles with exact equality per category; the
// tile×tile traffic matrix's row/column/grand totals equal
// Profile::exchangedBytes; reports are bit-identical between 1 and 8 host
// threads; profiling disabled means zero extra compute-set emissions and
// unchanged cycle totals (A/B); JSON round-trips; the SRAM snapshot matches
// the memory ledger tensor-by-tensor; and the §IV halo reordering moves the
// traffic-locality score in the direction graphene-prof's diff gate checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "graph/engine.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
#include "solver/session.hpp"
#include "solver/solvers.hpp"
#include "support/tile_profile.hpp"

using namespace graphene;
using namespace graphene::solver;
using dsl::Context;
using dsl::Tensor;
using support::TileProfile;

namespace {

const char* kCgJson = R"({
  "type": "cg", "maxIterations": 200, "tolerance": 1e-6
})";

/// One emitted CG solve whose program can be re-run on fresh engines —
/// the same fixture shape the trace tests use.
struct ProfiledSetup {
  std::unique_ptr<Context> ctx;
  std::unique_ptr<DistMatrix> A;
  std::unique_ptr<Solver> solver;
  std::optional<Tensor> x, b;
  std::vector<double> rhs;
  std::size_t tiles;

  explicit ProfiledSetup(std::size_t tiles = 4) : tiles(tiles) {
    auto g = matrix::poisson2d5(8, 8);
    ctx = std::make_unique<Context>(ipu::IpuTarget::testTarget(tiles));
    auto layout =
        partition::Partitioner(ipu::Topology::singleIpu(tiles)).layout(g);
    A = std::make_unique<DistMatrix>(g.matrix, std::move(layout));
    x.emplace(A->makeVector(DType::Float32, "x"));
    b.emplace(A->makeVector(DType::Float32, "b"));
    solver = makeSolverFromString(kCgJson);
    solver->apply(*A, *x, *b);
    rhs.assign(64, 1.0);
  }

  /// Runs the program on a fresh engine; attaches `profile` when non-null.
  /// `fusion` overrides the engine's superstep-fusion default when given.
  std::unique_ptr<graph::Engine> run(TileProfile* profile,
                                     std::size_t hostThreads = 1,
                                     std::optional<bool> fusion = {}) {
    solver->clearHistory();
    auto engine = std::make_unique<graph::Engine>(ctx->graph(), hostThreads);
    if (fusion) engine->setSuperstepFusion(*fusion);
    if (profile != nullptr) engine->setTileProfile(profile);
    A->upload(*engine);
    A->writeVector(*engine, *b, rhs);
    engine->run(ctx->program());
    return engine;
  }
};

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

}  // namespace

// Each compute superstep's critical path (max tile cycles) is charged to
// the tile that set it, so per-category tile sums reproduce the engine's
// Profile::computeCycles entries with *exact* double equality — the cycle
// costs are dyadic, and both sides add the same values.
TEST(TileProfileAttribution, CriticalCyclesReproduceProfileExactly) {
  ProfiledSetup setup;
  TileProfile tp;
  auto engine = setup.run(&tp);
  const ipu::Profile& prof = engine->profile();

  ASSERT_FALSE(prof.computeCycles.empty());
  ASSERT_EQ(tp.categories.size(), prof.computeCycles.size());
  for (const auto& [cat, cycles] : prof.computeCycles) {
    ASSERT_TRUE(tp.categories.count(cat)) << cat;
    const auto& plane = tp.categories.at(cat);
    EXPECT_EQ(sum(plane.criticalCycles), cycles) << cat;      // exact ==
    EXPECT_EQ(tp.categoryCycles(cat), cycles) << cat;
    EXPECT_GT(plane.supersteps, 0u) << cat;

    // Per tile: busy + barrier idle is the sum of the critical paths of the
    // supersteps this tile took part in — a subset of the category's
    // supersteps, so bounded by the category total. Worker busy never
    // exceeds workers × busy, idle is non-negative.
    for (std::size_t t = 0; t < tp.numTiles; ++t) {
      EXPECT_GE(plane.barrierIdleCycles[t], 0.0) << cat << " tile " << t;
      EXPECT_LE(plane.busyCycles[t] + plane.barrierIdleCycles[t], cycles)
          << cat << " tile " << t;
      EXPECT_LE(plane.workerBusyCycles[t],
                static_cast<double>(tp.workersPerTile) * plane.busyCycles[t] +
                    1e-9)
          << cat << " tile " << t;
    }
  }

  EXPECT_EQ(tp.totalComputeCycles(), prof.totalComputeCycles());
  EXPECT_EQ(tp.exchangeCycles, prof.exchangeCycles);
  EXPECT_EQ(tp.syncCycles, prof.syncCycles);
  EXPECT_EQ(tp.totalCycles(), prof.totalCycles());
  EXPECT_EQ(tp.computeSupersteps, prof.computeSupersteps);
  EXPECT_EQ(tp.exchangeSupersteps, prof.exchangeSupersteps);
  EXPECT_EQ(tp.numTiles, setup.tiles);
  EXPECT_EQ(tp.workersPerTile, setup.ctx->graph().target().workersPerTile);
}

// The traffic matrix splits each transfer's payload integer-exactly over
// its remote destinations, so row sums (pushed), column sums (pulled) and
// the grand total all reconcile with Profile::exchangedBytes.
TEST(TileProfileTraffic, MatrixSumsEqualExchangedBytes) {
  ProfiledSetup setup;
  TileProfile tp;
  auto engine = setup.run(&tp);
  const ipu::Profile& prof = engine->profile();

  ASSERT_FALSE(tp.traffic.empty());
  std::uint64_t rows = 0, cols = 0, cells = 0, msgs = 0;
  for (std::size_t t = 0; t < tp.numTiles; ++t) {
    rows += tp.traffic.rowSum(t);
    cols += tp.traffic.colSum(t);
    // A tile never messages itself: local copies are free in the model.
    EXPECT_EQ(tp.traffic.bytes(t, t), 0u);
    EXPECT_EQ(tp.traffic.messages(t, t), 0u);
    for (std::size_t d = 0; d < tp.numTiles; ++d) {
      cells += tp.traffic.bytes(t, d);
      msgs += tp.traffic.messages(t, d);
    }
  }
  EXPECT_EQ(rows, tp.traffic.totalBytes());
  EXPECT_EQ(cols, tp.traffic.totalBytes());
  EXPECT_EQ(cells, tp.traffic.totalBytes());
  EXPECT_EQ(msgs, tp.traffic.totalMessages());
  EXPECT_EQ(tp.traffic.totalBytes(),
            static_cast<std::uint64_t>(prof.exchangedBytes));
  // Blockwise halo plans broadcast: fewer send instructions than messages.
  EXPECT_LE(tp.traffic.sendInstructions(), tp.traffic.totalMessages());
  EXPECT_GT(tp.traffic.sendInstructions(), 0u);
}

// All recording happens in the engine's serial commit passes, so the
// serialised report is byte-identical whether 1 or 8 host threads simulate
// the tiles, and whether or not the 8-thread engine fuses supersteps.
TEST(TileProfileDeterminism, ReportBitIdenticalAcrossHostThreads) {
  struct Input {
    const char* name;
    std::optional<bool> serialFusion, parallelFusion;
  };
  const Input inputs[] = {
      {"default fusion setting", {}, {}},
      {"8 threads fused vs 1 thread unfused", false, true},
  };
  ProfiledSetup setup;
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    TileProfile serial, parallel;
    setup.run(&serial, 1, in.serialFusion);
    setup.run(&parallel, 8, in.parallelFusion);

    const std::string a = support::tileProfileToJson(serial).dump(2);
    const std::string b = support::tileProfileToJson(parallel).dump(2);
    EXPECT_EQ(a, b);
    ASSERT_GT(serial.totalComputeCycles(), 0.0);
  }
}

// Pay-for-what-you-use: with no TileProfile attached the engine runs the
// identical superstep schedule — same compute-set executions, same cycle
// totals, same exchange accounting. Profiling observes; it never perturbs.
TEST(TileProfileOverhead, DisabledProfilingChangesNothing) {
  ProfiledSetup setup;
  auto plain = setup.run(nullptr);
  TileProfile tp;
  auto profiled = setup.run(&tp);

  const ipu::Profile& a = plain->profile();
  const ipu::Profile& b = profiled->profile();
  EXPECT_EQ(a.computeCycles, b.computeCycles);
  EXPECT_EQ(a.computeSupersteps, b.computeSupersteps);
  EXPECT_EQ(a.exchangeSupersteps, b.exchangeSupersteps);
  EXPECT_EQ(a.exchangeCycles, b.exchangeCycles);
  EXPECT_EQ(a.syncCycles, b.syncCycles);
  EXPECT_EQ(a.exchangedBytes, b.exchangedBytes);
  EXPECT_EQ(a.exchangeInstructions, b.exchangeInstructions);
  EXPECT_EQ(a.verticesExecuted, b.verticesExecuted);
  EXPECT_EQ(plain->simCycles(), profiled->simCycles());
  EXPECT_EQ(plain->tileProfile(), nullptr);
}

// dump → parse → rebuild → dump is a fixed point, and the rebuilt report
// carries the same planes.
TEST(TileProfileExport, JsonRoundTrips) {
  ProfiledSetup setup;
  TileProfile tp;
  setup.run(&tp);
  tp.label = "cg[roundtrip]";

  json::Value doc = support::tileProfileToJson(tp);
  TileProfile back = support::tileProfileFromJson(doc);
  EXPECT_EQ(doc.dump(2), support::tileProfileToJson(back).dump(2));

  EXPECT_EQ(back.numTiles, tp.numTiles);
  EXPECT_EQ(back.workersPerTile, tp.workersPerTile);
  EXPECT_EQ(back.label, tp.label);
  EXPECT_EQ(back.totalComputeCycles(), tp.totalComputeCycles());
  EXPECT_EQ(back.traffic.totalBytes(), tp.traffic.totalBytes());
  EXPECT_EQ(back.traffic.sendInstructions(), tp.traffic.sendInstructions());
  EXPECT_EQ(back.sram.tensors.size(), tp.sram.tensors.size());
  EXPECT_EQ(support::trafficLocalityScore(back),
            support::trafficLocalityScore(tp));
}

// The SRAM snapshot is the memory ledger, tensor by tensor: the per-tensor
// breakdown sums to the ledger occupancy on every tile, high-water bounds
// occupancy, and the budget is the target's per-tile SRAM.
TEST(TileProfileSram, SnapshotMatchesLedger) {
  ProfiledSetup setup;
  TileProfile tp;
  setup.run(&tp);
  const graph::Graph& g = setup.ctx->graph();

  EXPECT_EQ(tp.sram.budgetBytes, g.target().sramBytesPerTile);
  ASSERT_EQ(tp.sram.usedBytes.size(), tp.numTiles);
  ASSERT_EQ(tp.sram.tensors.size(), g.numTensors());
  for (std::size_t t = 0; t < tp.numTiles; ++t) {
    std::size_t fromTensors = 0;
    for (const auto& tensor : tp.sram.tensors) {
      fromTensors += tensor.bytesPerTile[t];
    }
    EXPECT_EQ(fromTensors, tp.sram.usedBytes[t]) << "tile " << t;
    EXPECT_EQ(tp.sram.usedBytes[t], g.ledger().used(t)) << "tile " << t;
    EXPECT_GE(tp.sram.highWaterBytes[t], tp.sram.usedBytes[t]) << "tile " << t;
    EXPECT_LE(tp.sram.highWaterBytes[t], tp.sram.budgetBytes) << "tile " << t;
  }
  EXPECT_GT(tp.sram.peakUsed(), 0u);
}

// The analyses stay internally consistent: the histogram covers exactly
// the active tiles, stragglers come out in deterministic descending order,
// and every category classifies to one of the three roofline buckets.
TEST(TileProfileAnalyses, ImbalanceStragglersClassification) {
  ProfiledSetup setup;
  TileProfile tp;
  setup.run(&tp);

  const support::ImbalanceStats imb = support::loadImbalance(tp);
  EXPECT_GT(imb.activeTiles, 0u);
  EXPECT_LE(imb.activeTiles, tp.numTiles);
  EXPECT_GE(imb.imbalance, 1.0);
  EXPECT_LE(imb.minCycles, imb.meanCycles);
  EXPECT_LE(imb.meanCycles, imb.maxCycles);
  EXPECT_EQ(std::accumulate(imb.histogram.begin(), imb.histogram.end(),
                            std::size_t{0}),
            imb.activeTiles);

  const auto stragglers = support::topStragglers(tp, tp.numTiles + 4);
  ASSERT_FALSE(stragglers.empty());
  EXPECT_LE(stragglers.size(), tp.numTiles);
  double total = 0;
  for (std::size_t i = 1; i < stragglers.size(); ++i) {
    EXPECT_GE(stragglers[i - 1].criticalCycles, stragglers[i].criticalCycles);
    if (stragglers[i - 1].criticalCycles == stragglers[i].criticalCycles) {
      EXPECT_LT(stragglers[i - 1].tile, stragglers[i].tile);
    }
  }
  for (const auto& s : stragglers) total += s.criticalCycles;
  EXPECT_EQ(total, tp.totalComputeCycles());  // every cycle is attributed

  const auto classes = support::classifyCategories(tp);
  EXPECT_EQ(classes.size(), tp.categories.size());
  double share = 0;
  for (const auto& c : classes) {
    EXPECT_TRUE(c.klass == "compute-bound" || c.klass == "worker-idle" ||
                c.klass == "imbalance-bound")
        << c.category << " → " << c.klass;
    share += c.shareOfCompute;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
  const std::string verdict = support::runClassification(tp);
  EXPECT_TRUE(verdict == "compute-bound" || verdict == "exchange-bound");

  EXPECT_FALSE(support::tileProfileSummaryTable(tp).render().empty());
  EXPECT_FALSE(support::tileStragglerTable(tp).render().empty());
}

// The HTML export is self-contained and carries the report's substance.
TEST(TileProfileExport, HtmlContainsReportSections) {
  ProfiledSetup setup;
  TileProfile tp;
  setup.run(&tp);
  tp.label = "cg-html-test";

  const std::string html = support::tileProfileToHtml(tp);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("cg-html-test"), std::string::npos);
  EXPECT_NE(html.find("Exchange traffic"), std::string::npos);
  EXPECT_NE(html.find("SRAM"), std::string::npos);
  for (const auto& [cat, plane] : tp.categories) {
    EXPECT_NE(html.find(cat), std::string::npos) << cat;
  }
  // No external assets: self-contained means no script/src/href-out.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

// The §IV A/B through the full session stack: blockwise halo reordering
// versus the per-cell baseline moves exactly the numbers the paper says it
// moves — same payload, fewer send instructions, fewer exchange cycles —
// and the traffic-locality score (what `graphene-prof diff` gates on)
// improves with reordering.
TEST(TileProfileHalo, ReorderingImprovesTrafficLocality) {
  auto g = matrix::poisson2d5(16, 16);
  std::vector<double> rhs(g.matrix.rows(), 1.0);
  const char* cfg = R"({
    "type": "cg", "maxIterations": 100, "tolerance": 1e-6
  })";

  // Only one DSL context may be live at a time, so the sessions run in
  // sequence; the reports are shared_ptrs and outlive their session.
  std::shared_ptr<support::TileProfile> profB, profP;
  std::size_t itersB = 0, itersP = 0;
  {
    SolveSession blockwise({.tiles = 8});
    blockwise.load(g).configure(cfg);
    blockwise.enableTileProfile();
    auto rb = blockwise.solve(rhs);
    profB = rb.tileProfile;
    itersB = rb.solve.iterations;
  }
  {
    SolveSession percell({.tiles = 8, .perCellHalo = true});
    percell.load(g).configure(cfg);
    percell.enableTileProfile();
    auto rp = percell.solve(rhs);
    profP = rp.tileProfile;
    itersP = rp.solve.iterations;
  }

  ASSERT_NE(profB, nullptr);
  ASSERT_NE(profP, nullptr);
  const TileProfile& tb = *profB;
  const TileProfile& tpc = *profP;

  // Same numerics, same payload; only the exchange plan differs.
  EXPECT_EQ(itersB, itersP);
  EXPECT_EQ(tb.traffic.totalBytes(), tpc.traffic.totalBytes());
  EXPECT_LT(tb.traffic.sendInstructions(), tpc.traffic.sendInstructions());
  EXPECT_LT(tb.exchangeCycles, tpc.exchangeCycles);

  const double locB = support::trafficLocalityScore(tb);
  const double locP = support::trafficLocalityScore(tpc);
  EXPECT_GT(locB, locP);
  EXPECT_GT(locB, 0.0);
  EXPECT_LE(locB, 1.0);

  // graphene-prof's diff direction: per-cell baseline → blockwise candidate
  // shows locality ratio > 1 and no cycle regression, so the CI thresholds
  // (--max-cycles-regress 0 --min-locality-ratio 1.0) pass.
  const support::TileProfileDiff diff = support::diffTileProfiles(tpc, tb);
  EXPECT_GT(diff.localityRatio(), 1.0);
  EXPECT_LE(diff.cyclesRatio(), 1.0);
  std::string why;
  EXPECT_TRUE(support::diffWithinThresholds(diff, 0.0, 1.0, &why)) << why;
  EXPECT_FALSE(support::tileProfileDiffTable(diff).render().empty());

  // And the reverse direction is caught as a locality regression.
  const support::TileProfileDiff rev = support::diffTileProfiles(tb, tpc);
  EXPECT_FALSE(support::diffWithinThresholds(rev, -1.0, 1.0, &why));
  EXPECT_FALSE(why.empty());

  // A self-diff is clean under the strictest thresholds.
  const support::TileProfileDiff self = support::diffTileProfiles(tb, tb);
  EXPECT_EQ(self.cyclesRatio(), 1.0);
  EXPECT_EQ(self.localityRatio(), 1.0);
  EXPECT_TRUE(support::diffWithinThresholds(self, 0.0, 1.0, nullptr));
}

// enableTileProfile through the session: the report rides the Result, is
// shared with the session accessor, and is labelled with the solver chain.
TEST(TileProfileSession, ReportOnResult) {
  auto g = matrix::poisson2d5(8, 8);
  SolveSession session({.tiles = 4});
  session.load(g).configure(kCgJson);

  // Without opt-in the result carries no report.
  std::vector<double> rhs(g.matrix.rows(), 1.0);
  auto r0 = session.solve(rhs);
  EXPECT_EQ(r0.tileProfile, nullptr);
  EXPECT_EQ(session.tileProfile(), nullptr);

  session.enableTileProfile();
  auto r1 = session.solve(rhs);
  ASSERT_NE(r1.tileProfile, nullptr);
  EXPECT_EQ(r1.tileProfile.get(), session.tileProfile());
  EXPECT_EQ(r1.tileProfile->label, session.solver().chainName());
  EXPECT_EQ(r1.tileProfile->totalComputeCycles(),
            session.profile().totalComputeCycles());
  EXPECT_EQ(r1.tileProfile->traffic.totalBytes(),
            static_cast<std::uint64_t>(session.profile().exchangedBytes));
}
