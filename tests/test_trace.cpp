// Execution tracing & metrics.
//
// Covers: the trace timeline is bit-identical across host thread counts;
// the Chrome trace_event export round-trips through the JSON layer; an
// unwrapped timeline is complete — its compute, sync and exchange events
// sum to the engine's Profile exactly (same values summed in the same
// order → equal, not approximately equal); a wrapped ring reports its drops
// while the Profile's summary table, the run's one ledger of totals, is
// unchanged; a fault-plan run yields one merged, ordered timeline of
// injected faults and recovery actions; Profile::operator+= merges the
// straggler stats and the metrics registry.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "graph/engine.hpp"
#include "ipu/fault.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
#include "solver/solvers.hpp"
#include "support/trace.hpp"

using namespace graphene;
using namespace graphene::solver;
using dsl::Context;
using dsl::Tensor;
using support::TraceEvent;
using support::TraceKind;
using support::TraceSink;

namespace {

const char* kCgJson = R"({
  "type": "cg", "maxIterations": 200, "tolerance": 1e-6
})";

/// One emitted CG solve whose program can be re-run on fresh engines.
struct TracedSetup {
  std::unique_ptr<Context> ctx;
  std::unique_ptr<DistMatrix> A;
  std::unique_ptr<Solver> solver;
  std::optional<Tensor> x, b;
  std::vector<double> rhs;

  explicit TracedSetup(const std::string& solverJson = kCgJson,
                       std::size_t tiles = 4) {
    auto g = matrix::poisson2d5(8, 8);
    ctx = std::make_unique<Context>(ipu::IpuTarget::testTarget(tiles));
    auto layout =
        partition::Partitioner(ipu::Topology::singleIpu(tiles)).layout(g);
    A = std::make_unique<DistMatrix>(g.matrix, std::move(layout));
    x.emplace(A->makeVector(DType::Float32, "x"));
    b.emplace(A->makeVector(DType::Float32, "b"));
    solver = makeSolverFromString(solverJson);
    solver->apply(*A, *x, *b);
    rhs.assign(g.matrix.rows(), 1.0);
  }

  /// Runs the program on a fresh engine with `sink` attached; `fusion`
  /// overrides the engine's superstep-fusion default when given.
  std::unique_ptr<graph::Engine> run(TraceSink& sink,
                                     std::size_t hostThreads = 1,
                                     ipu::FaultPlan* plan = nullptr,
                                     std::optional<bool> fusion = {}) {
    solver->clearHistory();
    auto engine = std::make_unique<graph::Engine>(ctx->graph(), hostThreads);
    if (fusion) engine->setSuperstepFusion(*fusion);
    engine->setTraceSink(&sink);
    if (plan != nullptr) {
      plan->reset();
      engine->setFaultPlan(plan);
    }
    A->upload(*engine);
    A->writeVector(*engine, *b, rhs);
    engine->run(ctx->program());
    return engine;
  }
};

std::size_t countKind(const TraceSink& sink, TraceKind kind) {
  std::size_t n = 0;
  for (const TraceEvent& ev : sink.events()) n += ev.kind == kind ? 1 : 0;
  return n;
}

/// Summed durations and count of one event kind over the ring.
std::pair<double, std::size_t> sumKind(const TraceSink& sink, TraceKind kind) {
  double cycles = 0;
  std::size_t n = 0;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != kind) continue;
    cycles += ev.durationCycles;
    n += 1;
  }
  return {cycles, n};
}

}  // namespace

// Tile stats (min/mean/max/straggler) are computed in one serial pass in
// task order, so the timeline — timestamps, durations, straggler picks,
// iteration samples — must be byte-identical whether 1 or 8 host threads
// simulate the tiles, and whether or not the 8-thread engine fuses
// supersteps (fused members commit, and trace, in the unfused order).
TEST(TraceDeterminism, BitIdenticalAcrossHostThreads) {
  struct Input {
    const char* name;
    std::optional<bool> serialFusion, parallelFusion;
  };
  const Input inputs[] = {
      {"default fusion setting", {}, {}},
      {"8 threads fused vs 1 thread unfused", false, true},
  };
  TracedSetup setup;
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    TraceSink serial, parallel;
    setup.run(serial, 1, nullptr, in.serialFusion);
    setup.run(parallel, 8, nullptr, in.parallelFusion);

    ASSERT_GT(serial.recorded(), 0u);
    ASSERT_EQ(serial.recorded(), parallel.recorded());
    auto a = serial.events();
    auto b = parallel.events();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i] == b[i]) << "timelines diverge at event " << i << " ("
                                << support::toString(a[i].kind) << " '"
                                << a[i].name << "')";
    }
    EXPECT_EQ(support::traceComputeCycles(serial),
              support::traceComputeCycles(parallel));
  }
}

// An unwrapped timeline is complete: its events sum the same per-superstep
// doubles in the same order as the engine's Profile — exact equality, not
// tolerance.
TEST(TraceAggregates, MatchEngineProfileExactly) {
  TracedSetup setup;
  TraceSink sink;
  auto engine = setup.run(sink);
  const ipu::Profile& prof = engine->profile();
  ASSERT_EQ(sink.dropped(), 0u);

  EXPECT_EQ(support::traceComputeCycles(sink), prof.computeCycles);
  const auto [syncCycles, syncs] = sumKind(sink, TraceKind::Sync);
  EXPECT_EQ(syncCycles, prof.syncCycles);
  EXPECT_EQ(syncs, prof.computeSupersteps);
  const auto [exchangeCycles, exchanges] =
      sumKind(sink, TraceKind::ExchangeSuperstep);
  EXPECT_EQ(exchangeCycles, prof.exchangeCycles);
  EXPECT_EQ(exchanges, prof.exchangeSupersteps);

  // The timeline ends where the engine's monotonic clock ends.
  EXPECT_DOUBLE_EQ(engine->simCycles(), prof.totalCycles());

  // Iteration samples mirror the solver's recorded history.
  EXPECT_EQ(countKind(sink, TraceKind::Iteration),
            setup.solver->history().size());

  // Every compute event's tile stats landed in the profile's per-category
  // superstep stats, with consistent totals.
  std::map<std::string, ipu::SuperstepStats> fromEvents;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != TraceKind::ComputeSuperstep) continue;
    fromEvents[ev.name].record(ev.superstep, ev.tileMin, ev.tileMean,
                               ev.tileMax, ev.stragglerTile);
  }
  EXPECT_EQ(fromEvents, prof.superstepStats);
  for (const auto& [cat, stats] : prof.superstepStats) {
    EXPECT_GE(stats.imbalance(), 1.0) << cat;
  }

  // The engine ticked the DistMatrix codelet metrics: SpMV FLOPs and halo
  // traffic are first-class counters now.
  EXPECT_GT(prof.metrics.counter("spmv.flops"), 0.0);
  EXPECT_GT(prof.metrics.counter("spmv.count"), 0.0);
  EXPECT_GT(prof.metrics.counter("halo.bytes"), 0.0);
  EXPECT_GT(prof.metrics.counter("halo.exchanges"), 0.0);
}

// A tiny ring drops old events and says so, while the run's totals are
// untouched: they live in the Profile, so its summary table is identical
// whether the ring wrapped or not.
TEST(TraceAggregates, ExactAfterRingWrap) {
  TracedSetup setup;
  TraceSink full, tiny(64);
  const auto fullEngine = setup.run(full);
  const auto tinyEngine = setup.run(tiny);

  ASSERT_EQ(full.dropped(), 0u);
  ASSERT_GT(tiny.dropped(), 0u);
  EXPECT_EQ(tiny.events().size(), 64u);
  EXPECT_EQ(tiny.recorded(), full.recorded());
  EXPECT_EQ(tiny.dropped(), full.recorded() - 64);
  // The surviving window is the tail of the full timeline.
  const auto tail = full.events();
  const auto window = tiny.events();
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_TRUE(window[i] == tail[tail.size() - window.size() + i]) << i;
  }
  const std::string tinyTable =
      ipu::profileSummaryTable(tinyEngine->profile()).render();
  EXPECT_EQ(tinyTable,
            ipu::profileSummaryTable(fullEngine->profile()).render());
  EXPECT_NE(tinyTable.find("spmv"), std::string::npos) << tinyTable;
}

// The Chrome export is valid JSON for our own parser and round-trips
// structurally (dump → parse → dump fixed point).
TEST(TraceExport, ChromeJsonRoundTrips) {
  TracedSetup setup;
  TraceSink sink;
  setup.run(sink);

  json::Value doc = support::traceToChromeJson(sink);
  ASSERT_TRUE(doc.isObject());
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.isArray());
  EXPECT_GE(events.asArray().size(), sink.events().size());

  json::Value reparsed = json::parse(doc.dump(2));
  EXPECT_TRUE(reparsed == doc);
  EXPECT_EQ(reparsed.dump(), doc.dump());
}

// A seeded bitflip plan under recovery-enabled CG: the trace interleaves the
// injected fault and the solver's recovery restart into one ordered
// timeline, stamped with superstep indices.
TEST(TraceFaults, MergedOrderedFaultTimeline) {
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "seed": 5,
    "faults": [
      {"type": "bitflip", "tensor": "cg_resid", "bit": 30,
       "skip": 100, "count": 1}
    ]
  })");
  TracedSetup setup;
  TraceSink sink;
  auto engine = setup.run(sink, 1, &plan);

  ASSERT_EQ(sink.dropped(), 0u);
  const std::size_t faults = countKind(sink, TraceKind::Fault);
  const std::size_t recoveries = countKind(sink, TraceKind::Recovery);
  EXPECT_GE(faults, 1u);
  EXPECT_GE(recoveries, 1u);
  // Every profile fault-log entry was mirrored into the timeline.
  EXPECT_EQ(faults + recoveries, engine->profile().faultEvents.size());

  double lastStart = -1.0;
  bool sawFault = false, sawRecoveryAfterFault = false;
  for (const TraceEvent& ev : sink.events()) {
    EXPECT_GE(ev.startCycle, lastStart) << "timeline out of order at '"
                                        << ev.name << "'";
    lastStart = ev.startCycle;
    if (ev.kind == TraceKind::Fault) {
      sawFault = true;
      EXPECT_EQ(ev.name, "bitflip");
    }
    if (ev.kind == TraceKind::Recovery && sawFault) {
      sawRecoveryAfterFault = true;
      EXPECT_EQ(ev.name, "recovery:restart");
      EXPECT_GT(ev.superstep, 0u);
    }
  }
  EXPECT_TRUE(sawFault);
  EXPECT_TRUE(sawRecoveryAfterFault);

  // The restart also ticked the solver's metrics counter.
  EXPECT_GE(engine->profile().metrics.counter("cg.restarts"), 1.0);
}

// Profile::operator+= folds the new observability state: superstep stats
// add their sums and keep the globally worst superstep; metrics counters
// add, gauges take the newer value.
TEST(ProfileMerge, AccumulatesStragglerStatsAndMetrics) {
  ipu::Profile a, b;
  a.superstepStats["spmv"].record(/*superstep=*/0, /*min=*/10, /*mean=*/12,
                                  /*max=*/20, /*stragglerTile=*/3);
  b.superstepStats["spmv"].record(/*superstep=*/7, /*min=*/11, /*mean=*/13,
                                  /*max=*/50, /*stragglerTile=*/1);
  b.superstepStats["reduce"].record(/*superstep=*/8, /*min=*/1, /*mean=*/2,
                                    /*max=*/3, /*stragglerTile=*/0);
  a.metrics.addCounter("spmv.flops", 100);
  b.metrics.addCounter("spmv.flops", 50);
  a.metrics.setGauge("mem.peak", 1.0);
  b.metrics.setGauge("mem.peak", 2.0);

  a += b;
  const ipu::SuperstepStats& s = a.superstepStats.at("spmv");
  EXPECT_EQ(s.supersteps, 2u);
  EXPECT_DOUBLE_EQ(s.maxCycles, 70.0);
  EXPECT_DOUBLE_EQ(s.meanCycles, 25.0);
  EXPECT_DOUBLE_EQ(s.minCycles, 21.0);
  EXPECT_DOUBLE_EQ(s.worstCycles, 50.0);   // b's superstep was worse
  EXPECT_EQ(s.worstStragglerTile, 1u);
  EXPECT_EQ(s.worstSuperstep, 7u);
  EXPECT_EQ(a.superstepStats.count("reduce"), 1u);
  EXPECT_DOUBLE_EQ(a.metrics.counter("spmv.flops"), 150.0);
  EXPECT_DOUBLE_EQ(a.metrics.gauge("mem.peak"), 2.0);
}

// SuperstepStats::operator+= keeps the *strictly* worst superstep: on a
// tie in worstCycles the left side's straggler/superstep win, so merging
// per-attempt profiles is order-stable and deterministic.
TEST(ProfileMerge, SuperstepStatsTieKeepsLeft) {
  ipu::SuperstepStats a, b;
  a.record(/*superstep=*/2, /*min=*/5, /*mean=*/6, /*max=*/40,
           /*stragglerTile=*/7);
  b.record(/*superstep=*/9, /*min=*/5, /*mean=*/6, /*max=*/40,
           /*stragglerTile=*/1);

  ipu::SuperstepStats merged = a;
  merged += b;
  EXPECT_EQ(merged.supersteps, 2u);
  EXPECT_DOUBLE_EQ(merged.worstCycles, 40.0);
  EXPECT_EQ(merged.worstStragglerTile, 7u);  // tie → left side kept
  EXPECT_EQ(merged.worstSuperstep, 2u);

  // Strictly worse on the right does replace.
  ipu::SuperstepStats c;
  c.record(/*superstep=*/11, /*min=*/5, /*mean=*/6, /*max=*/41,
           /*stragglerTile=*/3);
  merged += c;
  EXPECT_DOUBLE_EQ(merged.worstCycles, 41.0);
  EXPECT_EQ(merged.worstStragglerTile, 3u);
  EXPECT_EQ(merged.worstSuperstep, 11u);
}

// Profile::operator+= with an empty fault log on either side and with
// categories the left has never seen: nothing is lost, nothing is
// double-counted.
TEST(ProfileMerge, EmptyFaultLogAndUnseenCategories) {
  ipu::Profile a, b;
  a.computeCycles["spmv"] = 100.0;
  a.faultEvents.push_back({"bitflip", 3, "resid", 5, 30, 0.0, ""});
  b.computeCycles["reduce"] = 7.0;  // category a has never seen
  ASSERT_TRUE(b.faultEvents.empty());

  a += b;
  EXPECT_DOUBLE_EQ(a.computeCycles.at("spmv"), 100.0);
  EXPECT_DOUBLE_EQ(a.computeCycles.at("reduce"), 7.0);
  ASSERT_EQ(a.faultEvents.size(), 1u);  // empty right adds nothing
  EXPECT_EQ(a.faultEvents[0].kind, "bitflip");

  // The mirror case: empty left absorbs the right's log verbatim.
  ipu::Profile c;
  ASSERT_TRUE(c.faultEvents.empty());
  c += a;
  ASSERT_EQ(c.faultEvents.size(), 1u);
  EXPECT_TRUE(c.faultEvents[0] == a.faultEvents[0]);
  EXPECT_DOUBLE_EQ(c.computeCycles.at("spmv"), 100.0);
  EXPECT_DOUBLE_EQ(c.computeCycles.at("reduce"), 7.0);
}

// Prometheus text exposition: names are sanitised onto the Prometheus
// charset, every family gets a TYPE line, and std::map iteration makes the
// output deterministic.
TEST(Metrics, PrometheusTextExposition) {
  support::MetricsRegistry metrics;
  metrics.addCounter("spmv.flops", 1234);
  metrics.addCounter("halo.bytes", 9);
  metrics.setGauge("mem.peak-used", 2.5);

  const std::string text = support::metricsToPrometheusText(metrics);
  EXPECT_EQ(text,
            "# TYPE graphene_halo_bytes counter\n"
            "graphene_halo_bytes 9\n"
            "# TYPE graphene_spmv_flops counter\n"
            "graphene_spmv_flops 1234\n"
            "# TYPE graphene_mem_peak_used gauge\n"
            "graphene_mem_peak_used 2.5\n");

  // Prefixless, and a name that starts with a digit gets escaped.
  support::MetricsRegistry odd;
  odd.addCounter("2fast", 1);
  const std::string oddText = support::metricsToPrometheusText(odd, "");
  EXPECT_EQ(oddText, "# TYPE _fast counter\n_fast 1\n");
}

// With no sink attached nothing is recorded and nothing breaks — the
// pay-for-what-you-use contract of every emission site.
TEST(TraceSinkApi, DetachedEngineRecordsNothing) {
  TracedSetup setup;
  graph::Engine engine(setup.ctx->graph(), 1);
  EXPECT_EQ(engine.traceSink(), nullptr);
  setup.A->upload(engine);
  setup.A->writeVector(engine, *setup.b, setup.rhs);
  engine.run(setup.ctx->program());
  EXPECT_EQ(setup.solver->result().status, SolveStatus::Converged);

  // recordIteration on a null sink is a safe no-op.
  support::recordIteration(nullptr, "cg", 1, 0.5, 0.0, 0);
}

// The registry is a shared mutable service surface: many worker threads
// tick counters while a metrics endpoint scrapes the Prometheus text. Every
// tick must land (no lost updates) and every scrape must be a consistent,
// parseable exposition — never a torn map.
TEST(Metrics, ConcurrentTicksAndPrometheusScrapes) {
  support::MetricsRegistry metrics;
  constexpr int kThreads = 4;
  constexpr int kTicks = 2000;

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&metrics, t] {
      for (int i = 0; i < kTicks; ++i) {
        metrics.addCounter("service.jobs.accepted", 1);
        metrics.addCounter("worker." + std::to_string(t) + ".ticks", 1);
        metrics.setGauge("service.queue.depth", static_cast<double>(i));
      }
    });
  }
  // Scrape concurrently with the writers the whole time.
  std::size_t scrapes = 0;
  while (scrapes < 50) {
    const std::string text = support::metricsToPrometheusText(metrics);
    EXPECT_TRUE(text.empty() || text.back() == '\n');
    ++scrapes;
  }
  for (auto& w : writers) w.join();

  EXPECT_EQ(metrics.counter("service.jobs.accepted"),
            static_cast<double>(kThreads * kTicks));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(metrics.counter("worker." + std::to_string(t) + ".ticks"),
              static_cast<double>(kTicks));
  }
  // The final exposition carries every family exactly once.
  const std::string text = support::metricsToPrometheusText(metrics);
  EXPECT_NE(text.find("graphene_service_jobs_accepted 8000\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE graphene_service_queue_depth gauge"),
            std::string::npos);
}

// Job lifecycle events and job-id stamping: recordJobEvent carries the
// stable id explicitly; setJobId stamps engine/solver events that carry
// none, so interleaved jobs through one sink stay attributable.
TEST(TraceJobs, JobEventsAndStamping) {
  TraceSink sink;
  support::recordJobEvent(&sink, "job:accepted", 7, 1.0);
  support::recordJobEvent(&sink, "job:done", 7, 2.0, "converged");
  support::recordJobEvent(nullptr, "job:noop", 1, 3.0);  // safe no-op

  // A leased-pipeline phase: events recorded while the stamp is set belong
  // to job 9, even though the emission sites know nothing about jobs.
  sink.setJobId(9);
  support::recordIteration(&sink, "cg", 1, 0.5, 100.0, 4);
  sink.setJobId(SIZE_MAX);
  support::recordIteration(&sink, "cg", 2, 0.25, 200.0, 5);  // anonymous

  EXPECT_EQ(countKind(sink, TraceKind::Job), 2u);
  const auto events = sink.events();
  std::set<std::size_t> jobsSeen;
  for (const TraceEvent& ev : events) {
    if (ev.jobId != SIZE_MAX) jobsSeen.insert(ev.jobId);
  }
  EXPECT_EQ(jobsSeen, (std::set<std::size_t>{7, 9}));

  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, TraceKind::Job);
  EXPECT_EQ(events[0].jobId, 7u);
  EXPECT_EQ(events[1].detail, "converged");
  EXPECT_EQ(events[2].jobId, 9u);
  EXPECT_EQ(events[3].jobId, SIZE_MAX);  // un-stamped stays anonymous

  // clear() empties the ring but keeps the configured stamp: it is the
  // sink's configuration, not recorded state.
  sink.setJobId(4);
  sink.clear();
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.events().empty());
  support::recordIteration(&sink, "cg", 3, 0.125, 300.0, 6);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].jobId, 4u);
}

// The Chrome export groups the merged timeline by job: each job becomes its
// own process (pid = jobId + 1, 0 for anonymous events) with a readable
// process_name, so concurrent solves render as parallel lanes.
TEST(TraceJobs, ChromeJsonGroupsByJob) {
  TraceSink sink;
  support::recordJobEvent(&sink, "job:start", 3, 1.0);
  sink.setJobId(3);
  support::recordIteration(&sink, "cg", 0, 1.0, 10.0, 0);
  sink.setJobId(12);
  support::recordIteration(&sink, "bicgstab", 0, 0.9, 10.0, 0);
  sink.setJobId(SIZE_MAX);

  const json::Value doc = support::traceToChromeJson(sink);
  const auto& events = doc.at("traceEvents").asArray();

  std::set<double> pids;
  std::map<double, std::string> processNames;
  for (const auto& ev : events) {
    const double pid = ev.at("pid").asNumber();
    pids.insert(pid);
    if (ev.at("name").asString() == "process_name") {
      processNames[pid] =
          ev.at("args").at("name").asString();
    }
  }
  // Jobs 3 and 12 → pids 4 and 13; nothing anonymous was recorded except
  // metadata for pid 0 is absent.
  EXPECT_TRUE(pids.count(4.0));
  EXPECT_TRUE(pids.count(13.0));
  EXPECT_EQ(processNames[4.0], "job 3");
  EXPECT_EQ(processNames[13.0], "job 12");

  // Stamped payload events carry the id in args too.
  bool sawStampedIteration = false;
  for (const auto& ev : events) {
    if (ev.at("name").asString() == "cg" && ev.contains("args") &&
        ev.at("args").contains("jobId")) {
      EXPECT_EQ(ev.at("args").at("jobId").asNumber(), 3.0);
      sawStampedIteration = true;
    }
  }
  EXPECT_TRUE(sawStampedIteration);

  // One process lane per distinct job, and none for anonymous events.
  EXPECT_EQ(processNames.size(), 2u);
}

// ---- Histograms --------------------------------------------------------

// The ladder places values by multiply-and-compare (no libm), so bucket
// indices are bit-deterministic across hosts: a value on a bound goes to
// that bound's bucket (le is inclusive, the Prometheus convention).
TEST(Histogram, LadderBucketPlacement) {
  support::HistogramLadder ladder{1.0, 2.0, 4};  // bounds 1 2 4 8, +Inf
  EXPECT_EQ(ladder.bucketFor(0.5), 0u);
  EXPECT_EQ(ladder.bucketFor(1.0), 0u);  // on the bound: inclusive
  EXPECT_EQ(ladder.bucketFor(1.5), 1u);
  EXPECT_EQ(ladder.bucketFor(8.0), 3u);
  EXPECT_EQ(ladder.bucketFor(8.1), 4u);  // +Inf bucket
  EXPECT_EQ(ladder.upperBound(2), 4.0);
  EXPECT_TRUE(std::isinf(ladder.upperBound(4)));
}

TEST(Histogram, ObserveSumCountAndQuantile) {
  support::Histogram h(support::HistogramLadder{1.0, 2.0, 8});
  for (double v : {0.5, 1.5, 3.0, 3.5, 6.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.sum, 114.5);
  // Quantiles interpolate within the covering bucket; q=0 sits in the
  // first non-empty one, q=1 in the last (clamped to a finite bound for
  // the +Inf bucket).
  EXPECT_GT(h.quantile(0.5), 1.0);
  EXPECT_LE(h.quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 128.0);  // +Inf clamps to last bound
  EXPECT_EQ(support::Histogram{}.quantile(0.5), 0.0);  // empty → 0
}

// Merging histograms (Profile::operator+= across engine shards / pod
// chips) is integer bucket addition: the merged result is identical no
// matter how observations were distributed — the determinism contract at
// any host thread count.
TEST(Histogram, MergeIsOrderAndShardingInvariant) {
  const support::HistogramLadder ladder{1.0, 2.0, 10};
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(0.3 * i);

  support::Histogram all(ladder);
  for (double v : samples) all.observe(v);

  support::Histogram shards[8] = {
      support::Histogram(ladder), support::Histogram(ladder),
      support::Histogram(ladder), support::Histogram(ladder),
      support::Histogram(ladder), support::Histogram(ladder),
      support::Histogram(ladder), support::Histogram(ladder)};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    shards[i % 8].observe(samples[i]);
  }
  support::Histogram merged(ladder);
  for (int s = 7; s >= 0; --s) merged += shards[s];  // any order
  EXPECT_TRUE(merged == all);
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), all.quantile(0.99));
}

TEST(Metrics, RegistryHistogramsMergeAndCopy) {
  support::MetricsRegistry a, b;
  a.observe("lat", 3.0, support::HistogramLadder{1.0, 2.0, 4});
  b.observe("lat", 900.0, support::HistogramLadder{1.0, 2.0, 4});
  b.observe("other", 1.0);
  a += b;
  EXPECT_EQ(a.histogram("lat").count, 2u);
  EXPECT_DOUBLE_EQ(a.histogram("lat").sum, 903.0);
  EXPECT_EQ(a.histogram("other").count, 1u);
  support::MetricsRegistry c = a;  // deep copy
  c.observe("lat", 1.0);
  EXPECT_EQ(a.histogram("lat").count, 2u);
  EXPECT_EQ(c.histogram("lat").count, 3u);
}

// Exposition-format regression: # HELP lines come from the help registry,
// histograms emit the cumulative _bucket series plus _sum/_count. Pinned
// byte-for-byte — Prometheus parsers are strict and so is this test.
TEST(Metrics, PrometheusTextWithHelpAndHistogram) {
  support::MetricsRegistry metrics;
  metrics.addCounter("jobs.done", 3);
  metrics.setHelp("jobs.done", "Terminal jobs.");
  metrics.observe("lat.ms", 0.5, support::HistogramLadder{1.0, 2.0, 3});
  metrics.observe("lat.ms", 3.0, support::HistogramLadder{1.0, 2.0, 3});
  metrics.observe("lat.ms", 100.0, support::HistogramLadder{1.0, 2.0, 3});
  metrics.setHelp("lat.ms", "Latency in milliseconds.");

  const std::string text = support::metricsToPrometheusText(metrics);
  EXPECT_EQ(text,
            "# HELP graphene_jobs_done Terminal jobs.\n"
            "# TYPE graphene_jobs_done counter\n"
            "graphene_jobs_done 3\n"
            "# HELP graphene_lat_ms Latency in milliseconds.\n"
            "# TYPE graphene_lat_ms histogram\n"
            "graphene_lat_ms_bucket{le=\"1\"} 1\n"
            "graphene_lat_ms_bucket{le=\"2\"} 1\n"
            "graphene_lat_ms_bucket{le=\"4\"} 2\n"
            "graphene_lat_ms_bucket{le=\"+Inf\"} 3\n"
            "graphene_lat_ms_sum 103.5\n"
            "graphene_lat_ms_count 3\n");
}
