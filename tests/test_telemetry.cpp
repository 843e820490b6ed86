// The live telemetry plane — embedded HTTP endpoint, flight recorder,
// structured JSONL log.
//
// Covers: HttpServer lifecycle (ephemeral bind, handler dispatch, thrown
// handler exceptions contained as 500s, deterministic stop/restart);
// LogSink line discipline (monotonic seq, reserved keys protected from
// field overrides); the FlightRecorder ring (bounded per-job buffer,
// oldest-first wrap with an honest droppedEvents count, retention
// eviction, seal-returns-record even at retention 0) and its JSONL
// black-box artifact; the service's live endpoints (/metrics with # HELP
// and _bucket series, /healthz, /jobs, /flight/<id>, 404s); a job's flight
// record holding its own lifecycle events and no pipeline events; the
// automatic flight dump on failed and typed-error verdicts; concurrent scrapes
// racing a fault-injected job burst (the TSan target of this suite); and
// host-thread invariance of the latency histograms (the simulated-cycle
// ladders must be bit-identical at any host thread count — only the
// wall-clock families may differ).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graphene.hpp"
#include "support/http_server.hpp"
#include "support/log_sink.hpp"

using namespace graphene;
using namespace graphene::solver;

namespace {

json::Value cgConfig() {
  return json::parse(R"({"type": "cg", "tolerance": 1e-6,
                         "maxIterations": 200})");
}

/// Corrupts the residual on every superstep — outlasts the retry budget,
/// so the job deterministically ends failed (see test_service.cpp).
json::Value poisonPlan() {
  return json::parse(R"({"seed": 7, "faults": [
    {"type": "bitflip", "tensor": "resid", "bit": 30,
     "probability": 1.0, "count": 100000, "skip": 0}]})");
}

std::vector<double> ones(std::size_t n) {
  return std::vector<double>(n, 1.0);
}

/// A matrix the pipeline cannot build (zero diagonal) — the typed-error
/// path of the service.
matrix::GeneratedMatrix zeroDiagonal() {
  matrix::GeneratedMatrix bad;
  bad.name = "zero-diagonal";
  bad.matrix = matrix::CsrMatrix::fromTriplets(
      4, 4,
      {{0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 2.0},
       {1, 2, -1.0}, {2, 1, -1.0}, {2, 3, -1.0},
       {3, 2, -1.0}, {3, 3, 2.0}});
  return bad;
}

support::TraceEvent namedEvent(const std::string& name, double seq) {
  support::TraceEvent ev;
  ev.kind = support::TraceKind::Job;
  ev.name = name;
  ev.startCycle = seq;
  return ev;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// First line of a JSONL blob, parsed.
json::Value firstLine(const std::string& jsonl) {
  return json::parse(jsonl.substr(0, jsonl.find('\n')));
}

}  // namespace

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

TEST(HttpServer, EphemeralBindServeStopRestart) {
  support::HttpServer server;
  EXPECT_EQ(server.port(), 0);
  EXPECT_FALSE(server.running());

  server.start(0, [](const std::string& path) {
    return support::HttpServer::Response{200, "text/plain", "echo:" + path};
  });
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const auto r = support::httpGet(server.port(), "/hello");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "echo:/hello");
  EXPECT_GE(server.requestsServed(), 1u);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent

  // start() after stop() opens a fresh listener (possibly a new port).
  server.start(0, [](const std::string&) {
    return support::HttpServer::Response{204, "text/plain", ""};
  });
  EXPECT_EQ(support::httpGet(server.port(), "/").status, 204);
  server.stop();
}

TEST(HttpServer, HandlerExceptionBecomesA500) {
  support::HttpServer server;
  server.start(0, [](const std::string& path) -> support::HttpServer::Response {
    if (path == "/boom") throw Error("handler exploded");
    return {404, "text/plain", "no such endpoint\n"};
  });
  const auto boom = support::httpGet(server.port(), "/boom");
  EXPECT_EQ(boom.status, 500);
  EXPECT_NE(boom.body.find("handler exploded"), std::string::npos);
  // ... and the accept thread survived to serve the next request.
  EXPECT_EQ(support::httpGet(server.port(), "/other").status, 404);
  server.stop();
}

// ---------------------------------------------------------------------------
// LogSink
// ---------------------------------------------------------------------------

TEST(LogSink, LinesAreSequencedAndReservedKeysProtected) {
  std::ostringstream os;
  support::LogSink sink(os);
  sink.log("service:start");
  sink.log("job:retry", 4, {{"detail", json::Value("nan-detected")}});
  // A field may not override the reserved keys.
  sink.log("job:done", 5,
           {{"seq", json::Value(999.0)}, {"event", json::Value("forged")},
            {"verdict", json::Value("converged")}});
  EXPECT_EQ(sink.written(), 3u);

  std::vector<json::Value> lines;
  std::istringstream in(os.str());
  for (std::string line; std::getline(in, line);) {
    lines.push_back(json::parse(line));
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].at("event").asString(), "service:start");
  EXPECT_FALSE(lines[0].contains("jobId"));
  EXPECT_EQ(lines[1].at("jobId").asNumber(), 4.0);
  EXPECT_EQ(lines[1].at("detail").asString(), "nan-detected");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].at("seq").asNumber(), static_cast<double>(i));
  }
  EXPECT_EQ(lines[2].at("event").asString(), "job:done");
  EXPECT_EQ(lines[2].at("verdict").asString(), "converged");
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingWrapsOldestFirstAndCountsDrops) {
  FlightRecorder fr(/*retainJobs=*/4, /*eventCapacity=*/4);
  fr.open(7);
  for (int i = 0; i < 10; ++i) {
    fr.record(7, namedEvent("ev" + std::to_string(i), i));
  }
  const auto rec = fr.record(7);
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->events.size(), 4u);
  EXPECT_EQ(rec->droppedEvents, 6u);
  // Oldest-first after the wrap: the last four recorded survive, in order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rec->events[i].name, "ev" + std::to_string(6 + i));
  }
  // Events for never-opened jobs are ignored, not fatal.
  fr.record(999, namedEvent("ghost", 0));
  EXPECT_FALSE(fr.record(999).has_value());
}

TEST(FlightRecorder, SealRetainsBoundedAndReturnsTheRecord) {
  FlightRecorder fr(/*retainJobs=*/2, /*eventCapacity=*/8);
  for (std::size_t id : {1u, 2u, 3u}) {
    fr.open(id);
    fr.record(id, namedEvent("job:start", 1));
    FlightRecord header;
    header.jobId = id;
    header.verdict = "converged";
    header.attempts = 1;
    const FlightRecord sealed = fr.seal(id, std::move(header));
    EXPECT_EQ(sealed.jobId, id);
    EXPECT_EQ(sealed.events.size(), 1u);
  }
  // Retention 2: job 1 was evicted, oldest first.
  EXPECT_EQ(fr.sealedJobs(), (std::vector<std::size_t>{2, 3}));
  EXPECT_FALSE(fr.record(1).has_value());
  ASSERT_TRUE(fr.record(3).has_value());
  EXPECT_EQ(fr.record(3)->verdict, "converged");

  // Retention 0 keeps nothing — but seal still hands the record back, so
  // a dump-on-failure works with retention disabled.
  FlightRecorder none(/*retainJobs=*/0, /*eventCapacity=*/8);
  none.open(9);
  none.record(9, namedEvent("job:start", 1));
  FlightRecord header;
  header.jobId = 9;
  header.verdict = "typed-error";
  const FlightRecord sealed = none.seal(9, std::move(header));
  EXPECT_EQ(sealed.verdict, "typed-error");
  EXPECT_EQ(sealed.events.size(), 1u);
  EXPECT_TRUE(none.sealedJobs().empty());
}

TEST(FlightRecorder, JsonlArtifactIsDeterministicAndSelfDescribing) {
  FlightRecord rec;
  rec.jobId = 12;
  rec.verdict = "nan-detected";
  rec.message = "NaN in residual";
  rec.attempts = 3;
  rec.degraded = true;
  rec.simCycles = 5e6;
  rec.structureFingerprint = 111;
  rec.configFingerprint = 222;
  rec.topologyFingerprint = 333;
  rec.solverConfig = R"({"type":"cg"})";
  rec.events.push_back(namedEvent("job:start", 1));
  rec.events.push_back(namedEvent("job:retry", 2));
  rec.droppedEvents = 5;

  const std::string jsonl = flightRecordToJsonl(rec);
  EXPECT_EQ(jsonl, flightRecordToJsonl(rec));  // same record, same bytes

  std::vector<json::Value> lines;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(json::parse(line));
  }
  // Header + two trace lines + health line.
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0].at("type").asString(), "job");
  EXPECT_EQ(lines[0].at("jobId").asNumber(), 12.0);
  EXPECT_EQ(lines[0].at("verdict").asString(), "nan-detected");
  EXPECT_EQ(lines[0].at("attempts").asNumber(), 3.0);
  EXPECT_EQ(lines[0].at("droppedEvents").asNumber(), 5.0);
  EXPECT_EQ(lines[1].at("type").asString(), "trace");
  EXPECT_EQ(lines[1].at("name").asString(), "job:start");
  EXPECT_EQ(lines[2].at("name").asString(), "job:retry");

  // dumpFlightRecord writes the same bytes as flight-job<id>.jsonl.
  const std::string dir = ::testing::TempDir();
  const std::string path = dumpFlightRecord(rec, dir);
  EXPECT_NE(path.find("flight-job12.jsonl"), std::string::npos);
  EXPECT_EQ(slurp(path), jsonl);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Service endpoints
// ---------------------------------------------------------------------------

TEST(ServiceTelemetry, EndpointsServeLiveData) {
  ServiceOptions options{.workers = 2, .tiles = 4};
  options.metricsPort = 0;  // ephemeral
  options.retry = {.maxRetries = 1, .backoffBaseMs = 0.0, .backoffMaxMs = 0.0,
                   .jitter = 0.0};
  SolverService service(std::move(options));
  ASSERT_GT(service.httpPort(), 0);

  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();
  std::vector<std::size_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(service.submit(g, cgConfig(), ones(n)));
  }
  SolveJobOptions faulted;
  faulted.faultPlan = poisonPlan();
  ids.push_back(service.submit(g, cgConfig(), ones(n), std::move(faulted)));
  for (std::size_t id : ids) (void)service.wait(id);

  // /metrics: the Prometheus exposition with help and histogram series.
  const auto metrics = support::httpGet(service.httpPort(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.contentType.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("# HELP graphene_service_jobs_accepted"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("_bucket{le=\""), std::string::npos);
  EXPECT_NE(metrics.body.find(
                "graphene_service_latency_cycles_converged_count"),
            std::string::npos);

  // /healthz: topology + breaker snapshot, valid JSON.
  const auto healthz = support::httpGet(service.httpPort(), "/healthz");
  EXPECT_EQ(healthz.status, 200);
  const json::Value health = json::parse(healthz.body);
  EXPECT_EQ(health.at("status").asString(), "ok");
  EXPECT_EQ(health.at("topology").at("aliveIpus").asNumber(),
            health.at("topology").at("ipus").asNumber());

  // /jobs: one row per retained job, terminal rows carry their verdict.
  const auto jobs = support::httpGet(service.httpPort(), "/jobs");
  EXPECT_EQ(jobs.status, 200);
  const json::Value jobsDoc = json::parse(jobs.body);
  const auto& rows = jobsDoc.at("jobs").asArray();
  ASSERT_EQ(rows.size(), ids.size());
  std::size_t converged = 0, failed = 0;
  for (const auto& row : rows) {
    EXPECT_EQ(row.at("phase").asString(), "done");
    const std::string verdict = row.at("verdict").asString();
    (verdict == "converged" ? converged : failed) += 1;
  }
  EXPECT_EQ(converged, 3u);
  EXPECT_EQ(failed, 1u);

  // /flight/<id>: the black-box JSONL of a retained job.
  const auto flight = support::httpGet(
      service.httpPort(), "/flight/" + std::to_string(ids.front()));
  EXPECT_EQ(flight.status, 200);
  EXPECT_NE(flight.contentType.find("ndjson"), std::string::npos);
  const json::Value head = firstLine(flight.body);
  EXPECT_EQ(head.at("type").asString(), "job");
  EXPECT_EQ(head.at("jobId").asNumber(),
            static_cast<double>(ids.front()));
  EXPECT_EQ(head.at("verdict").asString(), "converged");

  EXPECT_EQ(support::httpGet(service.httpPort(), "/flight/999999").status,
            404);
  EXPECT_EQ(support::httpGet(service.httpPort(), "/flight/abc").status, 404);
  EXPECT_EQ(support::httpGet(service.httpPort(), "/nope").status, 404);

  // Shutdown closes the listener deterministically.
  service.shutdown();
  EXPECT_THROW(support::httpGet(service.httpPort(), "/metrics", 0.5), Error);
}

// A converged job's record is its own lifecycle and nothing else: the
// pipeline's supersteps stay in the pipeline's trace ring, so the record's
// ring never overflows and keeps the job's first event.
TEST(ServiceTelemetry, ConvergedJobFlightRecordHoldsOnlyItsLifecycle) {
  SolverService service({.workers = 1});
  const auto g = matrix::poisson2d5(40, 40);
  const std::size_t id = service.submit(g, json::parse(R"({
    "type": "cg", "tolerance": 1e-6, "maxIterations": 2000,
    "preconditioner": {"type": "jacobi"}})"), ones(g.matrix.rows()));
  ASSERT_EQ(service.wait(id).solve.status, SolveStatus::Converged);

  const std::optional<FlightRecord> rec = service.flightRecorder().record(id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->droppedEvents, 0u);
  std::set<std::string> names;
  std::size_t pipelineEvents = 0;  // compute, sync, exchange, iteration, ...
  for (const support::TraceEvent& ev : rec->events) {
    names.insert(ev.name);
    pipelineEvents += ev.kind == support::TraceKind::Job ? 0 : 1;
  }
  EXPECT_EQ(pipelineEvents, 0u);
  EXPECT_TRUE(names.count("job:accepted"));
  EXPECT_TRUE(names.count("job:start"));
  EXPECT_TRUE(names.count("job:done"));
  EXPECT_EQ(rec->events.front().name, "job:accepted");
  EXPECT_EQ(rec->events.back().name, "job:done");
}

TEST(ServiceTelemetry, FailedAndTypedJobsDumpFlightArtifacts) {
  const std::string dir = ::testing::TempDir();
  const std::string logPath = dir + "/telemetry-events.jsonl";
  ServiceOptions options{.workers = 1, .tiles = 4};
  options.retry = {.maxRetries = 1, .backoffBaseMs = 0.0, .backoffMaxMs = 0.0,
                   .jitter = 0.0};
  options.flightDir = dir;
  options.logPath = logPath;
  SolverService service(std::move(options));

  // A retry-exhausting fault plan → failed verdict → automatic dump.
  SolveJobOptions faulted;
  faulted.faultPlan = poisonPlan();
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t failedId =
      service.submit(g, cgConfig(), ones(g.matrix.rows()),
                     std::move(faulted));
  const JobResult failedResult = service.wait(failedId);
  ASSERT_NE(failedResult.solve.status, SolveStatus::Converged);

  const std::string failedPath =
      dir + "/flight-job" + std::to_string(failedId) + ".jsonl";
  const std::string failedJsonl = slurp(failedPath);
  ASSERT_FALSE(failedJsonl.empty()) << "no dump at " << failedPath;
  const json::Value failedHead = firstLine(failedJsonl);
  EXPECT_EQ(failedHead.at("verdict").asString(),
            std::string(toString(failedResult.solve.status)));
  EXPECT_GT(failedHead.at("attempts").asNumber(), 1.0);
  // Fingerprints are 64-bit and serialised as decimal strings (JSON
  // numbers are doubles — they would silently round).
  EXPECT_NE(failedHead.at("structureFingerprint").asString(), "0");
  // The record holds the job's whole lifecycle, first event to last, and
  // the final attempt's fault log: the injected faults live in the fault
  // log, not in the event ring.
  EXPECT_NE(failedJsonl.find("\"name\":\"job:accepted\""),
            std::string::npos);
  EXPECT_NE(failedJsonl.find("\"name\":\"job:retry\""), std::string::npos);
  EXPECT_NE(failedJsonl.find("\"name\":\"job:done\""), std::string::npos);
  EXPECT_NE(failedJsonl.find("\"type\":\"fault\""), std::string::npos);

  // A build failure (typed error) dumps too.
  const std::size_t typedId =
      service.submit(zeroDiagonal(), cgConfig(), ones(4));
  ASSERT_TRUE(service.wait(typedId).typedError);
  const std::string typedJsonl =
      slurp(dir + "/flight-job" + std::to_string(typedId) + ".jsonl");
  ASSERT_FALSE(typedJsonl.empty());
  EXPECT_EQ(firstLine(typedJsonl).at("verdict").asString(), "typed-error");

  // A healthy job does not dump.
  const std::size_t okId = service.submit(g, cgConfig(),
                                          ones(g.matrix.rows()));
  ASSERT_EQ(service.wait(okId).solve.status, SolveStatus::Converged);
  EXPECT_TRUE(
      slurp(dir + "/flight-job" + std::to_string(okId) + ".jsonl").empty());

  service.shutdown();

  // The structured log joins on the same event names and job ids.
  const std::string log = slurp(logPath);
  EXPECT_NE(log.find("\"event\":\"service:start\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"job:flight-dumped\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"service:shutdown\""), std::string::npos);

  std::remove(failedPath.c_str());
  std::remove((dir + "/flight-job" + std::to_string(typedId) + ".jsonl")
                  .c_str());
  std::remove(logPath.c_str());
}

// The TSan target of this suite: scrapers hammer /metrics and /jobs while
// fault-injected jobs churn through retries, degradation and failure.
TEST(ServiceTelemetry, ConcurrentScrapesRaceAFaultInjectedBurst) {
  ServiceOptions options{.workers = 2, .tiles = 4};
  options.metricsPort = 0;
  options.retry = {.maxRetries = 1, .backoffBaseMs = 0.0, .backoffMaxMs = 0.0,
                   .jitter = 0.0};
  options.breaker = {.failuresToOpen = 1000000};
  SolverService service(std::move(options));
  const std::uint16_t port = service.httpPort();

  std::atomic<bool> done{false};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      const std::string path = t == 0 ? "/metrics" : t == 1 ? "/jobs"
                                                            : "/healthz";
      while (!done.load(std::memory_order_acquire)) {
        const auto r = support::httpGet(port, path);
        EXPECT_EQ(r.status, 200);
        if (path != "/metrics") (void)json::parse(r.body);
      }
    });
  }

  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();
  std::vector<std::size_t> ids;
  for (int i = 0; i < 12; ++i) {
    SolveJobOptions jobOptions;
    if (i % 3 != 0) jobOptions.faultPlan = poisonPlan();  // 8 faulted
    ids.push_back(
        service.submit(g, cgConfig(), ones(n), std::move(jobOptions)));
  }
  std::size_t converged = 0, failed = 0;
  for (std::size_t id : ids) {
    const JobResult r = service.wait(id);
    (r.solve.status == SolveStatus::Converged ? converged : failed) += 1;
  }
  done.store(true, std::memory_order_release);
  for (auto& s : scrapers) s.join();

  EXPECT_EQ(converged, 4u);
  EXPECT_EQ(failed, 8u);
  // The final exposition reflects every terminal job.
  const auto metrics = support::httpGet(port, "/metrics");
  EXPECT_NE(metrics.body.find("graphene_service_jobs_failed 8"),
            std::string::npos);
  service.shutdown();
}

// ---------------------------------------------------------------------------
// Histogram determinism across host thread counts
// ---------------------------------------------------------------------------

TEST(ServiceTelemetry, LatencyHistogramsAreHostThreadInvariant) {
  const auto runBurst = [](std::size_t hostThreads) {
    ServiceOptions options{.workers = 2, .tiles = 4};
    options.hostThreads = hostThreads;
    options.retry = {.maxRetries = 1, .backoffBaseMs = 0.0,
                     .backoffMaxMs = 0.0, .jitter = 0.0};
    options.breaker = {.failuresToOpen = 1000000};
    SolverService service(std::move(options));
    const auto g = matrix::poisson2d5(8, 8);
    const std::size_t n = g.matrix.rows();
    std::vector<std::size_t> ids;
    for (int i = 0; i < 6; ++i) {
      SolveJobOptions jobOptions;
      if (i % 3 == 1) jobOptions.faultPlan = poisonPlan();
      ids.push_back(
          service.submit(g, cgConfig(), ones(n), std::move(jobOptions)));
    }
    for (std::size_t id : ids) (void)service.wait(id);
    return service.metrics().snapshot();
  };

  const auto one = runBurst(1);
  const auto eight = runBurst(8);

  // Every simulated-cycle ladder is bit-identical; only wall-clock
  // families (wall_ms, queue_wait) may differ across host thread counts.
  std::size_t compared = 0;
  for (const auto& [name, hist] : one.histograms()) {
    if (name.find("wall_ms") != std::string::npos) continue;
    if (name.find("queue_wait") != std::string::npos) continue;
    EXPECT_EQ(hist, eight.histogram(name)) << name;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
  EXPECT_TRUE(one.histogram("service.latency.cycles.converged").count > 0);
  EXPECT_EQ(one.counter("service.jobs.retried"),
            eight.counter("service.jobs.retried"));
}
