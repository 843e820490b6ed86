// SolverService implementation: the worker loop, the retry/degradation
// ladder, admission control, the circuit breaker and the plan-cache
// choreography documented in the header.
#include "solver/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "support/error.hpp"

namespace graphene::solver {

using json::countOr;
using json::KeyKind;
using json::validateKeys;

namespace {

/// Worst-case wall milliseconds the retry ladder can spend sleeping.
double worstCaseBackoffMs(const RetryPolicy& r) {
  double total = 0, step = r.backoffBaseMs;
  for (std::size_t i = 0; i < r.maxRetries; ++i) {
    total += std::min(step, r.backoffMaxMs) * (1.0 + r.jitter);
    step *= r.backoffFactor;
  }
  return total;
}

/// Validates every knob by name with its valid range — a bad policy should
/// fail at construction, not as a wedged queue or an instant-expiring
/// deadline at serving time.
void validateOptions(const ServiceOptions& o) {
  GRAPHENE_CHECK(o.workers >= 1, "service.workers must be >= 1 (got ",
                 o.workers, ")");
  GRAPHENE_CHECK(o.tiles >= 1, "service.tiles must be >= 1 (got ", o.tiles,
                 ")");
  GRAPHENE_CHECK(o.metricsPort >= -1 && o.metricsPort <= 65535,
                 "service.metricsPort must be -1 (disabled) or a TCP port "
                 "in [0, 65535], 0 = ephemeral (got ", o.metricsPort, ")");
  GRAPHENE_CHECK(o.flightEventCapacity >= 1,
                 "service.flightEventCapacity must be >= 1 (got ",
                 o.flightEventCapacity, ")");
  GRAPHENE_CHECK(o.defaultDeadlineCycles >= 0,
                 "service.defaultDeadlineCycles must be >= 0 cycles, 0 = no "
                 "deadline (got ", o.defaultDeadlineCycles, ")");
  GRAPHENE_CHECK(o.defaultDeadlineSeconds >= 0,
                 "service.defaultDeadlineSeconds must be >= 0 seconds, 0 = "
                 "no deadline (got ", o.defaultDeadlineSeconds, ")");
  GRAPHENE_CHECK(o.retry.backoffFactor >= 1.0,
                 "service.retry.backoffFactor must be >= 1 (got ",
                 o.retry.backoffFactor,
                 "); factors below 1 would shrink the backoff");
  GRAPHENE_CHECK(o.retry.backoffBaseMs >= 0,
                 "service.retry.backoffBaseMs must be >= 0 ms (got ",
                 o.retry.backoffBaseMs, ")");
  GRAPHENE_CHECK(o.retry.backoffMaxMs >= o.retry.backoffBaseMs,
                 "service.retry.backoffMaxMs (", o.retry.backoffMaxMs,
                 ") must be >= service.retry.backoffBaseMs (",
                 o.retry.backoffBaseMs, ")");
  GRAPHENE_CHECK(o.retry.jitter >= 0 && o.retry.jitter < 1,
                 "service.retry.jitter must be in [0, 1) (got ",
                 o.retry.jitter, ")");
  GRAPHENE_CHECK(o.admission.maxQueueDepth >= 1,
                 "service.admission.maxQueueDepth must be >= 1 (got ",
                 o.admission.maxQueueDepth, ")");
  GRAPHENE_CHECK(o.admission.headroom > 0 && o.admission.headroom <= 1,
                 "service.admission.headroom must be in (0, 1] (got ",
                 o.admission.headroom, ")");
  GRAPHENE_CHECK(o.breaker.failuresToOpen >= 1,
                 "service.breaker.failuresToOpen must be >= 1 (got ",
                 o.breaker.failuresToOpen, ")");
  GRAPHENE_CHECK(o.breaker.openForJobs >= 1,
                 "service.breaker.openForJobs must be >= 1 (got ",
                 o.breaker.openForJobs, ")");
  GRAPHENE_CHECK(o.degradation.toleranceRelaxFactor >= 1.0,
                 "service.degradation.toleranceRelaxFactor must be >= 1 "
                 "(got ", o.degradation.toleranceRelaxFactor, ")");
  if (o.defaultDeadlineSeconds > 0) {
    const double worst = worstCaseBackoffMs(o.retry);
    GRAPHENE_CHECK(
        worst < o.defaultDeadlineSeconds * 1000.0,
        "service.retry budget exceeds the deadline: ", o.retry.maxRetries,
        " retries back off up to ", worst,
        " ms worst-case, but service.defaultDeadlineSeconds is ",
        o.defaultDeadlineSeconds,
        " s — a job would spend its whole deadline sleeping; lower "
        "retry.maxRetries/backoff or raise the deadline");
  }
}

/// A verdict the retry ladder may take another shot at: transient numerical
/// damage, not a property of the problem.
bool isRetryable(SolveStatus s) {
  switch (s) {
    case SolveStatus::NanDetected:
    case SolveStatus::CorruptionDetected:
    case SolveStatus::Breakdown:
    case SolveStatus::Diverged:
      return true;
    default:
      return false;
  }
}

/// Counts toward the circuit breaker: the job ended in damage, with its
/// retry budget spent. Deadline/cancel verdicts say nothing about the
/// matrix and stay neutral.
bool isBreakerFailure(const JobResult& r) {
  return r.typedError || isRetryable(r.solve.status);
}

/// Deterministic jitter fraction in [0, 1) from (jobId, attempt).
double jitterFraction(std::size_t jobId, std::size_t attempt) {
  std::uint64_t bits[2] = {static_cast<std::uint64_t>(jobId),
                           static_cast<std::uint64_t>(attempt)};
  const std::uint64_t h = fnv1aBytes(bits, sizeof bits);
  return static_cast<double>(h >> 11) / 9007199254740992.0;  // 2^53
}

/// The degraded configuration of the final attempt: relaxed tolerances and
/// (recursively) CG swapped for the more fault-robust BiCGStab.
void degradeConfigInPlace(json::Value& v, const DegradationPolicy& d) {
  if (!v.isObject()) return;
  json::Object& o = v.asObject();
  auto type = o.find("type");
  if (d.cgToBicgstab && type != o.end() && type->second.isString() &&
      type->second.asString() == "cg") {
    o["type"] = "bicgstab";
    // Keep only the keys a BiCGStab config accepts: CG's own ("pipelined",
    // "reduction", "residualReplaceEvery") would fail the degraded build.
    std::erase_if(o, [](const auto& entry) {
      for (const char* key : {"type", "maxIterations", "tolerance",
                              "preconditioner", "robustness"}) {
        if (entry.first == key) return false;
      }
      return true;
    });
  }
  auto tol = o.find("tolerance");
  if (d.toleranceRelaxFactor > 1.0 && tol != o.end() &&
      tol->second.isNumber() && tol->second.asNumber() > 0) {
    o["tolerance"] = tol->second.asNumber() * d.toleranceRelaxFactor;
  }
  for (const char* nested : {"inner", "preconditioner"}) {
    auto it = o.find(nested);
    if (it != o.end()) degradeConfigInPlace(it->second, d);
  }
}

// Bucket ladders of the service histograms. Fixed at these values so
// exposition output and merged profiles are comparable across runs;
// powers of two keep the bounds exact in binary.
constexpr support::HistogramLadder kCyclesLadder{1024.0, 2.0, 24};
constexpr support::HistogramLadder kMsLadder{0.25, 2.0, 20};
constexpr support::HistogramLadder kIterLadder{1.0, 2.0, 16};
constexpr support::HistogramLadder kRetryLadder{1.0, 2.0, 6};

}  // namespace

ServiceOptions serviceOptionsFromJson(const json::Value& config) {
  GRAPHENE_CHECK(config.isObject(), "service config must be a JSON object");
  validateKeys(config, "service config",
               {{"workers", KeyKind::Number},
                {"tiles", KeyKind::Number},
                {"topology", KeyKind::Object},
                {"hostThreads", KeyKind::Number},
                {"planCacheCapacity", KeyKind::Number},
                {"defaultDeadlineCycles", KeyKind::Number},
                {"defaultDeadlineSeconds", KeyKind::Number},
                {"traceCapacity", KeyKind::Number},
                {"maxRetainedResults", KeyKind::Number},
                {"metricsPort", KeyKind::Number},
                {"flightRecorderJobs", KeyKind::Number},
                {"flightEventCapacity", KeyKind::Number},
                {"flightDir", KeyKind::String},
                {"logPath", KeyKind::String},
                {"retry", KeyKind::Object},
                {"admission", KeyKind::Object},
                {"breaker", KeyKind::Object},
                {"degradation", KeyKind::Object}});
  ServiceOptions o;
  o.workers = countOr(config, "service", "workers", o.workers);
  o.tiles = countOr(config, "service", "tiles", o.tiles);
  if (config.contains("topology")) {
    const json::Value& t = config.at("topology");
    validateKeys(t, "service.topology config",
                 {{"ipus", KeyKind::Number},
                  {"tilesPerIpu", KeyKind::Number},
                  {"linkBytesPerSecond", KeyKind::Number},
                  {"linkLatencyCycles", KeyKind::Number},
                  {"linksPerIpu", KeyKind::Number},
                  {"aggregateHalo", KeyKind::Bool}});
    ipu::LinkModel link;
    link.bytesPerSecond = t.getOr("linkBytesPerSecond", link.bytesPerSecond);
    link.latencyCycles = t.getOr("linkLatencyCycles", link.latencyCycles);
    link.linksPerIpu =
        countOr(t, "service.topology", "linksPerIpu", link.linksPerIpu);
    link.aggregateHalo = t.getOr("aggregateHalo", link.aggregateHalo);
    const std::size_t ipus = countOr(t, "service.topology", "ipus", 1);
    const std::size_t perIpu =
        countOr(t, "service.topology", "tilesPerIpu",
                o.tiles / std::max<std::size_t>(ipus, 1));
    o.topology = ipu::Topology::pod(ipus, perIpu, link);
    o.tiles = o.topology->totalTiles();
  }
  o.hostThreads = countOr(config, "service", "hostThreads", o.hostThreads);
  o.planCacheCapacity =
      countOr(config, "service", "planCacheCapacity", o.planCacheCapacity);
  o.defaultDeadlineCycles =
      config.getOr("defaultDeadlineCycles", o.defaultDeadlineCycles);
  o.defaultDeadlineSeconds =
      config.getOr("defaultDeadlineSeconds", o.defaultDeadlineSeconds);
  o.traceCapacity =
      countOr(config, "service", "traceCapacity", o.traceCapacity);
  o.maxRetainedResults =
      countOr(config, "service", "maxRetainedResults", o.maxRetainedResults);
  // A port outside int's range would truncate into [-1, 65535] and pass
  // validateOptions; anything in range is checked there.
  const std::int64_t port =
      config.getOr("metricsPort", static_cast<std::int64_t>(o.metricsPort));
  if (port < std::numeric_limits<int>::min() ||
      port > std::numeric_limits<int>::max()) {
    throw ParseError(detail::concatMessage(
        "service.metricsPort must be -1 (disabled) or a TCP port in "
        "[0, 65535] (got ", port, ")"));
  }
  o.metricsPort = static_cast<int>(port);
  o.flightRecorderJobs =
      countOr(config, "service", "flightRecorderJobs", o.flightRecorderJobs);
  o.flightEventCapacity = countOr(config, "service", "flightEventCapacity",
                                  o.flightEventCapacity);
  o.flightDir = config.getOr("flightDir", o.flightDir);
  o.logPath = config.getOr("logPath", o.logPath);
  if (config.contains("retry")) {
    const json::Value& r = config.at("retry");
    validateKeys(r, "service.retry config",
                 {{"maxRetries", KeyKind::Number},
                  {"backoffBaseMs", KeyKind::Number},
                  {"backoffFactor", KeyKind::Number},
                  {"backoffMaxMs", KeyKind::Number},
                  {"jitter", KeyKind::Number}});
    o.retry.maxRetries =
        countOr(r, "service.retry", "maxRetries", o.retry.maxRetries);
    o.retry.backoffBaseMs = r.getOr("backoffBaseMs", o.retry.backoffBaseMs);
    o.retry.backoffFactor = r.getOr("backoffFactor", o.retry.backoffFactor);
    o.retry.backoffMaxMs = r.getOr("backoffMaxMs", o.retry.backoffMaxMs);
    o.retry.jitter = r.getOr("jitter", o.retry.jitter);
  }
  if (config.contains("admission")) {
    const json::Value& a = config.at("admission");
    validateKeys(a, "service.admission config",
                 {{"maxQueueDepth", KeyKind::Number},
                  {"sramPoolBytes", KeyKind::Number},
                  {"headroom", KeyKind::Number}});
    o.admission.maxQueueDepth = countOr(a, "service.admission",
                                        "maxQueueDepth",
                                        o.admission.maxQueueDepth);
    o.admission.sramPoolBytes = countOr(a, "service.admission",
                                        "sramPoolBytes",
                                        o.admission.sramPoolBytes);
    o.admission.headroom = a.getOr("headroom", o.admission.headroom);
  }
  if (config.contains("breaker")) {
    const json::Value& b = config.at("breaker");
    validateKeys(b, "service.breaker config",
                 {{"failuresToOpen", KeyKind::Number},
                  {"openForJobs", KeyKind::Number}});
    o.breaker.failuresToOpen = countOr(b, "service.breaker", "failuresToOpen",
                                       o.breaker.failuresToOpen);
    o.breaker.openForJobs = countOr(b, "service.breaker", "openForJobs",
                                    o.breaker.openForJobs);
  }
  if (config.contains("degradation")) {
    const json::Value& d = config.at("degradation");
    validateKeys(d, "service.degradation config",
                 {{"enabled", KeyKind::Bool},
                  {"toleranceRelaxFactor", KeyKind::Number},
                  {"cgToBicgstab", KeyKind::Bool},
                  {"perCellHalo", KeyKind::Bool}});
    o.degradation.enabled = d.getOr("enabled", o.degradation.enabled);
    o.degradation.toleranceRelaxFactor = d.getOr(
        "toleranceRelaxFactor", o.degradation.toleranceRelaxFactor);
    o.degradation.cgToBicgstab =
        d.getOr("cgToBicgstab", o.degradation.cgToBicgstab);
    o.degradation.perCellHalo =
        d.getOr("perCellHalo", o.degradation.perCellHalo);
  }
  validateOptions(o);
  return o;
}

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.planCacheCapacity),
      flight_(options_.flightRecorderJobs, options_.flightEventCapacity) {
  validateOptions(options_);
  if (options_.topology) options_.tiles = options_.topology->totalTiles();
  sessionOptions_.tiles = options_.tiles;
  sessionOptions_.topology = options_.topology;
  sessionOptions_.hostThreads = options_.hostThreads;
  sessionOptions_.traceCapacity = options_.traceCapacity;
  // Resolve the machine shape once (explicit topology > GRAPHENE_TEST_POD >
  // plain tiles): every pipeline the service builds targets this pod, plan
  // keys hash its fingerprint, and chip-dead verdicts shrink it in place.
  sessionOptions_.topology = resolveSessionTopology(sessionOptions_);
  sessionOptions_.tiles = sessionOptions_.topology->totalTiles();
  // Pooled pipelines serve fault-injected jobs too: give each solve a remap
  // budget that survives a couple of dead tiles instead of the facade's
  // conservative default of one.
  sessionOptions_.maxRemaps = std::max<std::size_t>(2, options_.tiles / 8);
  // # HELP text for the Prometheus exposition. Per-verdict histogram
  // families get theirs on first observation (observeTerminal).
  metrics_.setHelp("service.jobs.accepted",
                   "Jobs admitted past admission control.");
  metrics_.setHelp("service.jobs.completed", "Jobs that converged.");
  metrics_.setHelp("service.jobs.failed",
                   "Jobs that ended failed: typed error, transient verdict "
                   "with retries spent, or max-iterations.");
  metrics_.setHelp("service.jobs.rejected",
                   "Jobs refused at admission or by an open circuit "
                   "breaker.");
  metrics_.setHelp("service.queue.depth",
                   "Jobs currently waiting in the queue.");
  metrics_.setHelp("service.queue_wait_ms",
                   "Wall milliseconds a job waited in the queue before a "
                   "worker picked it up.");
  metrics_.setHelp("service.retries",
                   "Retry attempts consumed per terminal job.");
  metrics_.setHelp("service.iterations.converged",
                   "Iterations to convergence of completed jobs.");
  if (!options_.logPath.empty()) {
    log_ = std::make_unique<support::LogSink>(options_.logPath);
    json::Object f;
    f["workers"] = options_.workers;
    f["tiles"] = sessionOptions_.tiles;
    f["topologyFingerprint"] =
        std::to_string(sessionOptions_.topology->fingerprint());
    log_->log("service:start", SIZE_MAX, std::move(f));
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  // Started last: a request must never observe a half-constructed service.
  if (options_.metricsPort >= 0) {
    http_.start(static_cast<std::uint16_t>(options_.metricsPort),
                [this](const std::string& path) { return handleHttp(path); });
  }
}

ipu::Topology SolverService::resolvedTopology() const {
  std::lock_guard<std::mutex> lock(mu_);
  return *sessionOptions_.topology;
}

SolverService::~SolverService() { shutdown(); }

void SolverService::recordJob(const JobEvent& event, std::size_t jobId,
                              const std::string& detail) {
  if (event.counter != nullptr) metrics_.addCounter(event.counter, 1);
  if (event.trace == nullptr) return;
  support::TraceEvent ev;
  {
    std::lock_guard<std::mutex> lock(traceMu_);
    ev = support::recordJobEvent(&trace_, event.trace, jobId,
                                 static_cast<double>(++traceSeq_), detail);
  }
  if (jobId != SIZE_MAX) flight_.record(jobId, ev);
  if (log_) {
    json::Object fields;
    if (!detail.empty()) fields["detail"] = detail;
    log_->log(event.trace, jobId, std::move(fields));
  }
}

void SolverService::observeTerminal(const JobResult& result) {
  const std::string verdict =
      result.typedError ? "typed-error"
                        : std::string(toString(result.solve.status));
  const std::string cycles = "service.latency.cycles." + verdict;
  metrics_.setHelp(cycles, "Simulated cycles per terminal job, by verdict.");
  metrics_.observe(cycles, result.simCycles, kCyclesLadder);
  const std::string wall = "service.latency.wall_ms." + verdict;
  metrics_.setHelp(wall,
                   "Wall milliseconds from accept to terminal verdict, by "
                   "verdict.");
  metrics_.observe(wall, result.wallSeconds * 1000.0, kMsLadder);
  metrics_.observe(
      "service.retries",
      result.attempts > 0 ? static_cast<double>(result.attempts - 1) : 0.0,
      kRetryLadder);
  if (!result.typedError && result.solve.status == SolveStatus::Converged) {
    metrics_.observe("service.iterations.converged",
                     static_cast<double>(result.solve.iterations),
                     kIterLadder);
  }
}

json::Value SolverService::healthJson() const {
  json::Object o;
  o["status"] = "ok";
  o["workers"] = options_.workers;
  o["pooledPipelines"] = cache_.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const ipu::Topology& t = *sessionOptions_.topology;
    json::Object topo;
    topo["fingerprint"] = std::to_string(t.fingerprint());
    topo["ipus"] = t.numIpus();
    topo["aliveIpus"] = t.numAliveIpus();
    topo["tilesPerIpu"] = t.tilesPerIpu();
    topo["aliveTiles"] = t.numAliveTiles();
    json::Array dead;
    for (std::size_t d : t.deadIpus()) dead.push_back(json::Value(d));
    topo["deadIpus"] = std::move(dead);
    o["topology"] = std::move(topo);
    o["queueDepth"] = queue_.size();
    o["retainedJobs"] = jobs_.size();
    o["submitted"] = nextJobId_;
    o["stopping"] = stopping_;
    json::Array brs;
    for (const auto& [fp, b] : breakers_) {
      json::Object br;
      br["structureFingerprint"] = std::to_string(fp);
      br["state"] = b.openRemaining > 0 ? "open"
                    : b.halfOpen        ? "half-open"
                                        : "closed";
      br["consecutiveFailures"] = b.consecutiveFailures;
      br["openRemaining"] = b.openRemaining;
      br["probeInFlight"] = b.probeInFlight;
      brs.push_back(json::Value(std::move(br)));
    }
    o["breakers"] = std::move(brs);
  }
  return json::Value(std::move(o));
}

json::Value SolverService::jobsJson() const {
  // Two-phase snapshot, honouring the service lock order: collect the
  // states under mu_, release it, then lock each job individually — never
  // mu_ and a JobState::mu together.
  std::vector<std::pair<std::size_t, std::shared_ptr<JobState>>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.assign(jobs_.begin(), jobs_.end());
  }
  json::Array arr;
  for (const auto& [id, state] : snapshot) {
    json::Object j;
    j["id"] = id;
    std::lock_guard<std::mutex> lock(state->mu);
    j["phase"] = std::string(state->phase);
    if (state->cancelRequested.load(std::memory_order_relaxed)) {
      j["cancelRequested"] = true;
    }
    if (state->done) {
      const JobResult& r = state->result;
      j["verdict"] = r.typedError ? std::string("typed-error")
                                  : std::string(toString(r.solve.status));
      if (!r.message.empty()) j["message"] = r.message;
      j["attempts"] = r.attempts;
      j["degraded"] = r.degraded;
      j["planCacheHit"] = r.planCacheHit;
      j["iterations"] = r.solve.iterations;
      j["simCycles"] = r.simCycles;
      j["wallSeconds"] = r.wallSeconds;
    }
    arr.push_back(json::Value(std::move(j)));
  }
  json::Object o;
  o["jobs"] = std::move(arr);
  return json::Value(std::move(o));
}

support::HttpServer::Response SolverService::handleHttp(
    const std::string& path) {
  support::HttpServer::Response resp;
  if (path == "/metrics") {
    resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = metricsText();
    return resp;
  }
  if (path == "/healthz") {
    resp.contentType = "application/json";
    resp.body = healthJson().dump() + "\n";
    return resp;
  }
  if (path == "/jobs") {
    resp.contentType = "application/json";
    resp.body = jobsJson().dump() + "\n";
    return resp;
  }
  const std::string flightPrefix = "/flight/";
  if (path.rfind(flightPrefix, 0) == 0) {
    const std::string idText = path.substr(flightPrefix.size());
    std::size_t id = 0;
    bool valid = !idText.empty();
    for (char c : idText) valid = valid && c >= '0' && c <= '9';
    if (valid) id = static_cast<std::size_t>(std::stoull(idText));
    std::optional<FlightRecord> record =
        valid ? flight_.record(id) : std::nullopt;
    if (!record) {
      resp.status = 404;
      resp.body = "no flight record for job '" + idText + "' (the recorder "
                  "retains the last " + std::to_string(flight_.retainJobs()) +
                  " terminal jobs)\n";
      return resp;
    }
    resp.contentType = "application/x-ndjson";
    resp.body = flightRecordToJsonl(*record);
    return resp;
  }
  resp.status = 404;
  resp.body =
      "not found; endpoints: /metrics /healthz /jobs /flight/<id>\n";
  return resp;
}

support::TraceSink SolverService::traceSnapshot() const {
  std::lock_guard<std::mutex> lock(traceMu_);
  return trace_;
}

std::size_t SolverService::estimateSramCharge(const matrix::GeneratedMatrix& m,
                                              std::uint64_t structureHash) {
  // Known structure: the real measurement from a built pipeline's
  // TileMemoryLedger (peak per-tile bytes × tiles, an upper bound on the
  // machine-wide residency). First contact: raw device storage — float
  // coefficients + int32 structure per nonzero, a handful of float vectors
  // per row — as a deliberately rough lower-bound estimate.
  auto it = knownSramPeak_.find(structureHash);
  if (it != knownSramPeak_.end()) return it->second;
  const matrix::CsrMatrix& a = m.matrix;
  return a.nnz() * (sizeof(float) + sizeof(std::int32_t)) +
         a.rows() * 12 * sizeof(float);
}

std::size_t SolverService::submit(const matrix::GeneratedMatrix& m,
                                  const json::Value& solverConfig,
                                  std::vector<double> rhs,
                                  SolveJobOptions jobOptions) {
  GRAPHENE_CHECK(m.matrix.rows() == rhs.size(), "rhs has ", rhs.size(),
                 " entries but the matrix has ", m.matrix.rows(), " rows");
  // Build the solver once up front so a malformed config fails the submit
  // with the factory's own key-naming error, not a worker thread.
  (void)makeSolver(solverConfig);

  Job job;
  job.m = m;
  job.solverConfig = solverConfig;
  job.rhs = std::move(rhs);
  job.jobOptions = std::move(jobOptions);
  job.matrixHash = matrixStructureHash(m);
  job.acceptedAt = std::chrono::steady_clock::now();

  auto state = std::make_shared<JobState>();
  state->acceptedAt = job.acceptedAt;
  std::string rejection;
  std::size_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    GRAPHENE_CHECK(!stopping_, "SolverService::submit() after shutdown()");
    id = nextJobId_++;
    job.id = id;
    jobs_[id] = state;
    const std::uint64_t structureHash =
        structureFingerprint(job.matrixHash, sessionOptions_);
    // Identity fields of the flight record — written before the job is
    // visible to any worker (it is not queued yet), read at seal time.
    state->structureFp = structureHash;
    state->configFp = configFingerprint(solverConfig);
    state->topologyFp = sessionOptions_.topology->fingerprint();
    state->solverConfigDump = solverConfig.dump();
    job.sramCharge = estimateSramCharge(m, structureHash);
    const auto usable = static_cast<std::size_t>(
        options_.admission.headroom *
        static_cast<double>(options_.admission.sramPoolBytes));
    if (queue_.size() >= options_.admission.maxQueueDepth) {
      rejection = "queue depth " + std::to_string(queue_.size()) +
                  " at admission.maxQueueDepth " +
                  std::to_string(options_.admission.maxQueueDepth);
    } else if (options_.admission.sramPoolBytes > 0 &&
               job.sramCharge > usable) {
      rejection = "SRAM estimate " + std::to_string(job.sramCharge) +
                  " B exceeds usable pool " + std::to_string(usable) +
                  " B (admission.sramPoolBytes * headroom)";
    } else {
      queue_.push_back(std::move(job));
      metrics_.setGauge("service.queue.depth",
                        static_cast<double>(queue_.size()));
    }
  }
  flight_.open(id);
  if (!rejection.empty()) {
    recordJob(job_events::kRejected, id, rejection);
    JobResult r;
    r.jobId = id;
    r.solve.status = SolveStatus::AdmissionRejected;
    r.message = rejection;
    finishJob(state, std::move(r));
    return id;
  }
  recordJob(job_events::kAccepted, id);
  queueCv_.notify_one();
  return id;
}

JobResult SolverService::wait(std::size_t jobId) {
  std::shared_ptr<JobState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(jobId);
    if (it == jobs_.end()) {
      GRAPHENE_CHECK(jobId < nextJobId_, "unknown job id ", jobId);
      GRAPHENE_CHECK(false, "job ", jobId,
                     " result already released: the service retains the "
                     "last ", options_.maxRetainedResults,
                     " terminal results (service.maxRetainedResults) — "
                     "wait() sooner or raise the retention");
    }
    state = it->second;
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done; });
  return state->result;
}

JobResult SolverService::solve(const matrix::GeneratedMatrix& m,
                               const json::Value& solverConfig,
                               std::vector<double> rhs,
                               SolveJobOptions jobOptions) {
  return wait(submit(m, solverConfig, std::move(rhs), std::move(jobOptions)));
}

bool SolverService::cancel(std::size_t jobId) {
  std::shared_ptr<JobState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(jobId);
    if (it == jobs_.end()) return false;
    state = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done) return false;
    state->cancelRequested.store(true, std::memory_order_relaxed);
  }
  // Wake a worker parked in the retry-backoff wait on this job's cv so the
  // cancel takes effect now, not after the full backoff interval.
  state->cv.notify_all();
  recordJob(job_events::kCancelRequested, jobId);
  return true;
}

void SolverService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  // Stop serving scrapes first: a request must never observe the service
  // mid-teardown. stop() joins the listener thread deterministically.
  http_.stop();
  queueCv_.notify_all();
  chargeCv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Reclaim the engine pool: every lease has ended (workers are joined), so
  // this drops all warm pipelines and their engines.
  cache_.clear();
  if (log_) log_->log("service:shutdown");
}

void SolverService::finishJob(const std::shared_ptr<JobState>& state,
                              JobResult result) {
  const std::size_t id = result.jobId;
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    state->acceptedAt)
          .count();
  const std::string verdict =
      result.typedError ? std::string("typed-error")
                        : std::string(toString(result.solve.status));
  const std::string status =
      result.typedError ? "typed-error: " + result.message : verdict;
  observeTerminal(result);

  // Terminal header of the flight record; the job's identity fields were
  // written in submit(), before any worker could see the job.
  FlightRecord header;
  header.verdict = verdict;
  header.message = result.message;
  header.attempts = result.attempts;
  header.degraded = result.degraded;
  header.simCycles = result.simCycles;
  header.wallSeconds = result.wallSeconds;
  header.structureFingerprint = state->structureFp;
  header.configFingerprint = state->configFp;
  header.topologyFingerprint = state->topologyFp;
  header.solverConfig = state->solverConfigDump;
  const bool failed = result.typedError ||
                      isRetryable(result.solve.status) ||
                      result.solve.status == SolveStatus::MaxIterations;

  // Seal (and on failure dump) the flight record *before* publishing the
  // result: when wait() returns a failed verdict, the black-box artifact
  // is already on disk. job:done is recorded first so it lands inside the
  // sealed record.
  recordJob(job_events::kDone, id, status);
  const FlightRecord sealed = flight_.seal(id, std::move(header));
  if (failed && !options_.flightDir.empty()) {
    try {
      const std::string path = dumpFlightRecord(sealed, options_.flightDir);
      recordJob(job_events::kFlightDumped, id, path);
    } catch (const Error& e) {
      // The dump is best-effort forensics — a missing directory must not
      // turn a typed verdict into a crash.
      if (log_) {
        json::Object f;
        f["detail"] = std::string(e.what());
        log_->log("flight:dump-failed", id, std::move(f));
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->result = std::move(result);
    state->done = true;
    state->phase = "done";
  }
  state->cv.notify_all();
  // Bound the job table: release the oldest terminal results beyond the
  // retention window. Waiters already blocked in wait() hold the JobState
  // by shared_ptr, so they still receive this result.
  if (options_.maxRetainedResults > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    doneIds_.push_back(id);
    while (doneIds_.size() > options_.maxRetainedResults) {
      jobs_.erase(doneIds_.front());
      doneIds_.pop_front();
    }
  }
}

void SolverService::workerLoop() {
  for (;;) {
    Job job;
    std::shared_ptr<JobState> state;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queueCv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      metrics_.setGauge("service.queue.depth",
                        static_cast<double>(queue_.size()));
      state = jobs_.at(job.id);
    }
    metrics_.observe(
        "service.queue_wait_ms",
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - job.acceptedAt)
            .count(),
        kMsLadder);

    if (state->cancelRequested.load(std::memory_order_relaxed)) {
      recordJob(job_events::kCancelled, job.id);
      JobResult r;
      r.jobId = job.id;
      r.solve.status = SolveStatus::Cancelled;
      r.message = "cancelled while queued";
      finishJob(state, std::move(r));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->phase = "running";
    }

    // SRAM admission: jobs that fit the pool but not *right now* queue here
    // until running jobs release their charge. Submit already rejected the
    // can-never-fit ones, so a lone job always passes.
    if (options_.admission.sramPoolBytes > 0) {
      const auto usable = static_cast<std::size_t>(
          options_.admission.headroom *
          static_cast<double>(options_.admission.sramPoolBytes));
      std::unique_lock<std::mutex> lock(mu_);
      chargeCv_.wait(lock, [&] {
        return stopping_ || runningCharge_ == 0 ||
               runningCharge_ + job.sramCharge <= usable;
      });
      runningCharge_ += job.sramCharge;
    }

    // Last-resort net for the converge-or-fail-typed invariant: runJob maps
    // every expected failure itself, but anything that still escapes must
    // end the job with a typed verdict — an exception leaving this loop
    // would std::terminate the process and hang every wait()er.
    JobResult result;
    try {
      result = runJob(job, state);
    } catch (const std::exception& e) {
      result = JobResult{};
      result.jobId = job.id;
      result.typedError = true;
      result.message = std::string("internal error: ") + e.what();
      recordJob(job_events::kInternalError, job.id, result.message);
    } catch (...) {
      result = JobResult{};
      result.jobId = job.id;
      result.typedError = true;
      result.message = "internal error: unknown exception";
      recordJob(job_events::kInternalError, job.id, result.message);
    }

    if (options_.admission.sramPoolBytes > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        runningCharge_ -= job.sramCharge;
      }
      chargeCv_.notify_all();
    }
    finishJob(state, std::move(result));
  }
}

JobResult SolverService::runJob(Job& job,
                                const std::shared_ptr<JobState>& state) {
  JobResult res;
  res.jobId = job.id;

  SessionOptions baseOpts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    baseOpts = sessionOptions_;
  }
  const PlanCache::Key key{structureFingerprint(job.matrixHash, baseOpts),
                           configFingerprint(job.solverConfig)};
  const std::uint64_t valuesHash = valuesFingerprint(job.m.matrix);
  const bool bakesValues = configBakesValues(job.solverConfig);

  // Circuit breaker: quarantined structures fail fast; the first job after
  // the quarantine runs as the single half-open probe — while its verdict
  // is pending, further jobs for the structure are rejected too, so exactly
  // one job at a time tests the water.
  bool probe = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Breaker& b = breakers_[key.structure];
    if (b.openRemaining > 0) {
      b.openRemaining -= 1;
      if (b.openRemaining == 0) b.halfOpen = true;
      res.solve.status = SolveStatus::CircuitOpen;
      res.message = "structure fingerprint quarantined after " +
                    std::to_string(b.consecutiveFailures) +
                    " consecutive failures";
      recordJob(job_events::kCircuitOpen, job.id, res.message);
      return res;
    }
    if (b.halfOpen) {
      if (b.probeInFlight) {
        res.solve.status = SolveStatus::CircuitOpen;
        res.message =
            "structure fingerprint half-open: probe job in flight";
        recordJob(job_events::kCircuitOpen, job.id, res.message);
        return res;
      }
      b.probeInFlight = true;
      probe = true;
    }
  }

  const double deadlineCycles = job.jobOptions.deadlineCycles < 0
                                    ? options_.defaultDeadlineCycles
                                    : job.jobOptions.deadlineCycles;
  const double deadlineSeconds = job.jobOptions.deadlineSeconds < 0
                                     ? options_.defaultDeadlineSeconds
                                     : job.jobOptions.deadlineSeconds;

  recordJob(job_events::kStart, job.id, probe ? "half-open probe" : "");
  double cyclesSoFar = 0;

  for (std::size_t attempt = 0;; ++attempt) {
    const bool lastAttempt = attempt >= options_.retry.maxRetries;
    const bool degradeThis = lastAttempt && attempt > 0 &&
                             options_.degradation.enabled;
    json::Value config = job.solverConfig;
    // Per-attempt snapshot: a chip-dead verdict from a concurrent job may
    // have shrunk the service topology between attempts — retries must
    // target the surviving pod, not the shape the job started on.
    SessionOptions sessOpts;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessOpts = sessionOptions_;
    }
    const std::uint64_t attemptTopologyFp = sessOpts.topology->fingerprint();
    const PlanCache::Key attemptKey{
        structureFingerprint(job.matrixHash, sessOpts), key.config};
    if (degradeThis) {
      degradeConfigInPlace(config, options_.degradation);
      if (options_.degradation.perCellHalo) sessOpts.perCellHalo = true;
      recordJob(job_events::kDegradedAttempt, job.id, config.dump());
    }
    // Degraded attempts run a one-off configuration, and fault-injected
    // jobs would leave their plan attached to the pooled pipeline — both
    // build fresh and are never pooled.
    const bool useCache = options_.planCacheCapacity > 0 && !degradeThis &&
                          !job.jobOptions.faultPlan.has_value();

    std::shared_ptr<SolveSession> session;
    bool fresh = false;
    bool cacheHit = false;
    if (useCache) {
      PlanCache::Lease lease =
          cache_.acquire(attemptKey, valuesHash, !bakesValues);
      if (lease.session) {
        recordJob(job_events::kPlanHit, job.id);
        try {
          lease.session->bind();
          if (!lease.valuesMatch) {
            lease.session->updateMatrixValues(job.m.matrix);
          }
          session = lease.session;
          cacheHit = true;
        } catch (const Error& e) {
          // The value refresh rejected the leased pipeline (e.g. a
          // structure mismatch behind a fingerprint collision): drop the
          // entry and fall through to a fresh build for this matrix.
          try {
            lease.session->unbind();
          } catch (...) {
          }
          cache_.release(lease.session.get(), /*invalidate=*/true);
          recordJob(job_events::kCacheRefreshFailed, job.id, e.what());
        }
      } else {
        recordJob(job_events::kPlanMiss, job.id);
      }
    }
    if (!session) {
      try {
        session = std::make_shared<SolveSession>(sessOpts);
        session->load(job.m).configure(config);  // binds on this thread
        if (job.jobOptions.faultPlan) {
          session->withFaultPlan(*job.jobOptions.faultPlan);
        }
      } catch (const Error& e) {
        // A pipeline build failure is a deterministic property of the
        // submitted matrix / plan (e.g. a zero diagonal the modified-CRS
        // format cannot represent), not transient damage: end the job with
        // the typed error now instead of retrying a build that cannot
        // succeed. `session` still owns whatever was partially built; it is
        // destroyed (and its context unbound) on scope exit, never pooled.
        res.solve = SolveResult{};
        res.x.clear();
        res.typedError = true;
        res.message = e.what();
        res.attempts = attempt + 1;
        res.degraded = degradeThis;
        res.planCacheHit = false;
        res.simCycles = cyclesSoFar;
        recordJob(job_events::kBuildFailed, job.id, res.message);
        break;
      }
      fresh = true;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Admission charges against tiles that can actually hold state — a
      // shrunken pod's dead chips contribute no SRAM.
      knownSramPeak_[attemptKey.structure] =
          session->sramPeakBytes() *
          session->options().topology->numAliveTiles();
    }

    const double cyclesBefore = cyclesSoFar;
    const auto acceptedAt = job.acceptedAt;
    JobState* st = state.get();
    session->setCancelCheck(
        [deadlineCycles, deadlineSeconds, cyclesBefore, acceptedAt,
         st](double solveCycles) -> const char* {
          if (st->cancelRequested.load(std::memory_order_relaxed)) {
            return "cancel-requested";
          }
          if (deadlineCycles > 0 &&
              cyclesBefore + solveCycles >= deadlineCycles) {
            return "deadline";
          }
          if (deadlineSeconds > 0) {
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - acceptedAt;
            if (elapsed.count() >= deadlineSeconds) return "deadline";
          }
          return nullptr;
        });

    bool invalidate = false;
    bool retryable = false;
    try {
      SolveSession::Result r = session->solve(job.rhs);
      cyclesSoFar += r.simCycles;
      res.solve = r.solve;
      res.x = std::move(r.x);
      res.typedError = false;
      res.message.clear();
      retryable = isRetryable(r.solve.status);
      // A solve that blacklisted tiles repartitioned mid-flight: the cached
      // plan no longer matches the machine it was built for. (Chip loss is
      // folded in below — deadIpus is read for every exit path.)
      invalidate = !session->blacklistedTiles().empty();
    } catch (const CancelledError& ce) {
      // lastSolveCycles() includes cycles carried across hard-fault remap
      // attempts within this solve — engine().simCycles() alone would be
      // only the final engine's clock.
      cyclesSoFar += session->lastSolveCycles();
      const bool deadline = std::string(ce.reason()) == "deadline";
      res.solve = SolveResult{};
      res.solve.status =
          deadline ? SolveStatus::DeadlineExceeded : SolveStatus::Cancelled;
      res.x.clear();
      res.typedError = false;
      res.message = ce.what();
      recordJob(deadline ? job_events::kDeadlineExceeded
                         : job_events::kCancelled,
                job.id);
    } catch (const Error& e) {
      // Typed failure (e.g. hard-fault recovery budget exhausted). The
      // pipeline is suspect; retry — if budget remains — on a fresh build.
      // The failed solve's cycles (all remap attempts included) still count
      // against the job's cycle deadline.
      cyclesSoFar += session->lastSolveCycles();
      res.solve = SolveResult{};
      res.x.clear();
      res.typedError = true;
      res.message = e.what();
      invalidate = true;
      retryable = true;
    }
    session->setCancelCheck(nullptr);
    session->unbind();
    // Chips this solve's watchdog escalation retired (copied out — the
    // session is pooled or destroyed below). Non-empty on any exit path
    // (converged after a shrink, typed error, even cancel mid-recovery).
    const std::vector<std::size_t> deadIpus = session->deadIpus();
    invalidate = invalidate || !deadIpus.empty();

    // Black box: fold this attempt's fault log and watchdog report into the
    // job's flight record. Best-effort: forensics must never turn a verdict
    // into a crash.
    try {
      flight_.recordAttempt(job.id, session->profile().faultEvents,
                            session->healthReport());
    } catch (...) {
    }

    res.attempts = attempt + 1;
    res.degraded = degradeThis;
    res.planCacheHit = cacheHit;
    res.simCycles = cyclesSoFar;

    if (useCache) {
      if (fresh) cache_.insert(attemptKey, valuesHash, session);
      // Also drop pipelines whose machine shape is no longer the service's:
      // a concurrent job may have shrunk the topology while this attempt
      // was in flight, making this pipeline stale even though its own solve
      // saw no fault.
      bool topologyStale = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        topologyStale =
            sessionOptions_.topology->fingerprint() != attemptTopologyFp;
      }
      const bool drop = invalidate || topologyStale;
      cache_.release(session.get(), drop);
      if (drop) recordJob(job_events::kPlanInvalidated, job.id);
    }
    session.reset();

    // Adopt the shrink: retire the dead chips from the service topology and
    // invalidate every pooled plan built for the pre-shrink shape. The
    // fingerprint guard makes the union idempotent — when another job
    // already retired these chips, the (valid) shrunken-topology plans are
    // left alone.
    if (!deadIpus.empty()) {
      bool adopted = false;
      std::uint64_t staleFp = 0;
      std::size_t droppedPlans = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        staleFp = sessionOptions_.topology->fingerprint();
        ipu::Topology shrunk =
            sessionOptions_.topology->withoutIpus(deadIpus);
        if (shrunk.fingerprint() != staleFp) {
          sessionOptions_.topology = shrunk;
          sessionOptions_.tiles = shrunk.totalTiles();
          droppedPlans = cache_.invalidateTopology(staleFp);
          adopted = true;
        }
      }
      if (adopted) {
        std::string chips;
        for (std::size_t ipu : deadIpus) {
          chips += (chips.empty() ? "" : " ") + std::to_string(ipu);
        }
        recordJob(job_events::kTopologyShrink, job.id,
                  "chip(s) " + chips + " retired; " +
                      std::to_string(droppedPlans) +
                      " stale plan(s) invalidated");
      }
    }

    const bool terminal = !retryable || lastAttempt ||
                          res.solve.status == SolveStatus::DeadlineExceeded ||
                          res.solve.status == SolveStatus::Cancelled;
    if (terminal) break;

    double backoff = options_.retry.backoffBaseMs;
    for (std::size_t i = 0; i < attempt; ++i) {
      backoff *= options_.retry.backoffFactor;
    }
    backoff = std::min(backoff, options_.retry.backoffMaxMs);
    backoff *= 1.0 + options_.retry.jitter * jitterFraction(job.id, attempt);
    if (backoff > 0) {
      // Interruptible backoff: cancel() notifies this cv, and the wait is
      // capped at the remaining wall budget — a job must not sleep past its
      // deadline or its client's cancel, then pay another pipeline build.
      auto waitFor = std::chrono::duration<double, std::milli>(backoff);
      if (deadlineSeconds > 0) {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - job.acceptedAt;
        const double remainingMs =
            (deadlineSeconds - elapsed.count()) * 1000.0;
        waitFor = std::min(
            waitFor,
            std::chrono::duration<double, std::milli>(
                std::max(0.0, remainingMs)));
      }
      std::unique_lock<std::mutex> slock(state->mu);
      state->cv.wait_for(slock, waitFor, [&] {
        return state->cancelRequested.load(std::memory_order_relaxed);
      });
    }
    if (state->cancelRequested.load(std::memory_order_relaxed)) {
      res.solve = SolveResult{};
      res.solve.status = SolveStatus::Cancelled;
      res.x.clear();
      res.typedError = false;
      res.message = "cancelled during retry backoff";
      recordJob(job_events::kCancelled, job.id);
      break;
    }
    const bool cycleBudgetSpent =
        deadlineCycles > 0 && cyclesSoFar >= deadlineCycles;
    bool wallBudgetSpent = false;
    if (deadlineSeconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - job.acceptedAt;
      wallBudgetSpent = elapsed.count() >= deadlineSeconds;
    }
    if (cycleBudgetSpent || wallBudgetSpent) {
      res.solve = SolveResult{};
      res.solve.status = SolveStatus::DeadlineExceeded;
      res.x.clear();
      res.typedError = false;
      res.message = cycleBudgetSpent
                        ? "cycle deadline spent before the next attempt"
                        : "wall deadline expired during retry backoff";
      recordJob(job_events::kDeadlineExceeded, job.id);
      break;
    }
    recordJob(job_events::kRetry, job.id,
              res.typedError ? res.message : toString(res.solve.status));
  }

  if (res.typedError || isRetryable(res.solve.status) ||
      res.solve.status == SolveStatus::MaxIterations) {
    recordJob(job_events::kFailed, job.id);
  } else if (res.solve.status == SolveStatus::Converged) {
    recordJob(job_events::kCompleted, job.id);
  }
  if (res.degraded) recordJob(job_events::kDegraded, job.id);

  // Circuit breaker accounting. Deadline/cancel verdicts stay neutral: they
  // say nothing about the matrix — a neutral probe just hands the half-open
  // slot to the next job for this structure.
  {
    std::lock_guard<std::mutex> lock(mu_);
    Breaker& b = breakers_[key.structure];
    if (probe) b.probeInFlight = false;
    if (isBreakerFailure(res)) {
      b.consecutiveFailures += 1;
      // A failed probe re-opens the quarantine immediately; outside
      // half-open the threshold decides.
      if (probe || b.consecutiveFailures >= options_.breaker.failuresToOpen) {
        b.halfOpen = false;
        b.openRemaining = options_.breaker.openForJobs;
        recordJob(job_events::kCircuitOpened, job.id,
                  std::to_string(b.consecutiveFailures) +
                      " consecutive failures" +
                      (probe ? " (half-open probe failed)" : ""));
      }
    } else if (res.solve.status == SolveStatus::Converged ||
               res.solve.status == SolveStatus::MaxIterations) {
      b.consecutiveFailures = 0;
      b.openRemaining = 0;
      b.halfOpen = false;
    }
  }
  return res;
}

}  // namespace graphene::solver
