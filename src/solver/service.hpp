// SolverService — a robust, concurrent front-end over SolveSession.
//
// SolveSession makes one solve easy; a long-running process answering solve
// requests needs the machinery *around* the solves: worker threads, warm
// pipelines shared across requests, deadlines that actually stop a runaway
// solve, bounded retries for transient faults, admission control so the
// simulated SRAM pool is not oversubscribed, and a circuit breaker so a
// matrix that keeps killing solves stops consuming the budget of everyone
// else. The service extends the repo's converge-or-fail-typed invariant to
// serving: every submitted job ends in a SolveStatus verdict (the service
// verdicts DeadlineExceeded / Cancelled / AdmissionRejected / CircuitOpen
// included) or a typed error message — never a crash, hang or silent drop.
//
//   SolverService service({.workers = 4});
//   auto id = service.submit(matrix, config, rhs, {.deadlineCycles = 5e8});
//   JobResult r = service.wait(id);   // r.solve.status, r.x, r.planCacheHit
//
// The pieces:
//   * Engine pooling / plan cache (plan_cache.hpp): pipelines are cached by
//     (structure, solver-config) fingerprint. A repeat solve leases a warm
//     pipeline — partitioning and program emission are skipped; when only
//     the coefficients changed they are refreshed in place
//     (updateMatrixValues) unless the chain bakes values into factors.
//     Entries are invalidated when a solve comes back with blacklisted
//     tiles (the cached program no longer matches the machine).
//   * Deadlines & cancellation: per-job budgets in simulated cycles
//     (deterministic) and/or wall seconds, enforced through the engine's
//     cooperative cancel check — overshoot is bounded by one superstep.
//   * Retry with backoff: transient verdicts (NanDetected, Breakdown,
//     Diverged, CorruptionDetected) and typed errors are retried up to
//     retry.maxRetries times with exponential backoff + deterministic
//     jitter.
//   * Graceful degradation: the final retry may run a degraded
//     configuration — relaxed tolerance, CG swapped for the more robust
//     BiCGStab, per-cell halo batching — before the job fails hard.
//   * Admission control: jobs whose SRAM estimate can never fit are
//     rejected at submit; jobs that fit but not *now* queue until running
//     charge frees up. Queue depth is bounded.
//   * Circuit breaker: per structure fingerprint; after
//     breaker.failuresToOpen consecutive hard failures the matrix is
//     quarantined for breaker.openForJobs submissions, then exactly one
//     probe job is let through (half-open) — others are rejected until the
//     probe's verdict lands.
//
// Observability: service counters (service.jobs.*, service.plan_cache.*)
// and latency/iteration histograms (service.latency.*, service.retries,
// service.queue_wait_ms) live in a thread-safe MetricsRegistry exported by
// metricsToPrometheusText; job lifecycle events (accepted/start/retry/done,
// stamped with the stable job id) land in the service TraceSink for a
// merged cross-job timeline, in the JSONL structured log (logPath) and in
// the per-job flight recorder — all under the same names, drawn from the
// job_events table below. With metricsPort >= 0 an embedded HTTP listener
// serves GET /metrics, /healthz, /jobs and /flight/<id> live, race-free
// against in-flight solves; failed jobs dump their flight record as a
// JSONL black-box artifact into flightDir automatically.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "matrix/generators.hpp"
#include "solver/flight_recorder.hpp"
#include "solver/plan_cache.hpp"
#include "solver/session.hpp"
#include "solver/solver.hpp"
#include "support/http_server.hpp"
#include "support/json.hpp"
#include "support/log_sink.hpp"
#include "support/trace.hpp"

namespace graphene::solver {

/// One job-lifecycle event: the stable name stamped on the TraceSink
/// timeline / structured log, paired with the metrics counter the event
/// bumps. This table is the single source of truth for the names — the
/// three views of an incident (trace timeline, JSONL log, Prometheus
/// counters) always join on them. `trace == nullptr` marks counter-only
/// events (no timeline line); `counter == nullptr` marks trace-only ones.
struct JobEvent {
  const char* trace;    // TraceSink / LogSink event name
  const char* counter;  // MetricsRegistry counter bumped by 1
};

namespace job_events {
inline constexpr JobEvent kAccepted{"job:accepted", "service.jobs.accepted"};
inline constexpr JobEvent kRejected{"job:rejected", "service.jobs.rejected"};
inline constexpr JobEvent kCircuitOpen{"job:circuit-open",
                                       "service.jobs.rejected"};
inline constexpr JobEvent kCircuitOpened{"job:circuit-opened", nullptr};
inline constexpr JobEvent kStart{"job:start", nullptr};
inline constexpr JobEvent kDone{"job:done", nullptr};
inline constexpr JobEvent kCancelRequested{"job:cancel-requested", nullptr};
inline constexpr JobEvent kRetry{"job:retry", "service.jobs.retried"};
inline constexpr JobEvent kDegradedAttempt{"job:degraded", nullptr};
inline constexpr JobEvent kBuildFailed{"job:build-failed", nullptr};
inline constexpr JobEvent kCacheRefreshFailed{"job:cache-refresh-failed",
                                              "service.plan_cache.invalidations"};
inline constexpr JobEvent kInternalError{"job:internal-error",
                                         "service.jobs.failed"};
inline constexpr JobEvent kTopologyShrink{"job:topology-shrink",
                                          "service.topology.shrinks"};
inline constexpr JobEvent kFlightDumped{"job:flight-dumped", nullptr};
// Counter-only terminal/bookkeeping events.
inline constexpr JobEvent kCancelled{nullptr, "service.jobs.cancelled"};
inline constexpr JobEvent kDeadlineExceeded{nullptr,
                                            "service.jobs.deadline_exceeded"};
inline constexpr JobEvent kCompleted{nullptr, "service.jobs.completed"};
inline constexpr JobEvent kFailed{nullptr, "service.jobs.failed"};
inline constexpr JobEvent kDegraded{nullptr, "service.jobs.degraded"};
inline constexpr JobEvent kPlanHit{nullptr, "service.plan_cache.hits"};
inline constexpr JobEvent kPlanMiss{nullptr, "service.plan_cache.misses"};
inline constexpr JobEvent kPlanInvalidated{nullptr,
                                           "service.plan_cache.invalidations"};
}  // namespace job_events

struct RetryPolicy {
  /// Re-attempts after the first try (0 = fail on first verdict).
  std::size_t maxRetries = 2;
  /// Exponential backoff between attempts: min(base * factor^i, max) wall
  /// milliseconds, plus up to `jitter` of itself as deterministic jitter.
  double backoffBaseMs = 1.0;
  double backoffFactor = 2.0;  // must be >= 1
  double backoffMaxMs = 20.0;
  double jitter = 0.1;  // fraction of the backoff, in [0, 1)
};

struct AdmissionPolicy {
  /// Jobs allowed to wait in the queue; a submit beyond this is rejected
  /// with AdmissionRejected instead of growing the backlog unboundedly.
  std::size_t maxQueueDepth = 64;
  /// Total simulated-SRAM budget concurrently running jobs may hold
  /// (estimate: peak per-tile ledger bytes × tiles; first-contact jobs use
  /// a storage-based estimate). 0 = no SRAM gating.
  std::size_t sramPoolBytes = 0;
  /// Usable fraction of the pool, in (0, 1]. A job estimated above
  /// headroom × pool can never run and is rejected at submit; one that fits
  /// but not right now queues until running jobs release their charge.
  double headroom = 0.9;
};

struct CircuitBreakerPolicy {
  /// Consecutive hard failures (transient verdicts / typed errors, retries
  /// exhausted) of one structure fingerprint before its circuit opens.
  std::size_t failuresToOpen = 3;
  /// Submissions rejected with CircuitOpen while open; the next job after
  /// that runs as the single half-open probe (success closes the circuit,
  /// failure re-opens it for another openForJobs submissions). While the
  /// probe is in flight, further jobs for the structure are rejected with
  /// CircuitOpen — exactly one job tests the water at a time.
  std::size_t openForJobs = 8;
};

struct DegradationPolicy {
  /// Master switch for the degraded final attempt.
  bool enabled = true;
  /// Multiplies every positive solver tolerance on the degraded attempt
  /// (>= 1; a relaxed target is better than no answer).
  double toleranceRelaxFactor = 10.0;
  /// Swap a top-level CG for BiCGStab on the degraded attempt (more robust
  /// to the nonsymmetric perturbations faults introduce).
  bool cgToBicgstab = true;
  /// Degraded attempt exchanges halos per cell — many small transfers
  /// instead of few blockwise ones, so a degraded link or flaky exchange
  /// path carries less payload per transfer.
  bool perCellHalo = true;
};

struct ServiceOptions {
  std::size_t workers = 2;
  /// Simulated-IPU geometry of every pipeline the service builds.
  std::size_t tiles = 32;
  /// Explicit machine shape (chips x tiles, link model) for every pipeline;
  /// overrides `tiles` and GRAPHENE_TEST_POD. JSON spelling:
  ///   "topology": {"ipus": 4, "tilesPerIpu": 16}
  std::optional<ipu::Topology> topology = std::nullopt;
  /// Host threads per engine (0 = Engine's default resolution). Workers
  /// multiply this — keep workers × hostThreads near the core count.
  std::size_t hostThreads = 0;
  /// Warm pipelines kept across jobs (0 disables the plan cache).
  std::size_t planCacheCapacity = 8;
  /// Default per-job deadline in simulated cycles (0 = none). Deterministic:
  /// the same job hits it at the same superstep on every run.
  double defaultDeadlineCycles = 0;
  /// Default per-job wall-clock deadline in seconds (0 = none).
  double defaultDeadlineSeconds = 0;
  /// Ring capacity of each pipeline's TraceSink; 0 disables engine-level
  /// tracing (the service's own job timeline is always on).
  std::size_t traceCapacity = support::TraceSink::kDefaultCapacity;
  /// Terminal job results retained for wait(): once more than this many
  /// jobs are terminal, the oldest results (including their solution
  /// vectors) are released in completion order, bounding the service's
  /// memory at steady state. wait() on a released id is an error naming
  /// this knob. 0 = retain everything (a long-running server will grow
  /// without bound).
  std::size_t maxRetainedResults = 1024;
  /// TCP port for the embedded HTTP telemetry listener (127.0.0.1 only):
  /// GET /metrics (Prometheus text), /healthz, /jobs, /flight/<id>.
  /// -1 disables it; 0 binds an ephemeral port (read it back via
  /// httpPort()).
  int metricsPort = -1;
  /// Sealed flight records retained for the last N terminal jobs
  /// (GET /flight/<id>); 0 disables retention (failed jobs still dump
  /// when flightDir is set).
  std::size_t flightRecorderJobs = 16;
  /// Per-job flight-recorder event ring capacity.
  std::size_t flightEventCapacity = 256;
  /// Directory for automatic black-box dumps (flight-job<id>.jsonl) of
  /// failed jobs; "" disables dumping. The directory must exist.
  std::string flightDir;
  /// Path of the JSONL structured event log (appended); "" disables it.
  std::string logPath;
  RetryPolicy retry;
  AdmissionPolicy admission;
  CircuitBreakerPolicy breaker;
  DegradationPolicy degradation;
};

/// Builds ServiceOptions from JSON, strictly validated in the solver-config
/// style: unknown keys and wrong JSON types are errors naming the offending
/// key and listing the valid ones; range violations name the key and the
/// valid range. Accepted shape (all keys optional):
///   {"workers": 4, "tiles": 32, "hostThreads": 0, "planCacheCapacity": 8,
///    "defaultDeadlineCycles": 0, "defaultDeadlineSeconds": 0,
///    "traceCapacity": 65536, "maxRetainedResults": 1024,
///    "metricsPort": -1, "flightRecorderJobs": 16,
///    "flightEventCapacity": 256, "flightDir": "", "logPath": "",
///    "retry": {"maxRetries": 2, "backoffBaseMs": 1, "backoffFactor": 2,
///              "backoffMaxMs": 20, "jitter": 0.1},
///    "admission": {"maxQueueDepth": 64, "sramPoolBytes": 0,
///                  "headroom": 0.9},
///    "breaker": {"failuresToOpen": 3, "openForJobs": 8},
///    "degradation": {"enabled": true, "toleranceRelaxFactor": 10,
///                    "cgToBicgstab": true, "perCellHalo": true}}
ServiceOptions serviceOptionsFromJson(const json::Value& config);

struct SolveJobOptions {
  /// Simulated-cycle deadline; < 0 uses the service default, 0 disables.
  double deadlineCycles = -1;
  /// Wall-clock deadline in seconds; < 0 uses the service default,
  /// 0 disables.
  double deadlineSeconds = -1;
  /// Optional fault-injection plan for this job (chaos soaks).
  std::optional<json::Value> faultPlan;
};

/// The terminal outcome of a job. Exactly one of these is true for every
/// submitted job: solve.status is a verdict, or typedError is set with the
/// error text in message. Both are first-class, testable outcomes.
struct JobResult {
  std::size_t jobId = SIZE_MAX;
  SolveResult solve;     // status NotRun when typedError is set
  std::vector<double> x;
  /// A graphene::Error escaped the final attempt (e.g. hard-fault recovery
  /// budget exhausted) — an allowed, *typed* failure mode.
  bool typedError = false;
  std::string message;   // error text / rejection reason / degradation note
  std::size_t attempts = 0;    // solve attempts actually executed
  bool degraded = false;       // final result came from a degraded config
  bool planCacheHit = false;   // last attempt leased a warm pipeline
  double simCycles = 0;        // simulated cycles across all attempts
  double wallSeconds = 0;      // wall time from accept to terminal verdict
};

class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});
  ~SolverService();  // shutdown()s if the caller did not
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueues a solve job. Returns its stable job id immediately; the job
  /// is already terminal (AdmissionRejected) when admission control refused
  /// it — wait() still returns its typed result. Submitting after
  /// shutdown() is an error.
  std::size_t submit(const matrix::GeneratedMatrix& m,
                     const json::Value& solverConfig,
                     std::vector<double> rhs, SolveJobOptions jobOptions = {});

  /// Blocks until the job is terminal and returns its result. Each job's
  /// result may be waited on from any thread, any number of times, while it
  /// is retained — the service keeps the last maxRetainedResults terminal
  /// results and releases older ones (waiting on a released id is an
  /// error).
  JobResult wait(std::size_t jobId);

  /// submit + wait.
  JobResult solve(const matrix::GeneratedMatrix& m,
                  const json::Value& solverConfig, std::vector<double> rhs,
                  SolveJobOptions jobOptions = {});

  /// Requests cooperative cancellation. A queued job is cancelled before it
  /// starts; a running one stops after its current superstep. Returns false
  /// when the job is unknown or already terminal.
  bool cancel(std::size_t jobId);

  /// Drains the queue, joins the workers and drops the pooled pipelines.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Thread-safe service counters (service.jobs.*, service.plan_cache.*).
  const support::MetricsRegistry& metrics() const { return metrics_; }
  /// Prometheus text exposition of metrics() — safe to call concurrently
  /// with running jobs.
  std::string metricsText() const {
    return support::metricsToPrometheusText(metrics_);
  }

  /// Consistent copy of the service's job-lifecycle timeline (events are
  /// stamped with job ids; see recordJobEvent).
  support::TraceSink traceSnapshot() const;

  /// Port of the embedded HTTP listener (0 when metricsPort is -1). With
  /// metricsPort = 0 this is the ephemeral port the kernel assigned.
  std::uint16_t httpPort() const { return http_.port(); }
  /// The /healthz document: topology fingerprint and alive shape, queue
  /// depth, breaker states, job tallies. Safe against in-flight solves.
  json::Value healthJson() const;
  /// The /jobs document: every retained job (queued, running, terminal)
  /// with its phase and verdict, ascending by id.
  json::Value jobsJson() const;
  /// Per-job black boxes (GET /flight/<id> serves flightRecordToJsonl of
  /// these records).
  const FlightRecorder& flightRecorder() const { return flight_; }
  /// The structured JSONL event log (nullptr when logPath is "").
  support::LogSink* logSink() const { return log_.get(); }

  PlanCache::Stats planCacheStats() const { return cache_.stats(); }
  /// Warm pipelines currently pooled (0 after shutdown()).
  std::size_t pooledPipelines() const { return cache_.size(); }
  const ServiceOptions& options() const { return options_; }

  /// The machine shape pipelines are currently built for: the constructor's
  /// resolved topology (explicit `topology` > GRAPHENE_TEST_POD > plain
  /// `tiles`), minus any chips retired by chip-dead verdicts since. Its
  /// deadIpus() / fingerprint() expose the elastic-shrink state.
  ipu::Topology resolvedTopology() const;

 private:
  struct Job {
    std::size_t id = SIZE_MAX;
    matrix::GeneratedMatrix m;
    json::Value solverConfig;
    std::vector<double> rhs;
    SolveJobOptions jobOptions;
    /// matrixStructureHash(m), hashed once in submit(); every structure
    /// fingerprint of the job is finished from it.
    std::uint64_t matrixHash = 0;
    std::size_t sramCharge = 0;
    std::chrono::steady_clock::time_point acceptedAt;
  };

  struct JobState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::atomic<bool> cancelRequested{false};
    JobResult result;
    /// Where the job is in its lifecycle ("queued" / "running" /
    /// "done"), for /jobs. Guarded by mu.
    const char* phase = "queued";
    /// Identity fields for the flight record, written once in submit()
    /// (before the job is visible to workers) and read at seal time.
    std::uint64_t structureFp = 0;
    std::uint64_t configFp = 0;
    std::uint64_t topologyFp = 0;
    std::string solverConfigDump;
    std::chrono::steady_clock::time_point acceptedAt;
  };

  struct Breaker {
    std::size_t consecutiveFailures = 0;
    std::size_t openRemaining = 0;  // submissions still quarantined
    bool halfOpen = false;          // next job runs as the probe
    bool probeInFlight = false;     // the probe is running: admit no others
  };

  void workerLoop();
  JobResult runJob(Job& job, const std::shared_ptr<JobState>& state);
  void finishJob(const std::shared_ptr<JobState>& state, JobResult result);
  std::size_t estimateSramCharge(const matrix::GeneratedMatrix& m,
                                 std::uint64_t structureHash);
  /// The one emission point for lifecycle events: bumps the event's
  /// counter, builds its trace event once for the service timeline and the
  /// job's flight ring, and appends the structured-log line — all under the
  /// same name from the job_events table.
  void recordJob(const JobEvent& event, std::size_t jobId,
                 const std::string& detail = "");
  void observeTerminal(const JobResult& result);
  support::HttpServer::Response handleHttp(const std::string& path);

  ServiceOptions options_;
  /// Derived in the ctor with the topology resolved eagerly; mutated (under
  /// mu_) only by the chip-dead shrink path in runJob. Workers snapshot it
  /// per attempt.
  SessionOptions sessionOptions_;
  PlanCache cache_;
  support::MetricsRegistry metrics_;

  mutable std::mutex traceMu_;
  support::TraceSink trace_;
  std::uint64_t traceSeq_ = 0;

  FlightRecorder flight_;
  std::unique_ptr<support::LogSink> log_;
  support::HttpServer http_;

  mutable std::mutex mu_;  // queue, job table, breakers, SRAM accounting,
                           // sessionOptions_ (topology shrink)
  std::condition_variable queueCv_;    // workers wait for jobs
  std::condition_variable chargeCv_;   // workers wait for SRAM charge
  std::deque<Job> queue_;
  std::map<std::size_t, std::shared_ptr<JobState>> jobs_;
  std::deque<std::size_t> doneIds_;  // terminal jobs in completion order
  std::map<std::uint64_t, Breaker> breakers_;
  std::map<std::uint64_t, std::size_t> knownSramPeak_;  // by structure hash
  std::size_t runningCharge_ = 0;
  std::size_t nextJobId_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace graphene::solver
