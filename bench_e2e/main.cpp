// End-to-end solve benchmark: one workload through the public SolverService
// API with default service options, every answer checked.
//
//   bench_e2e --workload timestep --seed 1 --seconds 10 --trace 0
//             [--trace-out spans.jsonl]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same service
// pass, replays its requests through the layer entry points (replay.hpp)
// and prints the per-layer metrics; --trace-out names the JSONL file the
// replay's spans are written to. The last stdout line is the result,
//   {"attempted": N, "correct": true, "failed": 0, "metrics": {...}},
// and the line before it records the run's shape. Exit status: 0 when every
// answer verified, 1 when one did not or the run failed, 2 on bad usage or
// a GRAPHENE_* variable in the environment.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/cpu_solver.hpp"
#include "replay.hpp"
#include "workloads.hpp"

extern char** environ;

namespace bench_e2e {
namespace {

using namespace graphene;
using Clock = std::chrono::steady_clock;

// Untraced runs set the service up this many times; setup_s is the median.
constexpr std::size_t kSetupRepeats = 7;
constexpr std::size_t kCpuMaxIterations = 20000;
// The paper's Table IV categories; other compute cycles report as "other".
constexpr const char* kTableIvCategories[] = {"spmv", "reduce", "ilu_solve",
                                              "extended_precision"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string traceOut;
};

Args parseArgs(int argc, char** argv) {
  if (argc % 2 != 1) {
    throw std::invalid_argument("arguments come in --key value pairs");
  }
  Args a;
  bool haveSeed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      haveSeed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--trace-out") {
      a.traceOut = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  const std::vector<std::string>& names = workloadNames();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!haveSeed) throw std::invalid_argument("--seed is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  return a;
}

/// GRAPHENE_* variables in the environment. Each changes the program being
/// timed: pod shape, host threads, fusion, fast paths, halo plans.
std::vector<std::string> grapheneVariables() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("GRAPHENE_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  return names;
}

double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Linearly interpolated quantile; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// ‖b − A·x‖₂ / ‖b‖₂ in double precision.
double relResidual(const matrix::CsrMatrix& a, std::span<const double> x,
                   std::span<const double> b) {
  std::vector<double> ax(b.size(), 0.0);
  a.spmv(x, ax);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = b[i] - ax[i];
    num += d * d;
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// CPUs this process may run on, as `nproc` counts them.
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

void put(json::Object& m, const std::string& name, double value,
         const char* unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  json::Object o;
  o["value"] = value;
  o["unit"] = unit;
  m[name] = json::Value(o);
}

/// One timed request as the client saw it.
struct Served {
  solver::JobResult result;
  double latencyMs = 0;
  double lagMs = 0;  // open loop: how late the generator sent it
};

struct ServicePass {
  std::vector<double> setupSeconds;  // one per set-up
  std::vector<Served> served;        // parallel to Workload::timed
  double timedSeconds = 0;
  // Service telemetry of the timed phase alone.
  support::Histogram queueWait;
  double retries = 0;
  double rejected = 0;
  solver::PlanCache::Stats cache;
};

/// A service plus every pipeline the timed phase leases: untimed solves
/// until each set-up structure has been built `pipelinesPerStructure` times.
/// The copies of a structure are submitted together, so with several
/// workers one leases the pooled pipeline while the others miss and build.
std::unique_ptr<solver::SolverService> setUp(const Workload& w) {
  auto service = std::make_unique<solver::SolverService>(w.options);
  std::vector<std::size_t> builds(w.setup.size(), 0);
  for (int round = 0; round < 32; ++round) {
    std::vector<std::pair<std::size_t, std::size_t>> jobs;  // (setup, id)
    for (std::size_t s = 0; s < w.setup.size(); ++s) {
      if (builds[s] >= w.pipelinesPerStructure) continue;
      for (std::size_t k = 0; k < w.pipelinesPerStructure; ++k) {
        jobs.emplace_back(
            s, service->submit(*w.setup[s].m, w.config, w.setup[s].rhs));
      }
    }
    if (jobs.empty()) return service;
    for (const auto& [s, id] : jobs) {
      const solver::JobResult r = service->wait(id);
      if (r.typedError || r.solve.status != solver::SolveStatus::Converged) {
        throw std::runtime_error(std::string("a set-up solve ended ") +
                                 solver::toString(r.solve.status) + " " +
                                 r.message);
      }
      if (!r.planCacheHit) ++builds[s];
    }
  }
  throw std::runtime_error("set-up could not build every pipeline");
}

/// The observations a histogram gained between two snapshots.
support::Histogram since(support::Histogram after,
                         const support::Histogram& before) {
  if (before.count == 0) return after;
  for (std::size_t i = 0; i < after.buckets.size(); ++i) {
    after.buckets[i] -= before.buckets[i];
  }
  after.count -= before.count;
  after.sum -= before.sum;
  return after;
}

ServicePass runService(const Workload& w, std::size_t setupRepeats) {
  ServicePass pass;
  std::unique_ptr<solver::SolverService> service;
  for (std::size_t k = 0; k < setupRepeats; ++k) {
    service.reset();  // tearing the previous one down is not set-up time
    const Clock::time_point t0 = Clock::now();
    service = setUp(w);
    pass.setupSeconds.push_back(msBetween(t0, Clock::now()) / 1e3);
  }
  const support::MetricsRegistry& metrics = service->metrics();
  const support::Histogram waitBefore =
      metrics.histogram("service.queue_wait_ms");
  const double retriedBefore = metrics.counter("service.jobs.retried");
  const double rejectedBefore = metrics.counter("service.jobs.rejected");
  const solver::PlanCache::Stats cacheBefore = service->planCacheStats();

  pass.served.resize(w.timed.size());
  const Clock::time_point start = Clock::now();
  if (w.openLoop) {
    std::vector<std::size_t> ids(w.timed.size());
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
      const Request& q = w.timed[i];
      std::vector<double> rhs = q.rhs;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(q.dueSeconds));
      // Spin rather than sleep: a sleeping generator wakes late by a
      // scheduler-dependent amount, which would be charged to the request.
      while (Clock::now() < due) {
      }
      pass.served[i].lagMs = msBetween(due, Clock::now());
      ids[i] = service->submit(*q.m, w.config, std::move(rhs));
    }
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
      Served& s = pass.served[i];
      s.result = service->wait(ids[i]);
      // Due time to verdict: the generator's lag plus the service's
      // accept-to-verdict time.
      s.latencyMs = s.lagMs + s.result.wallSeconds * 1e3;
      pass.timedSeconds = std::max(
          pass.timedSeconds, w.timed[i].dueSeconds + s.latencyMs / 1e3);
    }
  } else {
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
      const Request& q = w.timed[i];
      std::vector<double> rhs = q.rhs;
      const Clock::time_point t0 = Clock::now();
      pass.served[i].result =
          service->wait(service->submit(*q.m, w.config, std::move(rhs)));
      pass.served[i].latencyMs = msBetween(t0, Clock::now());
    }
    pass.timedSeconds = msBetween(start, Clock::now()) / 1e3;
  }
  pass.queueWait =
      since(metrics.histogram("service.queue_wait_ms"), waitBefore);
  pass.retries = metrics.counter("service.jobs.retried") - retriedBefore;
  pass.rejected = metrics.counter("service.jobs.rejected") - rejectedBefore;
  const solver::PlanCache::Stats cacheAfter = service->planCacheStats();
  pass.cache.hits = cacheAfter.hits - cacheBefore.hits;
  pass.cache.misses = cacheAfter.misses - cacheBefore.misses;
  return pass;
}

/// Every timed answer checked, plus the CPU baseline on each system.
struct Checked {
  std::size_t failed = 0;
  double residualMax = 0;
  std::vector<double> cpuMs;
};

Checked verify(const Workload& w, const ServicePass& pass) {
  Checked c;
  const double cpuTolerance = w.config.at("tolerance").asNumber();
  for (std::size_t i = 0; i < w.timed.size(); ++i) {
    const Request& q = w.timed[i];
    const solver::JobResult& r = pass.served[i].result;
    std::string why;
    if (r.typedError || r.solve.status != solver::SolveStatus::Converged) {
      why = std::string("ended ") + solver::toString(r.solve.status) + " " +
            r.message;
    } else if (r.x.size() != q.rhs.size()) {
      why = "the solution has the wrong length";
    } else {
      const double rel = relResidual(q.m->matrix, r.x, q.rhs);
      if (std::isfinite(rel)) c.residualMax = std::max(c.residualMax, rel);
      if (!(rel <= w.verifyTolerance)) {
        why = "host residual " + std::to_string(rel);
      }
    }
    const baseline::HostSolveResult cpu =
        w.baselineBiCgStab
            ? baseline::hostBiCgStab(q.m->matrix, q.rhs, cpuTolerance,
                                     kCpuMaxIterations, true)
            : baseline::hostCg(q.m->matrix, q.rhs, cpuTolerance,
                               kCpuMaxIterations, false);
    c.cpuMs.push_back(cpu.seconds * 1e3);
    if (why.empty() && !cpu.converged) {
      why = "the CPU baseline did not converge";
    }
    if (!why.empty()) {
      ++c.failed;
      std::fprintf(stderr, "request %zu failed: %s\n", i, why.c_str());
    }
  }
  return c;
}

json::Object endToEnd(const ServicePass& pass, const Checked& checked) {
  std::vector<double> latency;
  double cycles = 0;
  for (const Served& s : pass.served) {
    latency.push_back(s.latencyMs);
    cycles += s.result.simCycles;
  }
  const auto n = static_cast<double>(pass.served.size());
  json::Object m;
  put(m, "setup_s", quantile(pass.setupSeconds, 0.5), "s");
  put(m, "latency_p50_ms", quantile(latency, 0.5), "ms");
  put(m, "latency_p90_ms", quantile(latency, 0.9), "ms");
  put(m, "solves_per_s",
      (n - static_cast<double>(checked.failed)) / pass.timedSeconds, "1/s");
  put(m, "sim_cycles_per_solve", cycles / n, "cycles");
  put(m, "rel_residual_max", checked.residualMax, "1");
  put(m, "peak_rss_mb", peakRssMb(), "MB");
  return m;
}

/// Upper bound of the histogram bucket holding quantile q. The service's
/// latency ladders are octave-wide, so the bound is the measurement.
double bucketBound(const support::Histogram& h, double q) {
  if (h.count == 0) return 0;
  const std::size_t last = h.ladder.bucketCount - 1;
  const double target = q * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    seen += static_cast<double>(h.buckets[i]);
    if (seen >= target) return h.ladder.upperBound(std::min(i, last));
  }
  return h.ladder.upperBound(last);
}

/// Requests whose replay differs from the service's answer in solution
/// bits, simulated cycles or iterations.
std::size_t compareReplay(const ServicePass& pass, const Replay& r) {
  std::size_t differ = 0;
  for (std::size_t i = 0; i < pass.served.size(); ++i) {
    const solver::JobResult& s = pass.served[i].result;
    const Replayed& q = r.requests[i];
    if (s.x != q.x || s.simCycles != q.simCycles ||
        s.solve.iterations != q.iterations) {
      ++differ;
      std::fprintf(stderr,
                   "request %zu: the replay differs from the service "
                   "(cycles %.17g vs %.17g, iterations %zu vs %zu)\n",
                   i, q.simCycles, s.simCycles, q.iterations,
                   s.solve.iterations);
    }
  }
  return differ;
}

json::Object perLayer(const Workload& w, const ServicePass& pass,
                      const Checked& checked, const Replay& r) {
  const std::size_t n = w.timed.size();
  const auto dn = static_cast<double>(n);
  const std::vector<Span>& spans = r.spans;

  // Self time: a span's duration minus its children's.
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].endMs - spans[i].startMs;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.endMs - s.startMs;
    }
  }
  std::map<std::string, double> selfSum;  // over the timed requests
  std::vector<double> requestMs(n, 0.0), runMs(n, 0.0), warmMs(n, 0.0),
      bareMs(n, 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.request < 0) continue;
    const auto q = static_cast<std::size_t>(s.request);
    const std::string name = s.name;
    const double ms = s.endMs - s.startMs;
    selfSum[name] += self[i];
    if (name == "request") {
      requestMs[q] = ms;
    } else if (name == "engine.run") {
      runMs[q] = ms;
    } else if (name == "probe.warm_run") {
      warmMs[q] = ms;
    } else if (name == "probe.bare_run") {
      bareMs[q] = ms;
    }
  }
  const auto meanSelf = [&](const char* name) {
    const auto it = selfSum.find(name);
    return it == selfSum.end() ? 0.0 : it->second / dn;
  };

  std::vector<double> latency, lag;
  double overheadMs = 0;
  for (std::size_t q = 0; q < n; ++q) {
    latency.push_back(pass.served[q].latencyMs);
    lag.push_back(pass.served[q].lagMs);
    overheadMs += pass.served[q].latencyMs - requestMs[q];
  }
  const double latencySum = sum(latency);

  ipu::Profile total;
  double iterations = 0, inner = 0;
  for (const Replayed& q : r.requests) {
    total += q.profile;
    iterations += static_cast<double>(q.iterations);
    inner += static_cast<double>(q.innerIterations);
  }
  const double runSum = sum(runMs);
  const auto hits = static_cast<double>(pass.cache.hits);
  const auto misses = static_cast<double>(pass.cache.misses);

  json::Object m;
  put(m, "service.queue_wait_ms", bucketBound(pass.queueWait, 0.9), "ms");
  put(m, "service.overhead_ms", overheadMs / dn, "ms");
  put(m, "service.retries", pass.retries, "count");
  put(m, "service.rejected", pass.rejected, "count");
  put(m, "plan_cache.hits", hits, "count");
  put(m, "plan_cache.misses", misses, "count");
  put(m, "plan_cache.hit_ratio",
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "1");
  put(m, "session.update_values_ms", meanSelf("session.update_values"), "ms");
  put(m, "partition.layout_ms", meanSelf("partition.layout"), "ms");
  put(m, "build.dist_matrix_ms", meanSelf("build.dist_matrix"), "ms");
  put(m, "build.emit_ms", meanSelf("build.emit"), "ms");
  put(m, "build.program_steps", r.programSteps, "count");
  put(m, "build.fused_steps", r.fusedSteps, "count");
  put(m, "build.vertices", r.vertices, "count");
  put(m, "engine.construct_ms", meanSelf("engine.construct"), "ms");
  put(m, "engine.upload_ms", meanSelf("engine.upload"), "ms");
  put(m, "engine.run_ms", runSum / dn, "ms");
  put(m, "engine.plan_build_ms", (runSum - sum(warmMs)) / dn, "ms");
  put(m, "engine.hook_overhead_frac", runSum / sum(bareMs) - 1.0, "1");
  put(m, "engine.readback_ms", meanSelf("engine.readback"), "ms");
  put(m, "engine.vertices_per_s",
      static_cast<double>(total.verticesExecuted) / (runSum / 1e3), "1/s");
  put(m, "sim.compute_cycles", total.totalComputeCycles() / dn, "cycles");
  put(m, "sim.exchange_cycles", total.exchangeCycles / dn, "cycles");
  put(m, "sim.sync_cycles", total.syncCycles / dn, "cycles");
  double named = 0;
  for (const char* category : kTableIvCategories) {
    const auto it = total.computeCycles.find(category);
    const double cycles = it == total.computeCycles.end() ? 0.0 : it->second;
    named += cycles;
    put(m, std::string("sim.compute_cycles.") + category, cycles / dn,
        "cycles");
  }
  put(m, "sim.compute_cycles.other",
      (total.totalComputeCycles() - named) / dn, "cycles");
  put(m, "sim.exchanged_bytes",
      static_cast<double>(total.exchangedBytes) / dn, "B");
  put(m, "sim.exchange_instructions",
      static_cast<double>(total.exchangeInstructions) / dn, "count");
  put(m, "sim.supersteps",
      static_cast<double>(total.computeSupersteps +
                          total.exchangeSupersteps) / dn,
      "count");
  put(m, "sim.inter_ipu_bytes",
      static_cast<double>(total.interIpuBytes) / dn, "B");
  put(m, "sim.exchange_inter_cycles", total.exchangeInterCycles / dn,
      "cycles");
  put(m, "solver.iterations_mean", iterations / dn, "count");
  put(m, "solver.inner_iterations_mean", inner / dn, "count");
  put(m, "loadgen.lag_p90_ms", w.openLoop ? quantile(lag, 0.9) : 0.0, "ms");
  put(m, "baseline.cpu_solve_ms", sum(checked.cpuMs) / dn, "ms");
  put(m, "trace.overhead_frac",
      quantile(requestMs, 0.5) / quantile(latency, 0.5) - 1.0, "1");
  put(m, "trace.unattributed_frac", meanSelf("request") * dn / latencySum,
      "1");

  double layersMs = 0;
  for (const auto& [name, ms] : selfSum) {
    if (name != "request" && name.rfind("probe.", 0) != 0) layersMs += ms / dn;
  }
  std::fprintf(stderr,
               "accounting: mean latency %.4f ms = service overhead %.4f + "
               "layer self times %.4f + unattributed %.4f\n",
               latencySum / dn, overheadMs / dn, layersMs,
               meanSelf("request"));
  return m;
}

void writeSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    json::Object o;
    o["id"] = i;
    o["name"] = spans[i].name;
    o["start_ms"] = spans[i].startMs;
    o["end_ms"] = spans[i].endMs;
    o["parent"] = spans[i].parent;
    o["request"] = static_cast<double>(spans[i].request);
    out << json::Value(o).dump() << '\n';
  }
  if (!out) throw std::runtime_error("could not write the spans to " + path);
}

int run(const Args& args) {
  const Workload w = makeWorkload(args.workload, args.seed, args.seconds);
  const ServicePass pass =
      runService(w, args.trace == 1 ? 1 : kSetupRepeats);
  const Checked checked = verify(w, pass);
  bool correct = checked.failed == 0;
  json::Object metrics;
  if (args.trace == 0) {
    metrics = endToEnd(pass, checked);
  } else {
    std::vector<bool> hits;
    for (const Served& s : pass.served) hits.push_back(s.result.planCacheHit);
    const Replay r = replay(w, hits);
    correct = compareReplay(pass, r) == 0 && correct;
    metrics = perLayer(w, pass, checked, r);
    if (!args.traceOut.empty()) writeSpans(args.traceOut, r.spans);
  }

  std::size_t minIterations = SIZE_MAX, maxIterations = 0;
  for (const Served& s : pass.served) {
    minIterations = std::min(minIterations, s.result.solve.iterations);
    maxIterations = std::max(maxIterations, s.result.solve.iterations);
  }
  json::Object shape;
  shape["workload"] = w.name;
  shape["seed"] = std::to_string(args.seed);
  shape["nproc"] = nproc();
  shape["workers"] = w.options.workers;
  shape["host_threads_per_engine"] = w.options.hostThreads;
  shape["loop"] = w.openLoop ? "open" : "closed";
  shape["timed_requests"] = w.timed.size();
  shape["latency_samples"] = pass.served.size();
  shape["setup_repeats"] = pass.setupSeconds.size();
  shape["plan_cache_hits"] = pass.cache.hits;
  shape["plan_cache_misses"] = pass.cache.misses;
  shape["iterations_min"] = minIterations;
  shape["iterations_max"] = maxIterations;
  std::printf("%s\n", json::Value(shape).dump().c_str());

  json::Object result;
  result["correct"] = correct;
  result["attempted"] = w.timed.size();
  result["failed"] = checked.failed;
  result["metrics"] = json::Value(metrics);
  std::printf("%s\n", json::Value(result).dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  bench_e2e::Args args;
  try {
    args = bench_e2e::parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--trace-out PATH]\n",
                 e.what());
    return 2;
  }
  const std::vector<std::string> env = bench_e2e::grapheneVariables();
  if (!env.empty()) {
    std::string names;
    for (const std::string& name : env) names += " " + name;
    std::fprintf(stderr,
                 "bench_e2e: refusing to run with%s set: GRAPHENE_* "
                 "variables change the program being timed\n",
                 names.c_str());
    return 2;
  }
  try {
    return bench_e2e::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
