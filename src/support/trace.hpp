// Execution tracing & metrics — the observability layer of the simulator.
//
// The paper's whole evaluation (§VI) rests on Poplar's profiling feature;
// aggregate counters (ipu::Profile) answer "how many cycles", but not *when*
// they were spent, which tile was the straggler of a superstep, or how a
// fault event lines up with a residual spike. A TraceSink records a merged
// timeline of everything the engine and the solver layer do:
//
//   ComputeSuperstep  one BSP compute superstep (per compute-set category,
//                     with per-tile cycle min/mean/max + the straggler tile)
//   Sync              the on-chip BSP sync ending a compute superstep
//   ExchangeSuperstep one exchange superstep (cycles + bytes on the wire)
//   Iteration         one solver iteration / refinement (residual attached)
//   Fault             an injected hardware fault (bitflip, drop, stall, ...)
//   Recovery          a solver recovery action (restart / rollback)
//
// Pay-for-what-you-use: nothing in this header runs unless a sink is
// attached to the engine — every emission site is a single null-pointer
// test. The sink is only a timeline: a fixed-capacity ring buffer (old
// events are overwritten, a drop counter keeps the bookkeeping honest).
// The run's totals live once, in ipu::Profile, which the engine keeps with
// or without a sink; ipu::profileSummaryTable() renders them as the
// paper's Table IV breakdown.
//
// traceToChromeJson() (trace.cpp) exports the timeline as Chrome
// trace_event JSON — load the file in chrome://tracing or Perfetto; one row
// per compute category, one per solver, plus exchange/sync/fault rows and a
// residual counter track.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace graphene::support {

enum class TraceKind : std::uint8_t {
  ComputeSuperstep,
  ExchangeSuperstep,
  Sync,
  Iteration,
  Fault,
  Recovery,
  Job,  // solve-job lifecycle (accepted/start/retry/done — SolverService)
};

const char* toString(TraceKind kind);

/// One timeline event. `startCycle` is the engine's monotonic simulated
/// clock; durations are simulated cycles (zero for instantaneous events).
struct TraceEvent {
  TraceKind kind = TraceKind::ComputeSuperstep;
  std::string name;  // compute-set category / solver name / fault kind
  double startCycle = 0;
  double durationCycles = 0;
  std::size_t superstep = 0;  // compute- or exchange-superstep index

  /// Stable id of the solve job this event belongs to; SIZE_MAX when the
  /// trace covers a single anonymous solve. Job lifecycle events carry it
  /// (recordJobEvent), and TraceSink::setJobId stamps it onto the events of
  /// a sink shared by several solves, so exporters can group rows by job.
  std::size_t jobId = SIZE_MAX;

  // ComputeSuperstep: per-tile cycle distribution across the active tiles.
  double tileMin = 0;
  double tileMean = 0;
  double tileMax = 0;
  std::size_t stragglerTile = SIZE_MAX;  // tile that set the critical path
  std::size_t activeTiles = 0;

  // ExchangeSuperstep
  std::size_t bytes = 0;

  // Iteration
  std::size_t iteration = 0;
  double residual = -1.0;  // < 0 when the solver does not measure one

  std::string detail;

  bool operator==(const TraceEvent& o) const;
};

/// Fixed exponential bucket ladder of a Histogram: bucket i covers values
/// up to firstBound * growth^i (i in [0, bucketCount)), plus a final +Inf
/// overflow bucket. The ladder is part of a histogram's identity: merges
/// require identical ladders, and bucket placement is a deterministic
/// compare loop against multiplied-out bounds — no libm, so the same value
/// lands in the same bucket on every host and at any thread count.
struct HistogramLadder {
  double firstBound = 1.0;
  double growth = 2.0;
  std::size_t bucketCount = 40;

  bool operator==(const HistogramLadder& o) const {
    return firstBound == o.firstBound && growth == o.growth &&
           bucketCount == o.bucketCount;
  }

  /// Upper bound (inclusive, Prometheus `le`) of bucket i; +Inf for the
  /// overflow bucket i == bucketCount.
  double upperBound(std::size_t i) const;
  /// Index of the bucket `value` falls into (the +Inf bucket included).
  std::size_t bucketFor(double value) const;
};

/// A fixed-ladder histogram: per-bucket observation counts plus the exact
/// sum and count (the Prometheus _bucket/_sum/_count triple). Merging adds
/// bucket counts (integers — exact) and sums; with a deterministic merge
/// order the result is bit-identical at any host thread count, which is
/// what Profile::operator+= provides.
struct Histogram {
  HistogramLadder ladder;
  /// ladder.bucketCount + 1 entries; the last is the +Inf overflow bucket.
  /// Non-cumulative (exposition accumulates on the way out).
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0;

  explicit Histogram(HistogramLadder l = {})
      : ladder(l), buckets(l.bucketCount + 1, 0) {}

  void observe(double value);
  /// Merge; the ladders must match (checked).
  Histogram& operator+=(const Histogram& o);

  /// Quantile estimate from the bucket counts, Prometheus-style: find the
  /// bucket holding the q-th observation, interpolate linearly inside it.
  /// Observations in the +Inf bucket clamp to the last finite bound; an
  /// empty histogram reports 0.
  double quantile(double q) const;

  bool operator==(const Histogram& o) const {
    return ladder == o.ladder && buckets == o.buckets && count == o.count &&
           sum == o.sum;
  }
};

/// Named counters, gauges and histograms that engine, codelets and solvers
/// can tick (SpMV FLOPs, halo bytes, restart counts, job latency
/// distributions). Counters accumulate; gauges keep their last written
/// value; histograms bucket every observation on a fixed exponential
/// ladder.
///
/// Mutations and point reads are thread-safe (internally locked): a solver
/// service ticks one shared registry from every pooled worker thread while
/// a metrics endpoint scrapes it. The bulk accessors counters()/gauges()
/// return references without locking — they are for single-threaded
/// consumers (profiles, tests); concurrent scrapers take snapshot() or use
/// metricsToPrometheusText, which snapshots internally.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry& o);
  MetricsRegistry& operator=(const MetricsRegistry& o);

  void addCounter(const std::string& name, double delta);
  void setGauge(const std::string& name, double value);
  /// Buckets `value` into the named histogram. The ladder is applied on the
  /// histogram's first touch only (it is part of the histogram's identity
  /// from then on — a later observe with a different ladder keeps the
  /// original one).
  void observe(const std::string& name, double value,
               const HistogramLadder& ladder = {});

  /// Optional per-metric help text, emitted as a Prometheus `# HELP` line
  /// by metricsToPrometheusText. Help is documentation, not data: merges
  /// and copies carry it, clear() drops it with everything else.
  void setHelp(const std::string& name, const std::string& text);

  /// Value of a counter/gauge, 0 when never touched.
  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  /// Locked copy of a histogram; an empty default-ladder histogram when
  /// never observed.
  Histogram histogram(const std::string& name) const;

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::string>& help() const { return help_; }

  /// Consistent locked copy — the safe way to read a registry other threads
  /// are still writing to.
  MetricsRegistry snapshot() const { return *this; }

  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void clear();

  /// Merge for Profile::operator+=: counters add, gauges take the
  /// right-hand (newer) value, histograms merge bucket-wise (ladders must
  /// match), help takes the right-hand text.
  MetricsRegistry& operator+=(const MetricsRegistry& o);

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::string> help_;
};

/// Prometheus text exposition (version 0.0.4) of a registry: counters as
/// `counter`, gauges as `gauge`, histograms as `histogram` with the
/// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`, names
/// sanitised to the Prometheus charset ([a-zA-Z_:][a-zA-Z0-9_:]*, every
/// other character becomes '_') and prefixed with `prefix` (itself
/// sanitised; pass "" for none). Metrics with registered help text get a
/// `# HELP` line before their `# TYPE`. Output is sorted by metric name
/// within each kind — deterministic, scrape-ready.
std::string metricsToPrometheusText(const MetricsRegistry& metrics,
                                    const std::string& prefix = "graphene");

/// Ring-buffered event timeline. It keeps no totals: those are the engine's
/// ipu::Profile's, so a wrapped ring loses timeline detail, never a total.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  void record(TraceEvent event);

  /// Stamps every subsequently recorded event that carries no job id of its
  /// own with `id` (SIZE_MAX turns stamping off), so engine- and
  /// solver-level events of several solves through one sink stay
  /// attributable to their job.
  void setJobId(std::size_t id) { jobId_ = id; }

  /// Events still in the ring, oldest first.
  std::vector<TraceEvent> events() const;

  std::size_t recorded() const { return recorded_; }
  std::size_t dropped() const {
    return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  }

  /// Restores the sink to empty.
  void clear();

 private:
  std::size_t capacity_;
  std::size_t recorded_ = 0;
  std::size_t jobId_ = SIZE_MAX;
  std::vector<TraceEvent> ring_;
};

/// Records a solver iteration/refinement sample. No-op on a null sink, so
/// host convergence callbacks can call it unconditionally.
void recordIteration(TraceSink* sink, const std::string& solver,
                     std::size_t iteration, double residual, double cycle,
                     std::size_t superstep);

/// Records a solve-job lifecycle event ("job:accepted", "job:start",
/// "job:retry", "job:done", ...) attributed to `jobId`. `sequence` orders
/// events on the service's merged timeline (service events have no shared
/// simulated clock — concurrent engines each run their own). Returns the
/// event, so a caller can hand the same event to another consumer; a null
/// sink records nothing.
TraceEvent recordJobEvent(TraceSink* sink, const std::string& name,
                          std::size_t jobId, double sequence,
                          const std::string& detail = "");

/// Serialises the sink's timeline as Chrome trace_event JSON (the
/// "traceEvents" array format understood by chrome://tracing and Perfetto).
/// Cycles map to microseconds 1:1 — the UI's time axis reads as cycles.
json::Value traceToChromeJson(const TraceSink& sink);

/// Compute cycles per category, summed over the ComputeSuperstep events
/// still in the ring. On a ring that has not wrapped this equals the traced
/// engine's Profile::computeCycles bit-for-bit (same values summed in the
/// same order); on a wrapped ring it covers the surviving window only.
std::map<std::string, double> traceComputeCycles(const TraceSink& sink);

}  // namespace graphene::support
