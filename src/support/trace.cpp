#include "support/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "support/error.hpp"

namespace graphene::support {

const char* toString(TraceKind kind) {
  switch (kind) {
    case TraceKind::ComputeSuperstep: return "compute";
    case TraceKind::ExchangeSuperstep: return "exchange";
    case TraceKind::Sync: return "sync";
    case TraceKind::Iteration: return "iteration";
    case TraceKind::Fault: return "fault";
    case TraceKind::Recovery: return "recovery";
    case TraceKind::Job: return "job";
  }
  return "unknown";
}

bool TraceEvent::operator==(const TraceEvent& o) const {
  return kind == o.kind && name == o.name && startCycle == o.startCycle &&
         durationCycles == o.durationCycles && superstep == o.superstep &&
         tileMin == o.tileMin && tileMean == o.tileMean &&
         tileMax == o.tileMax && stragglerTile == o.stragglerTile &&
         activeTiles == o.activeTiles && bytes == o.bytes &&
         iteration == o.iteration && residual == o.residual &&
         detail == o.detail && jobId == o.jobId;
}

double HistogramLadder::upperBound(std::size_t i) const {
  if (i >= bucketCount) return std::numeric_limits<double>::infinity();
  double bound = firstBound;
  for (std::size_t k = 0; k < i; ++k) bound *= growth;
  return bound;
}

std::size_t HistogramLadder::bucketFor(double value) const {
  // A multiply-and-compare walk instead of log(): bit-deterministic on
  // every host, and the ladders in use are a few dozen buckets at most.
  double bound = firstBound;
  for (std::size_t i = 0; i < bucketCount; ++i) {
    if (value <= bound) return i;
    bound *= growth;
  }
  return bucketCount;  // +Inf overflow bucket
}

void Histogram::observe(double value) {
  buckets[ladder.bucketFor(value)] += 1;
  count += 1;
  sum += value;
}

Histogram& Histogram::operator+=(const Histogram& o) {
  GRAPHENE_CHECK(ladder == o.ladder,
                 "histogram merge with mismatched bucket ladders (",
                 ladder.firstBound, "x", ladder.growth, "^",
                 ladder.bucketCount, " vs ", o.ladder.firstBound, "x",
                 o.ladder.growth, "^", o.ladder.bucketCount, ")");
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
  count += o.count;
  sum += o.sum;
  return *this;
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the q-th observation, 1-based; walk the cumulative counts.
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t prev = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank || buckets[i] == 0) continue;
    const double hi = ladder.upperBound(i);
    if (std::isinf(hi)) {
      // Prometheus convention: quantiles cannot reach into +Inf — clamp to
      // the largest finite bound.
      return ladder.upperBound(ladder.bucketCount - 1);
    }
    const double lo = i == 0 ? 0.0 : ladder.upperBound(i - 1);
    const double frac = (rank - static_cast<double>(prev)) /
                        static_cast<double>(buckets[i]);
    return lo + (hi - lo) * std::min(std::max(frac, 0.0), 1.0);
  }
  return ladder.upperBound(ladder.bucketCount - 1);
}

MetricsRegistry::MetricsRegistry(const MetricsRegistry& o) {
  std::lock_guard<std::mutex> lock(o.mu_);
  counters_ = o.counters_;
  gauges_ = o.gauges_;
  histograms_ = o.histograms_;
  help_ = o.help_;
}

MetricsRegistry& MetricsRegistry::operator=(const MetricsRegistry& o) {
  if (this == &o) return *this;
  std::map<std::string, double> counters, gauges;
  std::map<std::string, Histogram> histograms;
  std::map<std::string, std::string> help;
  {
    std::lock_guard<std::mutex> lock(o.mu_);
    counters = o.counters_;
    gauges = o.gauges_;
    histograms = o.histograms_;
    help = o.help_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = std::move(counters);
  gauges_ = std::move(gauges);
  histograms_ = std::move(histograms);
  help_ = std::move(help);
  return *this;
}

void MetricsRegistry::addCounter(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::setGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double value,
                              const HistogramLadder& ladder) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(ladder)).first;
  }
  it->second.observe(value);
}

void MetricsRegistry::setHelp(const std::string& name,
                              const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[name] = text;
}

double MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

Histogram MetricsRegistry::histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram{} : it->second;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  help_.clear();
}

MetricsRegistry& MetricsRegistry::operator+=(const MetricsRegistry& o) {
  // Snapshot the source first: locking both registries at once would
  // deadlock against a concurrent merge in the opposite direction.
  const MetricsRegistry src = o.snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : src.counters_) counters_[k] += v;
  for (const auto& [k, v] : src.gauges_) gauges_[k] = v;
  for (const auto& [k, v] : src.histograms_) {
    auto it = histograms_.find(k);
    if (it == histograms_.end()) {
      histograms_.emplace(k, v);
    } else {
      it->second += v;
    }
  }
  for (const auto& [k, v] : src.help_) help_[k] = v;
  return *this;
}

namespace {

/// Maps a metric name onto the Prometheus charset: [a-zA-Z_:] first, then
/// [a-zA-Z0-9_:]; anything else (dots, dashes, spaces) becomes '_'.
std::string sanitizePrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    const bool digit = c >= '0' && c <= '9';
    out += alpha || (digit && i > 0) ? c : '_';
  }
  return out.empty() ? "_" : out;
}

void appendPrometheusValue(std::ostream& os, double value) {
  // %.17g round-trips doubles; integral values print without an exponent.
  char buf[64];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", value);
  }
  os << buf;
}

}  // namespace

std::string metricsToPrometheusText(const MetricsRegistry& metrics_,
                                    const std::string& prefix) {
  // Scrape from a consistent locked snapshot: the service ticks the shared
  // registry from every worker thread while the endpoint renders it, and a
  // torn read (map rebalancing mid-iteration) must not corrupt the scrape.
  const MetricsRegistry metrics = metrics_.snapshot();
  const std::string p =
      prefix.empty() ? "" : sanitizePrometheusName(prefix) + "_";
  std::ostringstream os;
  const auto header = [&](const std::string& rawName, const char* type) {
    const std::string m = p + sanitizePrometheusName(rawName);
    auto it = metrics.help().find(rawName);
    if (it != metrics.help().end()) {
      os << "# HELP " << m << " " << it->second << "\n";
    }
    os << "# TYPE " << m << " " << type << "\n";
    return m;
  };
  // std::map iteration gives each family in name order already.
  for (const auto& [name, value] : metrics.counters()) {
    const std::string m = header(name, "counter");
    os << m << " ";
    appendPrometheusValue(os, value);
    os << "\n";
  }
  for (const auto& [name, value] : metrics.gauges()) {
    const std::string m = header(name, "gauge");
    os << m << " ";
    appendPrometheusValue(os, value);
    os << "\n";
  }
  for (const auto& [name, h] : metrics.histograms()) {
    const std::string m = header(name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      os << m << "_bucket{le=\"";
      const double bound = h.ladder.upperBound(i);
      if (std::isinf(bound)) {
        os << "+Inf";
      } else {
        appendPrometheusValue(os, bound);
      }
      os << "\"} " << cumulative << "\n";
    }
    os << m << "_sum ";
    appendPrometheusValue(os, h.sum);
    os << "\n" << m << "_count " << h.count << "\n";
  }
  return os.str();
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void TraceSink::record(TraceEvent event) {
  if (jobId_ != SIZE_MAX && event.jobId == SIZE_MAX) event.jobId = jobId_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    if (recorded_ == capacity_) {
      // Warn exactly once per filled ring: from here on the timeline is
      // truncated. stderr, not an error — a wrapped ring is a working
      // configuration, just a lossy one, and the Profile's totals are
      // unaffected.
      std::fprintf(stderr,
                   "graphene: trace ring capacity %zu reached; oldest "
                   "timeline events are being dropped\n",
                   capacity_);
    }
    ring_[recorded_ % capacity_] = std::move(event);
  }
  recorded_ += 1;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  const std::size_t start = recorded_ > capacity_ ? recorded_ % capacity_ : 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void TraceSink::clear() {
  ring_.clear();
  recorded_ = 0;
  // jobId_ survives clear() deliberately: it is the sink's configuration
  // (who is currently being traced), not recorded state.
}

void recordIteration(TraceSink* sink, const std::string& solver,
                     std::size_t iteration, double residual, double cycle,
                     std::size_t superstep) {
  if (sink == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceKind::Iteration;
  ev.name = solver;
  ev.startCycle = cycle;
  ev.superstep = superstep;
  ev.iteration = iteration;
  ev.residual = residual;
  sink->record(std::move(ev));
}

TraceEvent recordJobEvent(TraceSink* sink, const std::string& name,
                          std::size_t jobId, double sequence,
                          const std::string& detail) {
  TraceEvent ev;
  ev.kind = TraceKind::Job;
  ev.name = name;
  ev.jobId = jobId;
  ev.startCycle = sequence;
  ev.detail = detail;
  if (sink != nullptr) sink->record(ev);
  return ev;
}

namespace {

/// Stable row (Chrome "thread") ids: compute categories first, then the
/// machine rows, then one row per solver, then the fault/recovery row.
class RowIds {
 public:
  int idFor(const std::string& rowName) {
    auto it = ids_.find(rowName);
    if (it != ids_.end()) return it->second;
    const int id = static_cast<int>(ids_.size()) + 1;
    ids_.emplace(rowName, id);
    order_.push_back(rowName);
    return id;
  }
  const std::vector<std::string>& order() const { return order_; }
  int lookup(const std::string& rowName) const { return ids_.at(rowName); }

 private:
  std::map<std::string, int> ids_;
  std::vector<std::string> order_;
};

std::string rowNameFor(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceKind::ComputeSuperstep: return "compute:" + ev.name;
    case TraceKind::ExchangeSuperstep: return "exchange";
    case TraceKind::Sync: return "sync";
    case TraceKind::Iteration: return "solver:" + ev.name;
    case TraceKind::Fault:
    case TraceKind::Recovery: return "faults";
    case TraceKind::Job: return "jobs";
  }
  return "other";
}

/// Chrome process id for an event: jobs map to distinct pids so interleaved
/// concurrent solves through one sink render as separate process groups.
int pidFor(const TraceEvent& ev) {
  return ev.jobId == SIZE_MAX ? 0 : static_cast<int>(ev.jobId) + 1;
}

}  // namespace

json::Value traceToChromeJson(const TraceSink& sink) {
  const std::vector<TraceEvent> events = sink.events();
  RowIds rows;
  json::Array traceEvents;

  std::set<int> pids;
  for (const TraceEvent& ev : events) {
    const int tid = rows.idFor(rowNameFor(ev));
    const int pid = pidFor(ev);
    pids.insert(pid);
    json::Object e;
    e["name"] = ev.name;
    e["cat"] = std::string(toString(ev.kind));
    e["pid"] = pid;
    e["tid"] = tid;
    e["ts"] = ev.startCycle;
    json::Object args;
    args["superstep"] = ev.superstep;
    if (ev.jobId != SIZE_MAX) args["jobId"] = ev.jobId;
    switch (ev.kind) {
      case TraceKind::ComputeSuperstep:
        e["ph"] = std::string("X");
        e["dur"] = ev.durationCycles;
        args["tileMin"] = ev.tileMin;
        args["tileMean"] = ev.tileMean;
        args["tileMax"] = ev.tileMax;
        args["stragglerTile"] = ev.stragglerTile;
        args["activeTiles"] = ev.activeTiles;
        break;
      case TraceKind::ExchangeSuperstep:
      case TraceKind::Sync:
        e["ph"] = std::string("X");
        e["dur"] = ev.durationCycles;
        if (ev.kind == TraceKind::ExchangeSuperstep) {
          args["bytes"] = ev.bytes;
        }
        break;
      case TraceKind::Iteration:
        e["ph"] = std::string("i");
        e["s"] = std::string("t");  // instant scope: thread
        args["iteration"] = ev.iteration;
        if (ev.residual >= 0) args["residual"] = ev.residual;
        break;
      case TraceKind::Fault:
      case TraceKind::Recovery:
      case TraceKind::Job:
        e["ph"] = std::string("i");
        e["s"] = std::string("p");  // instant scope: process-wide
        break;
    }
    if (!ev.detail.empty()) args["detail"] = ev.detail;
    e["args"] = std::move(args);
    traceEvents.push_back(json::Value(std::move(e)));

    // A residual counter track per solver row: Perfetto plots it as a
    // graph, which is how a fault event visually lines up with its
    // residual spike.
    if (ev.kind == TraceKind::Iteration && ev.residual >= 0) {
      json::Object c;
      c["name"] = "residual:" + ev.name;
      c["ph"] = std::string("C");
      c["pid"] = pid;
      c["ts"] = ev.startCycle;
      json::Object cargs;
      // log10 keeps the counter track readable over 10+ decades.
      cargs["log10"] = std::log10(std::max(ev.residual, 1e-300));
      c["args"] = std::move(cargs);
      traceEvents.push_back(json::Value(std::move(c)));
    }
  }

  // Name the rows and processes (metadata events, the Chrome convention).
  // Row names repeat per process: each job renders as its own pid group.
  for (const int pid : pids) {
    if (pid != 0) {
      json::Object pm;
      pm["name"] = std::string("process_name");
      pm["ph"] = std::string("M");
      pm["pid"] = pid;
      json::Object pargs;
      pargs["name"] = "job " + std::to_string(pid - 1);
      pm["args"] = std::move(pargs);
      traceEvents.push_back(json::Value(std::move(pm)));
    }
    for (const std::string& rowName : rows.order()) {
      json::Object m;
      m["name"] = std::string("thread_name");
      m["ph"] = std::string("M");
      m["pid"] = pid;
      m["tid"] = rows.lookup(rowName);
      json::Object args;
      args["name"] = rowName;
      m["args"] = std::move(args);
      traceEvents.push_back(json::Value(std::move(m)));
    }
  }

  json::Object root;
  root["traceEvents"] = json::Value(std::move(traceEvents));
  root["displayTimeUnit"] = std::string("ns");
  json::Object meta;
  meta["recordedEvents"] = sink.recorded();
  meta["droppedEvents"] = sink.dropped();
  meta["clockDomain"] = std::string("simulated-ipu-cycles");
  root["otherData"] = std::move(meta);
  return json::Value(std::move(root));
}

std::map<std::string, double> traceComputeCycles(const TraceSink& sink) {
  std::map<std::string, double> out;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind == TraceKind::ComputeSuperstep) {
      out[ev.name] += ev.durationCycles;
    }
  }
  return out;
}

}  // namespace graphene::support
