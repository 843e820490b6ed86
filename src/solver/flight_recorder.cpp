#include "solver/flight_recorder.hpp"

#include <algorithm>
#include <fstream>

#include "ipu/fault.hpp"
#include "support/error.hpp"

namespace graphene::solver {

namespace {

/// One lifecycle event as a flat JSON object.
json::Object traceEventToJson(const support::TraceEvent& ev) {
  json::Object o;
  o["type"] = "trace";
  o["kind"] = std::string(support::toString(ev.kind));
  o["name"] = ev.name;
  o["startCycle"] = ev.startCycle;
  if (ev.jobId != SIZE_MAX) o["jobId"] = ev.jobId;
  if (!ev.detail.empty()) o["detail"] = ev.detail;
  return o;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t retainJobs,
                               std::size_t eventCapacity)
    : retainJobs_(retainJobs),
      eventCapacity_(std::max<std::size_t>(eventCapacity, 1)) {}

void FlightRecorder::open(std::size_t jobId) {
  std::lock_guard<std::mutex> lock(mu_);
  Buffer& b = jobs_[jobId];  // idempotent: an existing buffer is kept
  b.record.jobId = jobId;
}

void FlightRecorder::record(std::size_t jobId,
                            const support::TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(jobId);
  if (it == jobs_.end() || it->second.sealed) return;
  Buffer& b = it->second;
  if (b.record.events.size() < eventCapacity_) {
    b.record.events.push_back(event);
  } else {
    b.record.events[b.ringStart] = event;
    b.ringStart = (b.ringStart + 1) % eventCapacity_;
    b.record.droppedEvents += 1;
  }
}

void FlightRecorder::recordAttempt(std::size_t jobId,
                                   std::vector<ipu::FaultEvent> faultLog,
                                   json::Value healthReport) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(jobId);
  if (it == jobs_.end() || it->second.sealed) return;
  // The final attempt's fault log / health report replace earlier ones:
  // that is the attempt whose verdict the job carries.
  it->second.record.faultLog = std::move(faultLog);
  it->second.record.healthReport = std::move(healthReport);
}

FlightRecord FlightRecorder::seal(std::size_t jobId, FlightRecord header) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(jobId);
  if (it == jobs_.end()) {
    it = jobs_.emplace(jobId, Buffer{}).first;
  }
  Buffer& b = it->second;
  if (b.sealed) return b.record;
  // Rotate the ring so the record reads oldest-first.
  if (b.ringStart > 0) {
    std::rotate(b.record.events.begin(),
                b.record.events.begin() +
                    static_cast<std::ptrdiff_t>(b.ringStart),
                b.record.events.end());
    b.ringStart = 0;
  }
  header.jobId = jobId;
  header.events = std::move(b.record.events);
  header.droppedEvents = b.record.droppedEvents;
  header.faultLog = std::move(b.record.faultLog);
  header.healthReport = std::move(b.record.healthReport);
  b.record = std::move(header);
  b.sealed = true;
  FlightRecord out = b.record;
  if (retainJobs_ == 0) {
    jobs_.erase(it);
    return out;
  }
  sealedOrder_.push_back(jobId);
  while (sealedOrder_.size() > retainJobs_) {
    jobs_.erase(sealedOrder_.front());
    sealedOrder_.pop_front();
  }
  return out;
}

std::optional<FlightRecord> FlightRecorder::record(std::size_t jobId) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(jobId);
  if (it == jobs_.end()) return std::nullopt;
  FlightRecord copy = it->second.record;
  if (!it->second.sealed && it->second.ringStart > 0) {
    std::rotate(copy.events.begin(),
                copy.events.begin() +
                    static_cast<std::ptrdiff_t>(it->second.ringStart),
                copy.events.end());
  }
  return copy;
}

std::vector<std::size_t> FlightRecorder::sealedJobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {sealedOrder_.begin(), sealedOrder_.end()};
}

std::string flightRecordToJsonl(const FlightRecord& record) {
  std::string out;
  const auto line = [&out](json::Object o) {
    out += json::Value(std::move(o)).dump();
    out += "\n";
  };

  json::Object header;
  header["type"] = "job";
  header["jobId"] = record.jobId;
  header["verdict"] = record.verdict;
  if (!record.message.empty()) header["message"] = record.message;
  header["attempts"] = record.attempts;
  header["degraded"] = record.degraded;
  header["simCycles"] = record.simCycles;
  header["wallSeconds"] = record.wallSeconds;
  header["structureFingerprint"] = std::to_string(record.structureFingerprint);
  header["configFingerprint"] = std::to_string(record.configFingerprint);
  header["topologyFingerprint"] = std::to_string(record.topologyFingerprint);
  if (!record.solverConfig.empty()) {
    header["solverConfig"] = record.solverConfig;
  }
  header["bufferedEvents"] = record.events.size();
  header["droppedEvents"] = record.droppedEvents;
  line(std::move(header));

  for (const support::TraceEvent& ev : record.events) {
    line(traceEventToJson(ev));
  }
  // Reuse the fault-log JSON schema (round-trips through
  // faultEventsFromJson), one entry per line tagged as "fault".
  const json::Value faults = ipu::faultEventsToJson(record.faultLog);
  for (const json::Value& f : faults.asArray()) {
    json::Object o = f.asObject();
    o["type"] = "fault";
    line(std::move(o));
  }
  if (record.healthReport.isObject() &&
      !record.healthReport.asObject().empty()) {
    json::Object o;
    o["type"] = "health";
    o["report"] = record.healthReport;
    line(std::move(o));
  }
  return out;
}

std::string dumpFlightRecord(const FlightRecord& record,
                             const std::string& dir) {
  GRAPHENE_CHECK(!dir.empty(), "dumpFlightRecord: empty directory");
  std::string path = dir;
  if (path.back() != '/') path += '/';
  path += "flight-job" + std::to_string(record.jobId) + ".jsonl";
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  GRAPHENE_CHECK(out.is_open(), "dumpFlightRecord: cannot write '", path,
                 "' (does the directory exist?)");
  out << flightRecordToJsonl(record);
  out.close();
  GRAPHENE_CHECK(out.good(), "dumpFlightRecord: write to '", path,
                 "' failed");
  return path;
}

}  // namespace graphene::solver
