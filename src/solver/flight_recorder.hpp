// FlightRecorder — the per-job "black box" of the serving layer.
//
// When a solve job dies in production the postmortem questions are always
// the same: what happened to the job, which faults fired and which
// recoveries ran, what did the watchdog see, and which exact configuration
// was it running? Scrolling a service-wide trace ring for that is hopeless
// once thousands of jobs have flowed through it — the ring has long
// wrapped. The flight recorder instead keeps a small bounded buffer *per
// job* while it runs (its own lifecycle events — job:accepted, job:start,
// job:retry, ..., job:done — plus the fault log and health report of its
// final attempt) and retains the sealed record for the last N terminal
// jobs. Pipeline events (supersteps, iterations) stay in the pipeline's
// trace ring: the record holds only what is the job's own.
//
// On a failed job the service dumps the record automatically as a JSONL
// artifact (one self-describing object per line — the aviation black box,
// not the whole fleet's radar): a `job` header line with verdict, attempts
// and fingerprints, one `trace` line per lifecycle event, one `fault` line
// per fault-log entry, and a `health` line with the watchdog report.
// `GET /flight/<id>` serves the same JSONL for any retained job, failed or
// not.
//
// All methods are thread-safe; per-job event buffers are rings (capacity
// `eventCapacity`, oldest dropped, a counter keeps the loss honest), so a
// pathological job cannot grow the recorder without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ipu/profile.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace graphene::solver {

/// Everything retained about one job. Sealed (verdict set) when the job
/// reaches a terminal state.
struct FlightRecord {
  std::size_t jobId = SIZE_MAX;
  std::string verdict;     // SolveStatus string or "typed-error"
  std::string message;     // error text / rejection reason
  std::size_t attempts = 0;
  bool degraded = false;
  double simCycles = 0;
  double wallSeconds = 0;
  std::uint64_t structureFingerprint = 0;
  std::uint64_t configFingerprint = 0;
  std::uint64_t topologyFingerprint = 0;
  std::string solverConfig;  // canonical compact dump

  /// The job's lifecycle events, oldest first. Bounded — `droppedEvents`
  /// counts what the ring overwrote.
  std::vector<support::TraceEvent> events;
  std::size_t droppedEvents = 0;

  /// Structured fault log of the final attempt (faults injected and
  /// recovery actions taken, execution order; the session carries earlier
  /// remap attempts' entries into it).
  std::vector<ipu::FaultEvent> faultLog;
  /// Watchdog health report of the final attempt ({} when none ran).
  json::Value healthReport;
};

class FlightRecorder {
 public:
  /// Keeps sealed records of the last `retainJobs` terminal jobs; each
  /// job's event buffer holds the last `eventCapacity` events.
  explicit FlightRecorder(std::size_t retainJobs = 16,
                          std::size_t eventCapacity = 256);

  /// Opens the in-flight buffer of a job (called at submit). Idempotent.
  void open(std::size_t jobId);

  /// Appends a timeline event to the job's ring. Unknown/never-opened jobs
  /// are ignored — emission sites stay unconditional.
  void record(std::size_t jobId, const support::TraceEvent& event);

  /// Folds one solve attempt's artifacts in: its fault log and health
  /// report replace the previous attempt's (the final attempt is the one a
  /// postmortem wants; each retry is already a job:retry event).
  void recordAttempt(std::size_t jobId, std::vector<ipu::FaultEvent> faultLog,
                     json::Value healthReport);

  /// Seals the record with its terminal header fields and moves it to the
  /// retained ring (evicting the oldest sealed record beyond the
  /// retention). Returns the sealed record — still valid with retention 0,
  /// so a dump-on-failure works even when nothing is retained.
  FlightRecord seal(std::size_t jobId, FlightRecord header);

  /// Copy of a retained (sealed) or in-flight record.
  std::optional<FlightRecord> record(std::size_t jobId) const;
  /// Ids with a retained sealed record, oldest first.
  std::vector<std::size_t> sealedJobs() const;

  std::size_t retainJobs() const { return retainJobs_; }

 private:
  struct Buffer {
    FlightRecord record;
    std::size_t ringStart = 0;  // next overwrite position once full
    bool sealed = false;
  };

  mutable std::mutex mu_;
  std::size_t retainJobs_;
  std::size_t eventCapacity_;
  std::map<std::size_t, Buffer> jobs_;
  std::deque<std::size_t> sealedOrder_;
};

/// Serialises a record as the JSONL black-box artifact (see the header
/// comment for the line schema). Deterministic: same record, same bytes.
std::string flightRecordToJsonl(const FlightRecord& record);

/// Writes the artifact as `<dir>/flight-job<id>.jsonl` (dir must exist).
/// Returns the path written. Throws graphene::Error on I/O failure.
std::string dumpFlightRecord(const FlightRecord& record,
                             const std::string& dir);

}  // namespace graphene::solver
