// LogSink — a structured JSONL event stream.
//
// TraceSink answers "what happened inside one solve" with a cycle-stamped
// ring buffer; a long-running service also needs the *operational* story as
// an append-only machine-readable log. LogSink writes one JSON object per
// line (JSONL — `jq`-able, tail -f-able). SolverService logs its own start
// and shutdown, every job lifecycle event (accepted, start, retry, done,
// ...) under the same stable names and job ids the service timeline and the
// service.* counters use, and a failed flight-record dump:
//
//   {"event":"service:start","seq":0,"tiles":16,"topologyFingerprint":...}
//   {"detail":"nan-detected","event":"job:retry","jobId":4,"seq":15}
//   {"detail":"nan-detected","event":"job:done","jobId":4,"seq":18}
//
// Injected faults and recovery actions are not logged; a job's fault log
// is in its flight record (see solver/flight_recorder.hpp).
//
// Lines are written under a mutex (one writer call = one complete line —
// concurrent workers never interleave mid-line) and flushed per event: a
// crashing process keeps everything up to its last event. `seq` is a
// monotonic per-sink counter, so a merged/post-processed log can always be
// re-ordered exactly as written.
#pragma once

#include <cstddef>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>

#include "support/json.hpp"

namespace graphene::support {

class LogSink {
 public:
  /// Appends to `path` (created if missing). Throws graphene::Error when
  /// the file cannot be opened.
  explicit LogSink(const std::string& path);
  /// Writes to a caller-owned stream (tests, stdout logging). The stream
  /// must outlive the sink.
  explicit LogSink(std::ostream& os);

  LogSink(const LogSink&) = delete;
  LogSink& operator=(const LogSink&) = delete;

  /// Emits one event line. `jobId` SIZE_MAX means "not job-scoped" and is
  /// omitted from the line; `fields` are merged into the object (they
  /// cannot override "seq"/"event"/"jobId").
  void log(const std::string& event, std::size_t jobId = SIZE_MAX,
           json::Object fields = {});

  /// Events written so far.
  std::size_t written() const;

 private:
  mutable std::mutex mu_;
  std::ofstream file_;
  std::ostream* os_ = nullptr;  // file_ or the caller's stream
  std::size_t seq_ = 0;
};

}  // namespace graphene::support
