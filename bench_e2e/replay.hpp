// Traced replay of a service pass: every timed request driven again through
// the layer entry points SolveSession::solve calls, in its order and with
// the attachments the service makes, each call timed from outside with an
// in-memory span.
#pragma once

#include <cstddef>
#include <vector>

#include "ipu/profile.hpp"
#include "workloads.hpp"

namespace bench_e2e {

/// One timed call. Spans of one request share `request` (-1 for pipelines
/// built in the set-up phase); `parent` indexes the enclosing span, -1 for
/// a root. Names are string literals.
struct Span {
  const char* name = "";
  double startMs = 0;
  double endMs = 0;
  int parent = -1;
  long request = -1;
};

/// What the replay observed of one timed request.
struct Replayed {
  std::vector<double> x;
  double simCycles = 0;
  std::size_t iterations = 0;       // SolveResult::iterations (MPIR: outer)
  std::size_t innerIterations = 0;  // iterations of the nested solver
  graphene::ipu::Profile profile;   // of the run the service would make
};

struct Replay {
  std::vector<Span> spans;
  std::vector<Replayed> requests;  // parallel to Workload::timed
  /// Static program statistics, averaged over the pipelines that served
  /// timed requests.
  double programSteps = 0;
  double fusedSteps = 0;
  double vertices = 0;
};

/// Replays `w.timed`. `planCacheHit[i]` tells whether the service leased a
/// warm pipeline for request i; the replay leases or builds exactly where
/// the service did. After each request, outside its span, two probe runs
/// are timed: "probe.warm_run" repeats the run on the warm engine with the
/// state re-uploaded, "probe.bare_run" runs a fresh engine with no trace
/// sink or cancel check. Both must reproduce the request's cycles and
/// solution, or this throws.
Replay replay(const Workload& w, const std::vector<bool>& planCacheHit);

}  // namespace bench_e2e
