// Traced replay; see replay.hpp. Each helper mirrors one piece of
// SolveSession (load + configure, solve) for a fault-free solve, so the
// replay's numbers belong to the path the service runs.
#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "dsl/context.hpp"
#include "graph/compiler.hpp"
#include "graph/engine.hpp"
#include "partition/partitioner.hpp"
#include "solver/plan_cache.hpp"
#include "solver/session.hpp"
#include "solver/solver.hpp"
#include "support/trace.hpp"

namespace bench_e2e {

namespace {

using namespace graphene;

/// Appends spans to a log; a new span's parent is the innermost open one.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>& spans) : spans_(spans) {}

  void setRequest(long id) { request_ = id; }

  void open(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back({name, nowMs(), 0.0, parent, request_});
  }

  void close() {
    spans_[static_cast<std::size_t>(open_.back())].endMs = nowMs();
    open_.pop_back();
  }

  template <typename Call>
  void time(const char* name, Call&& call) {
    open(name);
    call();
    close();
  }

 private:
  double nowMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::vector<Span>& spans_;
  std::vector<int> open_;
  long request_ = -1;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// The objects a SolveSession owns, held by hand.
struct Pipeline {
  explicit Pipeline(std::size_t traceCapacity) : trace(traceCapacity) {}

  support::TraceSink trace;  // declared first: outlives the engine using it
  std::atomic<bool> cancelRequested{false};
  std::unique_ptr<dsl::Context> ctx;
  std::unique_ptr<solver::DistMatrix> A;
  std::unique_ptr<solver::Solver> solver;
  std::optional<dsl::Tensor> x, b;
  std::unique_ptr<graph::Engine> engine;
  matrix::CsrMatrix hostMatrix;  // the session's host copy of A
  std::uint64_t valuesHash = 0;
  bool counted = false;  // already in the static program statistics
};

/// SolveSession::load + configure, plus the emission its first solve does.
/// Leaves the pipeline's context bound to this thread.
std::unique_ptr<Pipeline> build(const Workload& w, const ipu::Topology& topo,
                                const matrix::GeneratedMatrix& m,
                                std::uint64_t valuesHash, Tracer& t) {
  auto p = std::make_unique<Pipeline>(
      std::max<std::size_t>(w.options.traceCapacity, 1));
  p->hostMatrix = m.matrix;
  p->valuesHash = valuesHash;
  p->ctx = std::make_unique<dsl::Context>(topo.target());
  p->ctx->graph().setControlTile(0);
  p->ctx->graph().setExcludedTiles({});
  std::optional<partition::DistributedLayout> layout;
  t.time("partition.layout",
         [&] { layout.emplace(partition::Partitioner(topo).layout(m)); });
  t.time("build.dist_matrix", [&] {
    p->A = std::make_unique<solver::DistMatrix>(m.matrix, std::move(*layout));
  });
  t.time("build.emit", [&] {
    p->solver = solver::makeSolver(w.config);
    p->x.emplace(p->A->makeVector(solver::DType::Float32, "session_x"));
    p->b.emplace(p->A->makeVector(solver::DType::Float32, "session_b"));
    p->solver->apply(*p->A, *p->x, *p->b);
  });
  return p;
}

/// SolveSession::solve without faults, with the attachments the service
/// makes: the trace sink stamped with the job id, and a cancel check.
void solve(Pipeline& p, const Workload& w, std::span<const double> rhs,
           std::size_t jobId, Tracer& t, Replayed& out) {
  p.trace.clear();
  p.solver->clearHistory();
  t.time("engine.construct", [&] {
    p.engine = std::make_unique<graph::Engine>(p.ctx->graph(),
                                               w.options.hostThreads);
  });
  p.engine->setExcludedTiles({});
  if (w.options.traceCapacity > 0) p.engine->setTraceSink(&p.trace);
  p.trace.setJobId(jobId);
  const solver::SolveSession::CancelCheck jobCheck =
      [&p](double) -> const char* {
    return p.cancelRequested.load(std::memory_order_relaxed)
               ? "cancel-requested"
               : nullptr;
  };
  p.engine->setCancelCheck([jobCheck](const graph::Engine& e) {
    return jobCheck(e.simCycles());
  });
  // The nested solver's history grows across solves; count this solve's.
  const solver::Solver* inner = p.solver->preconditioner();
  const std::size_t innerBefore =
      inner != nullptr ? inner->history().size() : 0;
  t.time("engine.upload", [&] {
    p.A->upload(*p.engine);
    p.A->writeVector(*p.engine, *p.b, rhs);
  });
  t.time("engine.run", [&] { p.engine->run(p.ctx->program()); });
  t.time("engine.readback",
         [&] { out.x = p.A->readVector(*p.engine, *p.x); });
  p.trace.setJobId(SIZE_MAX);
  out.simCycles = p.engine->simCycles();
  out.iterations = p.solver->result().iterations;
  const std::size_t innerAfter =
      inner != nullptr ? inner->history().size() : 0;
  out.innerIterations =
      innerAfter >= innerBefore ? innerAfter - innerBefore : innerAfter;
  out.profile = p.engine->profile();
}

/// Times the two probe runs (see replay.hpp) and checks both against `ref`.
void probe(Pipeline& p, const Workload& w, std::span<const double> rhs,
           Tracer& t, const Replayed& ref) {
  p.trace.clear();
  const double before = p.engine->simCycles();
  p.A->upload(*p.engine);
  p.A->writeVector(*p.engine, *p.b, rhs);
  t.time("probe.warm_run", [&] { p.engine->run(p.ctx->program()); });
  // The engine's clock is a running sum, so the repeat's cycles are a
  // difference of two sums: equal up to that rounding.
  const double warmCycles = p.engine->simCycles() - before;
  if (std::abs(warmCycles - ref.simCycles) > 1e-9 * ref.simCycles ||
      p.A->readVector(*p.engine, *p.x) != ref.x) {
    throw std::runtime_error("the warm repeat run diverged from the first");
  }

  graph::Engine bare(p.ctx->graph(), w.options.hostThreads);
  p.A->upload(bare);
  p.A->writeVector(bare, *p.b, rhs);
  t.time("probe.bare_run", [&] { bare.run(p.ctx->program()); });
  if (bare.simCycles() != ref.simCycles ||
      p.A->readVector(bare, *p.x) != ref.x) {
    throw std::runtime_error("the bare run diverged from the traced run");
  }
}

void countProgram(Pipeline& p, Replay& out, std::size_t& counted) {
  if (p.counted) return;
  p.counted = true;
  ++counted;
  const graph::ProgramPtr& program = p.ctx->program();
  const graph::Graph& g = p.ctx->graph();
  out.programSteps +=
      static_cast<double>(graph::analyzeProgram(program).totalSteps);
  out.fusedSteps += static_cast<double>(
      graph::analyzeProgram(graph::fuseSupersteps(program, g)).fusedSteps);
  for (std::size_t cs = 0; cs < g.numComputeSets(); ++cs) {
    out.vertices += static_cast<double>(
        g.computeSet(static_cast<graph::ComputeSetId>(cs)).vertices.size());
  }
}

}  // namespace

Replay replay(const Workload& w, const std::vector<bool>& planCacheHit) {
  Replay out;
  Tracer t(out.spans);
  solver::SessionOptions session;
  session.tiles = w.options.tiles;
  session.topology = w.options.topology;
  const ipu::Topology topo = solver::resolveSessionTopology(session);

  // The replay's plan cache, one pipeline per structure: the service's
  // per-worker copies of a structure are identical builds.
  std::map<std::size_t, std::unique_ptr<Pipeline>> warm;
  for (const Request& q : w.setup) {
    if (warm.count(q.structure) > 0) continue;
    auto p = build(w, topo, *q.m, solver::valuesFingerprint(q.m->matrix), t);
    p->ctx->unbind();
    warm[q.structure] = std::move(p);
  }

  std::size_t counted = 0;
  out.requests.resize(w.timed.size());
  for (std::size_t i = 0; i < w.timed.size(); ++i) {
    const Request& q = w.timed[i];
    // The service hashes the values too, but outside the calls a
    // SolveSession makes, so outside the request span here.
    const std::uint64_t values = solver::valuesFingerprint(q.m->matrix);
    t.setRequest(static_cast<long>(i));
    t.open("request");
    std::unique_ptr<Pipeline> fresh;
    Pipeline* p = nullptr;
    if (planCacheHit[i]) {
      const auto it = warm.find(q.structure);
      if (it == warm.end()) {
        throw std::runtime_error(
            "the service leased a pipeline the replay never built");
      }
      p = it->second.get();
      p->ctx->bind();
      if (p->valuesHash != values) {
        t.time("session.update_values", [&] {
          p->A->updateValues(q.m->matrix);
          p->hostMatrix = q.m->matrix;
        });
        p->valuesHash = values;
      }
    } else {
      fresh = build(w, topo, *q.m, values, t);
      p = fresh.get();
    }
    solve(*p, w, q.rhs, i, t, out.requests[i]);
    p->ctx->unbind();
    t.close();

    p->ctx->bind();
    probe(*p, w, q.rhs, t, out.requests[i]);
    countProgram(*p, out, counted);
    p->ctx->unbind();
    if (fresh) warm[q.structure] = std::move(fresh);
  }
  if (counted > 0) {
    const auto c = static_cast<double>(counted);
    out.programSteps /= c;
    out.fusedSteps /= c;
    out.vertices /= c;
  }
  return out;
}

}  // namespace bench_e2e
