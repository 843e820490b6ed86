// SolveSession implementation: owns the Context → layout → DistMatrix →
// Solver → Engine choreography so callers don't have to — including the
// hard-fault recovery loop (watchdog → blacklist → repartition → migrate →
// resume) documented in the header.
#include "solver/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>

#include "dsl/context.hpp"
#include "graph/engine.hpp"
#include "ipu/health.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
#include "support/error.hpp"

namespace graphene::solver {

ipu::Topology resolveSessionTopology(const SessionOptions& options) {
  if (options.topology) return *options.topology;
  GRAPHENE_CHECK(options.tiles > 0,
                 "SessionOptions.tiles must be >= 1 (got ", options.tiles,
                 ")");
  if (const char* env = std::getenv("GRAPHENE_TEST_POD")) {
    const long n = std::atol(env);
    if (n > 1 && options.tiles % static_cast<std::size_t>(n) == 0) {
      return ipu::Topology::pod(static_cast<std::size_t>(n),
                                options.tiles / static_cast<std::size_t>(n));
    }
  }
  return ipu::Topology::singleIpu(options.tiles);
}

SolveSession::SolveSession(SessionOptions options)
    : options_(options), trace_(std::max<std::size_t>(options.traceCapacity, 1)) {
  // Validate eagerly and by name: a bad knob should fail at construction
  // with the offending key and its valid range, not as a hang or a watchdog
  // misfire deep inside a later solve.
  GRAPHENE_CHECK(options_.tiles > 0,
                 "SessionOptions.tiles must be >= 1 (got ", options_.tiles,
                 ")");
  // Pin the machine shape for the session's lifetime: every rebuild (incl.
  // hard-fault remaps) must target the same pod, and the plan cache keys on
  // the resolved shape.
  options_.topology = resolveSessionTopology(options_);
  options_.tiles = options_.topology->totalTiles();
  GRAPHENE_CHECK(options_.watchdogCycleBudget > 0,
                 "SessionOptions.watchdogCycleBudget must be > 0 cycles (got ",
                 options_.watchdogCycleBudget,
                 "); it bounds one tile's compute per superstep");
  GRAPHENE_CHECK(options_.watchdogTrips >= 1,
                 "SessionOptions.watchdogTrips must be >= 1 (got ",
                 options_.watchdogTrips,
                 "); 0 would confirm a dead tile without evidence");
  GRAPHENE_CHECK(options_.watchdogIpuDeadFraction > 0 &&
                     options_.watchdogIpuDeadFraction <= 1.0,
                 "SessionOptions.watchdogIpuDeadFraction must be in (0, 1] "
                 "(got ", options_.watchdogIpuDeadFraction,
                 "); it is the fraction of a chip's tiles that must die "
                 "before the chip is declared dead");
}

SolveSession::~SolveSession() = default;

void SolveSession::buildPipeline() {
  // Teardown in dependency order: the engine holds pointers into the fault
  // plan and monitor, tensors and the solver hold handles into the context's
  // graph, and dsl::Context is thread-local single-active.
  engine_.reset();
  health_.reset();
  faultPlan_.reset();
  x_.reset();
  b_.reset();
  solver_.reset();
  A_.reset();
  ctx_.reset();
  emitted_ = false;

  const ipu::Topology& topo = *options_.topology;
  ctx_ = std::make_unique<dsl::Context>(topo.target());
  // Everything out of the machine: individually blacklisted tiles plus every
  // tile of a chip the topology has shrunk away.
  std::vector<std::size_t> excluded = blacklist_;
  for (std::size_t ipu : topo.deadIpus()) {
    for (std::size_t l = 0; l < topo.tilesPerIpu(); ++l) {
      excluded.push_back(ipu * topo.tilesPerIpu() + l);
    }
  }
  std::sort(excluded.begin(), excluded.end());
  excluded.erase(std::unique(excluded.begin(), excluded.end()),
                 excluded.end());
  GRAPHENE_CHECK(excluded.size() < options_.tiles,
                 "all ", options_.tiles,
                 " tiles are blacklisted or on dead chips");
  // Control state (reduction finals, loop conditions, scalar replicas the
  // host reads) must live on a surviving tile: the DSL defaults to tile 0,
  // which may be exactly the tile (or chip) that just died. `excluded` is
  // sorted, so this finds the first surviving tile.
  std::size_t control = 0;
  for (std::size_t t : excluded) {
    if (t == control) ++control;
  }
  ctx_->graph().setControlTile(control);
  // Per-IPU control state (two-level reduction leaders) must avoid dead
  // tiles too.
  ctx_->graph().setExcludedTiles(excluded);
  partition::Partitioner part(topo);
  part.setBlacklist(blacklist_);
  A_ = std::make_unique<DistMatrix>(m_.matrix, part.layout(m_));
  if (options_.perCellHalo) A_->setPerCellHalo(true);
  if (configured_) solver_ = makeSolver(solverConfig_);
}

SolveSession& SolveSession::load(const matrix::GeneratedMatrix& m) {
  GRAPHENE_CHECK(!loaded_, "SolveSession::load() may only be called once");
  m_ = m;
  loaded_ = true;
  buildPipeline();
  return *this;
}

SolveSession& SolveSession::load(const matrix::CsrMatrix& m) {
  matrix::GeneratedMatrix g;  // no geometry hints → BFS partitioning
  g.matrix = m;
  g.name = "csr";
  return load(g);
}

SolveSession& SolveSession::configure(const json::Value& solverConfig) {
  GRAPHENE_CHECK(!emitted_,
                 "SolveSession::configure() after solve(): the emitted "
                 "program is tied to the previous solver");
  solver_ = makeSolver(solverConfig);
  solverConfig_ = solverConfig;
  configured_ = true;
  return *this;
}

SolveSession& SolveSession::configure(const std::string& solverJsonText) {
  return configure(json::parse(solverJsonText));
}

SolveSession& SolveSession::updateMatrixValues(const matrix::CsrMatrix& m) {
  GRAPHENE_CHECK(A_, "SolveSession::updateMatrixValues() before load(): "
                     "no matrix");
  A_->updateValues(m);  // validates structure identity, refreshes staging
  // Keep the host-side copy in step: remap migration and the post-solve
  // verification both multiply with it.
  m_.matrix = m;
  return *this;
}

void SolveSession::bind() {
  if (ctx_) ctx_->bind();
}

void SolveSession::unbind() {
  if (ctx_) ctx_->unbind();
}

std::size_t SolveSession::sramPeakBytes() const {
  GRAPHENE_CHECK(ctx_, "SolveSession::sramPeakBytes() before load(): "
                       "no graph");
  return ctx_->graph().ledger().peakUsed();
}

SolveSession& SolveSession::withFaultPlan(const json::Value& planConfig) {
  // Validate eagerly (errors surface at attach time), but rebuild from JSON
  // for every solve attempt — FaultPlan rules are stateful.
  faultPlan_ = ipu::FaultPlan::fromJson(planConfig);
  faultPlanJson_ = planConfig;
  return *this;
}

SolveSession::Result SolveSession::solve(std::span<const double> rhs) {
  solveCycles_ = 0.0;  // before the checks: lastSolveCycles() covers *this* call
  GRAPHENE_CHECK(A_, "SolveSession::solve() before load(): no matrix");
  GRAPHENE_CHECK(solver_,
                 "SolveSession::solve() before configure(): no solver");
  GRAPHENE_CHECK(rhs.size() == A_->rows(), "rhs has ", rhs.size(),
                 " entries but the matrix has ", A_->rows(), " rows");

  trace_.clear();
  // Fresh tile-level report per solve; the same collector is re-attached to
  // every remap attempt's engine, so it spans the whole solve.
  tileProfile_ =
      tileProfileEnabled_ ? std::make_shared<support::TileProfile>() : nullptr;
  if (tileProfile_) tileProfile_->label = solver_->chainName();

  // Hard-fault recovery state for this solve. After a remap the rebuilt
  // pipeline solves the shifted system A·dx = b − A·x0, where x0 is the
  // iterate migrated out of the dying engine; the final answer is x0 + dx.
  std::vector<ipu::FaultEvent> carriedLog;
  std::vector<double> x0(rhs.size(), 0.0);
  std::vector<double> shifted(rhs.begin(), rhs.end());
  std::size_t remaps = 0;
  // solveCycles_ accumulates the simulated cycles of *earlier* attempts of
  // this solve — each attempt's engine starts its clock at 0, but a deadline
  // covers the whole solve. Kept in a member (lastSolveCycles()) so the
  // total survives a throwing exit: the catch blocks below fold the final
  // engine's clock in first.

  for (;;) {
    if (!emitted_) {
      x_.emplace(A_->makeVector(DType::Float32, "session_x"));
      b_.emplace(A_->makeVector(DType::Float32, "session_b"));
      solver_->apply(*A_, *x_, *b_);
      emitted_ = true;
    }

    solver_->clearHistory();
    // One engine per pipeline: the first attempt builds it, later solves
    // reset it to a fresh engine's state and keep its host pool and plans.
    // A remap tore it down with the pipeline, so the retry builds anew.
    if (engine_) {
      engine_->reset();
    } else {
      engine_ = std::make_unique<graph::Engine>(ctx_->graph(),
                                                options_.hostThreads);
    }
    engine_->setExcludedTiles(blacklist_);
    health_.reset();
    if (faultPlanJson_) {
      // Rules aimed at a blacklisted tile or an excluded chip are dropped
      // for this attempt: that hardware is already out of the machine, so
      // re-injecting its death would only make the watchdog re-confirm a
      // fault that has been handled.
      json::Value planJson = *faultPlanJson_;
      const std::vector<std::size_t>& deadIpus =
          options_.topology->deadIpus();
      if (!blacklist_.empty() || !deadIpus.empty()) {
        const std::size_t tilesPerIpu = options_.topology->tilesPerIpu();
        auto chipGone = [&](std::size_t ipu) {
          return std::find(deadIpus.begin(), deadIpus.end(), ipu) !=
                 deadIpus.end();
        };
        auto keyGone = [&](const json::Value& f, const char* key) {
          return f.asObject().count(key) > 0 &&
                 chipGone(static_cast<std::size_t>(f.at(key).asNumber()));
        };
        json::Array kept;
        for (const json::Value& f : planJson.at("faults").asArray()) {
          if (f.isObject() && f.asObject().count("tile") > 0) {
            const auto tile =
                static_cast<std::size_t>(f.at("tile").asNumber());
            if (std::find(blacklist_.begin(), blacklist_.end(), tile) !=
                    blacklist_.end() ||
                chipGone(tile / tilesPerIpu)) {
              continue;
            }
          }
          if (f.isObject() && (keyGone(f, "ipu") || keyGone(f, "from") ||
                               keyGone(f, "to"))) {
            continue;
          }
          kept.push_back(f);
        }
        planJson.asObject()["faults"] = json::Value(kept);
      }
      faultPlan_.emplace(ipu::FaultPlan::fromJson(planJson));
      engine_->setFaultPlan(&*faultPlan_);
      if (faultPlan_->hasHardFaults()) {
        ipu::HealthMonitor::Options h;
        h.computeCycleBudget = options_.watchdogCycleBudget;
        h.tripsToConfirm = options_.watchdogTrips;
        if (options_.topology->isPod()) {
          h.tilesPerIpu = options_.topology->tilesPerIpu();
          h.ipuDeadFraction = options_.watchdogIpuDeadFraction;
        }
        health_ = std::make_unique<ipu::HealthMonitor>(h);
        engine_->setHealthMonitor(health_.get());
      }
    }
    // The fault log of earlier attempts (incl. the recovery:* seam events)
    // carries into this engine's profile. Assigned BEFORE the trace sink is
    // attached: setTraceSink watermarks the current log length, so carried
    // events — already mirrored into the trace — are not re-traced.
    engine_->profile().faultEvents = carriedLog;
    if (remaps > 0) {
      engine_->profile().metrics.addCounter("resilience.remaps",
                                            static_cast<double>(remaps));
      engine_->profile().metrics.addCounter(
          "resilience.blacklisted", static_cast<double>(blacklist_.size()));
    }
    if (options_.traceCapacity > 0) engine_->setTraceSink(&trace_);
    if (tileProfile_) engine_->setTileProfile(tileProfile_.get());
    if (cancel_) {
      const double carried = solveCycles_;
      engine_->setCancelCheck([this, carried](const graph::Engine& e) {
        return cancel_(carried + e.simCycles());
      });
    }

    A_->upload(*engine_);
    A_->writeVector(*engine_, *b_, shifted);
    try {
      engine_->run(ctx_->program());
      break;
    } catch (const ipu::HardFaultError& hf) {
      solveCycles_ += engine_->simCycles();
      // Out of remap budget: surface the typed error instead of attempting
      // a "degraded" run — with freshly dead tiles still in the machine a
      // run can stall forever (e.g. a dead control tile freezes every loop
      // condition), and hanging is the one thing chaos must never do.
      if (remaps >= options_.maxRemaps) throw;
      // 1. Migrate: pull the solver's best-known iterate (its checkpoint /
      // last-good tensor when it keeps one, else x) out of the dying engine
      // and fold it into x0. Non-finite entries — a dead tile's vertices may
      // never have run — contribute nothing.
      const graph::TensorId sid = solver_->stateTensor();
      std::vector<double> best = sid != graph::kInvalidTensor
                                     ? A_->readVectorById(*engine_, sid)
                                     : A_->readVector(*engine_, *x_);
      for (double& v : best) {
        if (!std::isfinite(v)) v = 0.0;
      }
      for (std::size_t i = 0; i < x0.size(); ++i) x0[i] += best[i];
      m_.matrix.spmv(x0, shifted);  // shifted = A·x0 ...
      for (std::size_t i = 0; i < shifted.size(); ++i) {
        shifted[i] = rhs[i] - shifted[i];  // ... then b − A·x0
      }

      // 2. Retire the confirmed-dead hardware and mark the seam in the
      // carried fault log and the trace timeline. Whole-chip verdicts shrink
      // the topology (new fingerprint over the surviving chips); remaining
      // tile verdicts are blacklisted individually.
      carriedLog = engine_->profile().faultEvents;
      const std::size_t atSuperstep = engine_->profile().computeSupersteps;
      const double atCycle = engine_->simCycles();
      const std::size_t seamBegin = carriedLog.size();
      const std::vector<std::size_t>& deadChips = hf.deadIpus();
      auto onDeadChip = [&](std::size_t t) {
        return std::find(deadChips.begin(), deadChips.end(),
                         t / options_.topology->tilesPerIpu()) !=
               deadChips.end();
      };
      for (std::size_t ipu : deadChips) {
        ipu::FaultEvent fe;
        fe.kind = "recovery:ipu-blacklist";
        fe.superstep = atSuperstep;
        fe.target = "ipu " + std::to_string(ipu);
        fe.detail = "chip excluded from the topology after watchdog "
                    "escalation";
        carriedLog.push_back(fe);
      }
      for (std::size_t t : hf.deadTiles()) {
        if (onDeadChip(t)) continue;  // covered by the chip verdict above
        if (std::find(blacklist_.begin(), blacklist_.end(), t) ==
            blacklist_.end()) {
          blacklist_.push_back(t);
        }
        ipu::FaultEvent fe;
        fe.kind = "recovery:blacklist";
        fe.superstep = atSuperstep;
        fe.target = "tile " + std::to_string(t);
        fe.detail = "tile excluded from the partition after watchdog "
                    "confirmation";
        carriedLog.push_back(fe);
      }
      std::sort(blacklist_.begin(), blacklist_.end());
      if (!deadChips.empty()) {
        options_.topology = options_.topology->withoutIpus(deadChips);
      }
      ++remaps;
      ipu::FaultEvent fe;
      fe.kind = "recovery:remap";
      fe.superstep = atSuperstep;
      fe.target = "session";
      fe.element = remaps;
      fe.detail =
          deadChips.empty()
              ? "repartitioned over " +
                    std::to_string(options_.tiles - blacklist_.size()) +
                    " surviving tiles; resuming from migrated iterate"
              : "topology shrunk to " +
                    std::to_string(options_.topology->numAliveIpus()) +
                    " surviving chips (" +
                    std::to_string(options_.topology->numAliveTiles()) +
                    " tiles); resuming from migrated iterate";
      carriedLog.push_back(fe);
      if (options_.traceCapacity > 0) {
        // Mirror the seam events into the trace here — the next engine's
        // sink watermark deliberately skips the carried log.
        for (std::size_t i = seamBegin; i < carriedLog.size(); ++i) {
          support::TraceEvent ev;
          ev.kind = support::TraceKind::Recovery;
          ev.name = carriedLog[i].kind;
          ev.startCycle = atCycle;
          ev.superstep = atSuperstep;
          ev.detail = carriedLog[i].target + ": " + carriedLog[i].detail;
          trace_.record(ev);
        }
      }

      // 3. Rebuild the whole pipeline over the surviving tiles and retry.
      buildPipeline();
    } catch (const Error&) {
      // CancelledError and every other engine-level error: charge this
      // attempt's cycles before surfacing, so lastSolveCycles() reports the
      // whole solve — including attempts consumed by earlier remaps.
      solveCycles_ += engine_->simCycles();
      throw;
    }
  }
  solveCycles_ += engine_->simCycles();

  Result r;
  r.solve = solver_->result();
  r.x = A_->readVector(*engine_, *x_);
  if (remaps > 0) {
    for (std::size_t i = 0; i < r.x.size(); ++i) r.x[i] += x0[i];
  }
  r.history = solver_->history();
  r.simulatedSeconds = engine_->elapsedSeconds();
  r.simCycles = solveCycles_;
  r.tileProfile = tileProfile_;

  // Safety net against silently-wrong results: with fault injection active,
  // a Converged claim is re-verified on the host against the original
  // system. The threshold is deliberately lenient — it exists to catch
  // corrupted "solutions", not to second-guess the solver's tolerance.
  if (faultPlanJson_ && r.solve.status == SolveStatus::Converged) {
    std::vector<double> ax(r.x.size(), 0.0);
    m_.matrix.spmv(r.x, ax);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      const double d = rhs[i] - ax[i];
      num += d * d;
      den += rhs[i] * rhs[i];
    }
    const double rel = std::sqrt(num / std::max(den, 1e-300));
    if (!(rel <= 1e-3)) {
      r.solve.status = SolveStatus::CorruptionDetected;
      r.solve.finalResidual = rel;
    }
  }
  return r;
}

const ipu::Profile& SolveSession::profile() const {
  GRAPHENE_CHECK(engine_, "SolveSession::profile() before solve()");
  return engine_->profile();
}

Solver& SolveSession::solver() {
  GRAPHENE_CHECK(solver_, "SolveSession::solver() before configure()");
  return *solver_;
}

DistMatrix& SolveSession::matrix() {
  GRAPHENE_CHECK(A_, "SolveSession::matrix() before load()");
  return *A_;
}

graph::Engine& SolveSession::engine() {
  GRAPHENE_CHECK(engine_, "SolveSession::engine() before solve()");
  return *engine_;
}

json::Value SolveSession::healthReport() const {
  // The watchdog's view of the *last attempt* (empty when no monitor was
  // armed — e.g. after a remap filtered out every hard-fault rule), plus
  // the session-level outcome: which tiles are out and where control lives.
  json::Object report;
  if (health_) report = health_->reportJson().asObject();
  json::Array blacklisted;
  for (std::size_t t : blacklist_) {
    blacklisted.push_back(json::Value(static_cast<double>(t)));
  }
  report["blacklistedTiles"] = json::Value(blacklisted);
  // The session-level shrink verdict (the watchdog's own deadIpus only
  // covers the last attempt; the topology remembers every chip that went).
  json::Array deadIpusArr;
  for (std::size_t ipu : options_.topology->deadIpus()) {
    deadIpusArr.push_back(json::Value(static_cast<double>(ipu)));
  }
  report["deadIpus"] = json::Value(deadIpusArr);
  if (ctx_) {
    report["controlTile"] =
        json::Value(static_cast<double>(ctx_->graph().controlTile()));
  }
  return json::Value(report);
}

}  // namespace graphene::solver
