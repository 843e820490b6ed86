// SolveSession — the one-stop solver API.
//
// Composing a solve by hand takes five objects in the right order: an
// IpuTarget, a dsl::Context, a partition layout, a DistMatrix, a Solver and
// finally an Engine per execution. SolveSession owns that choreography
// behind three calls:
//
//   SolveSession session;
//   session.load(matrix::poisson3d7(24, 24, 24))
//          .configure(R"({"type": "cg", "tolerance": 1e-6})");
//   auto result = session.solve(rhs);
//   // result.x, result.solve.status, session.trace(), session.profile()
//
// Every solve runs with the session's TraceSink attached, so the merged
// timeline (compute/exchange/sync spans, solver iterations, fault and
// recovery events) and the cycle profile are always available afterwards —
// observability is the default here, not an opt-in. The session keeps one
// Engine: the first solve builds it, each later solve resets it to a fresh
// engine's state (Engine::reset) and reuses its host pool and execution
// plans, and a hard-fault remap replaces it with the rebuilt pipeline.
//
// Hard-fault recovery: when a fault plan with permanent faults is attached,
// every solve runs under a superstep watchdog (ipu::HealthMonitor). A tile
// the watchdog confirms dead is blacklisted, the whole pipeline (layout,
// DistMatrix, solver program) is rebuilt over the surviving tiles, the
// best-known iterate x0 is migrated out of the dying engine, and the solve
// resumes on the shifted system A·dx = b − A·x0 (final x = x0 + dx). The
// fault log carries across the remap, with recovery:blacklist and
// recovery:remap entries marking the seam. On pods the watchdog also
// escalates: when enough of one chip's tiles are confirmed dead the chip
// itself is declared ipu-dead, and recovery shrinks the topology (a new
// fingerprint over the surviving chips) instead of blacklisting tile by
// tile — recovery:ipu-blacklist entries mark which chips went.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ipu/fault.hpp"
#include "ipu/topology.hpp"
#include "matrix/generators.hpp"
#include "solver/solver.hpp"
#include "support/tile_profile.hpp"
#include "support/trace.hpp"

namespace graphene::dsl {
class Context;
}
namespace graphene::ipu {
class HealthMonitor;
}

namespace graphene::solver {

struct SessionOptions {
  /// Tiles of the simulated machine. When `topology` is unset this is a
  /// single IPU with this many tiles (IpuTarget::testTarget geometry) —
  /// unless GRAPHENE_TEST_POD=N is set and divides it, in which case the
  /// session runs on an N-IPU pod with tiles/N tiles per chip. When
  /// `topology` is set it wins and this field is overwritten with its total.
  std::size_t tiles = 32;
  /// Explicit machine shape (chips x tiles, link model). Overrides `tiles`
  /// and the GRAPHENE_TEST_POD environment variable.
  std::optional<ipu::Topology> topology = std::nullopt;
  /// Host threads simulating tiles in parallel; 0 = Engine's default
  /// resolution (GRAPHENE_TEST_HOST_THREADS, else hardware concurrency).
  std::size_t hostThreads = 0;
  /// Ring capacity of the session's TraceSink; 0 disables tracing.
  std::size_t traceCapacity = support::TraceSink::kDefaultCapacity;
  /// Watchdog: compute cycles one tile may spend in a single superstep
  /// before it counts as a trip (only armed while a fault plan with hard
  /// faults is attached). Must sit below the dead-tile charge (default
  /// 1e9 cycles) and above every legitimate superstep.
  double watchdogCycleBudget = 5e7;
  /// Watchdog: consecutive trips before a tile is confirmed dead.
  std::size_t watchdogTrips = 2;
  /// Watchdog escalation on pods: fraction of one chip's tiles that must be
  /// confirmed dead before the whole chip is declared ipu-dead and the
  /// recovery path shrinks the topology instead of blacklisting tile by
  /// tile. In (0, 1]. Ignored on single-IPU sessions.
  double watchdogIpuDeadFraction = 0.5;
  /// Hard-fault recovery budget: how many blacklist-and-repartition cycles
  /// a single solve() may take. When yet another tile is confirmed dead
  /// with the budget exhausted, solve() rethrows the typed HardFaultError —
  /// it never limps on with a freshly dead tile still in the machine.
  std::size_t maxRemaps = 1;
  /// Emits halo exchanges per cell instead of as blockwise region
  /// broadcasts — the pre-reordering baseline of §IV. A/B profiling only
  /// (same numerics, more exchange instructions).
  bool perCellHalo = false;
};

/// The machine shape a SessionOptions resolves to: its explicit `topology`
/// if set, else an N-IPU pod when GRAPHENE_TEST_POD=N divides `tiles`, else
/// a single IPU with `tiles` tiles. Deterministic per process — the plan
/// cache hashes the resolved shape into its structure fingerprints.
ipu::Topology resolveSessionTopology(const SessionOptions& options);

class SolveSession {
 public:
  explicit SolveSession(SessionOptions options = {});
  ~SolveSession();
  SolveSession(const SolveSession&) = delete;
  SolveSession& operator=(const SolveSession&) = delete;

  /// Builds the distributed matrix: partitions the rows (grid partitioning
  /// when geometry is available, BFS otherwise), lays out the §IV halo
  /// regions and creates the device structures. Call once, before solve().
  ///
  /// Note: a SolveSession owns the (thread-local, single-active)
  /// dsl::Context from load() until destruction — build sessions one at a
  /// time.
  SolveSession& load(const matrix::GeneratedMatrix& m);
  /// Same for a bare CSR matrix with no geometry hints (BFS partitioning).
  SolveSession& load(const matrix::CsrMatrix& m);

  /// Builds the (possibly nested) solver from its JSON config — strictly
  /// validated, see makeSolver(). Call before solve(); reconfiguring after
  /// a solve is an error (the emitted program is tied to the solver).
  SolveSession& configure(const json::Value& solverConfig);
  SolveSession& configure(const std::string& solverJsonText);
  // json::Value converts from const char* too — disambiguate string literals
  // toward the parse-then-build path.
  SolveSession& configure(const char* solverJsonText) {
    return configure(std::string(solverJsonText));
  }

  /// Attaches a fault-injection plan applied to every subsequent solve. The
  /// plan is rebuilt from this JSON for every solve attempt (FaultPlan rules
  /// are stateful — one-shot activations, RNG), which keeps remap recovery
  /// deterministic: identical plan + seed gives identical fault logs. A rule
  /// aimed at a tile or chip the session's machine does not have is an
  /// Error here (FaultPlan::checkTargets).
  SolveSession& withFaultPlan(const json::Value& planConfig);

  /// Replaces the matrix coefficients, keeping the emitted program: the new
  /// matrix must have the identical sparsity structure (same rowPtr/colIdx)
  /// as the loaded one. The next solve() re-uploads the refreshed staging,
  /// so repeat solves against updated values skip partitioning and program
  /// emission entirely. NOT sound for chains with factorisation
  /// preconditioners ((D)ILU, Gauss-Seidel) — their factors were computed
  /// from the old values at emission time (see DistMatrix::updateValues);
  /// the plan cache refuses value-only reuse for those chains.
  SolveSession& updateMatrixValues(const matrix::CsrMatrix& m);

  /// Cooperative cancellation: consulted after every committed superstep of
  /// every subsequent solve with the total simulated cycles the running
  /// solve() has accumulated (carried across hard-fault remap attempts).
  /// Returning a non-null reason stops the solve — the engine finishes the
  /// current superstep, then throws support::CancelledError carrying the
  /// reason; overshoot past a deadline is bounded by one superstep. Pass
  /// nullptr to detach.
  using CancelCheck = std::function<const char*(double simCycles)>;
  void setCancelCheck(CancelCheck check) { cancel_ = std::move(check); }

  /// Re-binds / releases the session's thread-local dsl::Context on the
  /// calling thread. A session built on one thread can be leased by another
  /// (pooled service workers): bind() before configure()/solve()/
  /// updateMatrixValues(), unbind() before handing it on. At most one
  /// context may be bound per thread at a time.
  void bind();
  void unbind();

  /// Opts every subsequent solve into tile-level profiling: per-tile cycle
  /// attribution per category, the tile×tile traffic matrix and the SRAM
  /// snapshot. A fresh report is collected per solve (accumulating across
  /// hard-fault remap attempts within it) and attached to the Result.
  SolveSession& enableTileProfile() {
    tileProfileEnabled_ = true;
    return *this;
  }

  /// Everything a solve produces, copied out of the device state.
  struct Result {
    SolveResult solve;                     // structured outcome
    std::vector<double> x;                 // solution, global row order
    std::vector<IterationRecord> history;  // convergence samples
    double simulatedSeconds = 0.0;         // wall clock on the simulated IPU
    /// Simulated cycles the whole solve took, summed across hard-fault
    /// remap attempts (simulatedSeconds covers the final attempt only).
    double simCycles = 0.0;
    /// Tile-level report of this solve; null unless enableTileProfile().
    std::shared_ptr<support::TileProfile> tileProfile;
  };

  /// Runs the configured solver on the session's engine, reset to a fresh
  /// engine's state first. The program is emitted once (first call) and
  /// re-executed on subsequent calls; the trace sink is cleared per solve,
  /// so trace() always shows the latest one.
  Result solve(std::span<const double> rhs);

  /// The merged execution timeline of the last solve.
  const support::TraceSink& trace() const { return trace_; }
  /// Convenience: the last solve's trace in Chrome trace_event JSON
  /// (load into chrome://tracing or Perfetto).
  json::Value traceChromeJson() const { return support::traceToChromeJson(trace_); }

  /// Cycle profile of the last solve: the engine's, which each solve
  /// clears when it resets the engine.
  const ipu::Profile& profile() const;

  /// Tile-level report of the last solve (null unless enableTileProfile()
  /// was called before it).
  const support::TileProfile* tileProfile() const {
    return tileProfile_.get();
  }

  Solver& solver();
  DistMatrix& matrix();
  /// The session's one engine: built by the first solve, reset at the
  /// start of every later one, and replaced when a hard-fault remap
  /// rebuilds the pipeline — a reference stays valid until a remap.
  graph::Engine& engine();

  /// Simulated cycles accumulated by the most recent solve() call, summed
  /// across hard-fault remap attempts. Unlike Result::simCycles this is
  /// also valid after solve() threw (CancelledError, HardFaultError, ...):
  /// the failing attempt's engine clock is folded in before the throw, so
  /// deadline baselines never under-count a solve that remapped mid-flight.
  double lastSolveCycles() const { return solveCycles_; }

  const SessionOptions& options() const { return options_; }
  /// The solver JSON this session was configure()d with ({} before).
  const json::Value& solverConfig() const { return solverConfig_; }
  bool emitted() const { return emitted_; }
  /// Largest per-tile SRAM allocation of the built graph, in bytes — what
  /// admission control charges a warm pipeline against the SRAM pool.
  std::size_t sramPeakBytes() const;

  /// Tiles the watchdog confirmed dead and the remap path excluded from the
  /// partition (ascending). Empty until a hard-fault recovery happened.
  const std::vector<std::size_t>& blacklistedTiles() const {
    return blacklist_;
  }
  /// Chips the watchdog escalation declared dead and the recovery path
  /// shrank out of the topology (ascending). Empty until a whole-chip loss
  /// happened. The session's resolved topology (options().topology) carries
  /// the same set — and a new fingerprint — after the shrink.
  const std::vector<std::size_t>& deadIpus() const {
    return options_.topology->deadIpus();
  }
  /// Health report of the last solve's watchdog ({} when no watchdog ran).
  json::Value healthReport() const;

 private:
  /// (Re)builds context, layout (over surviving tiles), DistMatrix and —
  /// when configured — the solver. Tears the old pipeline down first in
  /// dependency order; the next solve() re-emits the program.
  void buildPipeline();

  SessionOptions options_;
  matrix::GeneratedMatrix m_;
  bool loaded_ = false;
  json::Value solverConfig_;
  bool configured_ = false;
  std::optional<json::Value> faultPlanJson_;
  std::vector<std::size_t> blacklist_;
  std::unique_ptr<dsl::Context> ctx_;
  std::unique_ptr<DistMatrix> A_;
  std::unique_ptr<Solver> solver_;
  std::unique_ptr<graph::Engine> engine_;
  std::unique_ptr<ipu::HealthMonitor> health_;
  std::optional<ipu::FaultPlan> faultPlan_;
  std::optional<Tensor> x_, b_;
  support::TraceSink trace_;
  CancelCheck cancel_;
  double solveCycles_ = 0.0;  // see lastSolveCycles()
  bool tileProfileEnabled_ = false;
  std::shared_ptr<support::TileProfile> tileProfile_;
  bool emitted_ = false;
};

}  // namespace graphene::solver
