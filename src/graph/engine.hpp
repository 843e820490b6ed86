// The Engine: loads a Graph, executes Programs on the simulated IPU, and
// collects the cycle profile.
//
// Functional semantics are exact (codelets run real arithmetic on the typed
// tensor storage); timing comes from the cost model: compute supersteps cost
// the slowest tile (BSP), exchange supersteps are priced by the fabric model.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/program.hpp"
#include "graph/storage.hpp"
#include "ipu/exchange.hpp"
#include "ipu/fault.hpp"
#include "ipu/profile.hpp"

namespace graphene::support {
class ThreadPool;
class TraceSink;
struct TileProfile;
}

namespace graphene::ipu {
class HealthMonitor;
}

namespace graphene::graph {

class Engine {
 public:
  /// `numHostThreads` controls how many host threads simulate tiles in
  /// parallel within a compute superstep: 1 executes tiles serially (the
  /// historical behaviour), 0 resolves to the GRAPHENE_TEST_HOST_THREADS
  /// environment variable when set, else std::thread::hardware_concurrency.
  /// Results, profiles and fault logs are bit-identical at every thread
  /// count: tiles are independent between BSP syncs, so the host-side
  /// schedule cannot influence what the simulated machine computes.
  explicit Engine(Graph& graph, std::size_t numHostThreads = 0);
  ~Engine();

  /// Returns the engine to the state a freshly constructed one would start
  /// in: every tensor zeroed; the profile, the simulated clock and the
  /// fault-log trace watermark cleared; no excluded tiles; and no fault
  /// plan, health monitor, cancel check, trace sink or tile profile
  /// attached. It keeps what a fresh engine would only rebuild identically
  /// from the same graph: the host pool, every ExecPlan, the fused programs
  /// and plans, and the copy plans. A run after reset() is therefore
  /// bit-identical to the same run on a new engine, without the set-up.
  void reset();

  Graph& graph() { return graph_; }
  const ipu::IpuTarget& target() const { return graph_.target(); }

  /// Host threads used for tile-parallel compute supersteps (>= 1).
  std::size_t numHostThreads() const { return numHostThreads_; }

  /// Executes a program tree to completion. When the engine has a host pool
  /// (numHostThreads() > 1) and fusion is enabled, the tree is first run
  /// through the superstep-fusion pass (cached per root, revalidated when
  /// the tree grows). Fusion only saves host barriers, which a single thread
  /// does not pay; semantics, profiles and traces are identical either way.
  void run(const ProgramPtr& program);

  /// Enables/disables the superstep-fusion pass applied by run() (default
  /// on; GRAPHENE_NO_FUSION=1 disables it at construction; it never applies
  /// at one host thread). Results, profiles, traces, tile profiles and fault
  /// logs are bit-identical either way — the switch exists so tests can
  /// assert exactly that.
  void setSuperstepFusion(bool enabled) { fusionEnabled_ = enabled; }
  bool superstepFusion() const { return fusionEnabled_; }

  /// Host→device write of a whole tensor, in flat element order (the
  /// concatenation of per-tile regions).
  template <typename T>
  void writeTensor(TensorId id, std::span<const T> values) {
    auto dst = storageFor(id).as<T>();
    GRAPHENE_CHECK(values.size() == dst.size(), "write size mismatch on '",
                   graph_.tensor(id).name, "': ", values.size(), " vs ",
                   dst.size());
    std::copy(values.begin(), values.end(), dst.begin());
  }

  /// Device→host read of a whole tensor in flat element order.
  template <typename T>
  std::vector<T> readTensor(TensorId id) {
    auto src = storageFor(id).as<T>();
    return std::vector<T>(src.begin(), src.end());
  }

  /// Reads element 0 of a (replicated) scalar tensor.
  Scalar readScalar(TensorId id);

  /// Like readScalar, but throws NumericalError when the value is not finite
  /// — host convergence callbacks use it to surface NaN/Inf residuals as a
  /// typed error instead of recording garbage.
  Scalar readScalarFinite(TensorId id);

  /// Writes a scalar value into every replica of a replicated scalar tensor
  /// (or element 0 of a plain tensor).
  void writeScalar(TensorId id, const Scalar& value);

  /// Dynamically typed element access (host-side convenience).
  Scalar loadElement(TensorId id, std::size_t flatIndex);
  void storeElement(TensorId id, std::size_t flatIndex, const Scalar& value);

  TensorStorage& storageFor(TensorId id);

  const ipu::Profile& profile() const { return profile_; }
  ipu::Profile& profile() { return profile_; }

  /// Attaches a fault-injection plan (non-owning; nullptr detaches). With no
  /// plan attached every hook is a single null-pointer test, so execution is
  /// bit-identical to an engine without the fault framework.
  void setFaultPlan(ipu::FaultPlan* plan) { faultPlan_ = plan; }
  ipu::FaultPlan* faultPlan() const { return faultPlan_; }

  /// Attaches a health monitor (non-owning; nullptr detaches). Every
  /// compute superstep's per-tile cycle counts are reported to it from the
  /// serial reduction pass (deterministic at any host thread count). When
  /// the monitor confirms a tile dead and is configured to abort, run()
  /// throws ipu::HardFaultError *after* committing the superstep to the
  /// profile, trace and simulated clock. With no monitor attached the hook
  /// is a single null-pointer test.
  void setHealthMonitor(ipu::HealthMonitor* monitor) { health_ = monitor; }
  ipu::HealthMonitor* healthMonitor() const { return health_; }

  /// Removes tiles from the simulated machine (a resilience layer calls
  /// this with its blacklist after a remap). An excluded tile executes no
  /// vertices and contributes zero cycles to the BSP critical path — so the
  /// watchdog cannot re-confirm a tile whose loss has already been handled,
  /// and a dead straggler doesn't distort the timing of the remapped run.
  /// Exchanges still run: after a remap an excluded tile owns no live data,
  /// and writes *to* its stale replicas are harmless.
  void setExcludedTiles(const std::vector<std::size_t>& tiles);

  /// Cooperative cancellation: the check is called after every *committed*
  /// compute and exchange superstep and returns nullptr to keep running or a
  /// short reason token ("deadline", "cancelled", ...) to stop. On a
  /// non-null return run() throws graphene::CancelledError carrying that
  /// reason — after the superstep has been committed to profile, trace and
  /// simulated clock, so a deadline overshoot is bounded by one superstep and
  /// the error, profile and trace are the same with or without fusion.
  /// Tensor contents after a cancel are unspecified: a fused run may already
  /// have simulated later members' tile work. The robustness envelope of the
  /// solver service plugs per-job deadlines and client cancellation in here.
  /// With no check attached the hook is a single branch.
  using CancelCheck = std::function<const char*(const Engine&)>;
  void setCancelCheck(CancelCheck check) { cancel_ = std::move(check); }

  /// Attaches a trace sink (non-owning; nullptr detaches). Every compute
  /// superstep, exchange, sync, injected fault and solver recovery action is
  /// recorded as a timeline event. Pay-for-what-you-use: with no sink
  /// attached each emission site is a single null-pointer test. Events
  /// already in the profile's fault log at attach time are not re-emitted.
  void setTraceSink(support::TraceSink* sink);
  support::TraceSink* traceSink() const { return trace_; }

  /// Attaches a tile-level profile collector (non-owning; nullptr detaches).
  /// When attached, every compute superstep's per-tile cycle distribution,
  /// every exchange's tile×tile traffic and the graph's per-tile SRAM
  /// occupancy are recorded into it — all from the engine's serial reduction
  /// passes, so the report is bit-identical at every host thread count. Like
  /// the trace sink it is pay-for-what-you-use: with no collector attached
  /// each emission site is a single null-pointer test, no extra compute sets
  /// are emitted and cycle totals are unchanged. An already-populated
  /// collector may be re-attached to a successor engine (e.g. after a
  /// hard-fault remap); it accumulates across attachments.
  void setTileProfile(support::TileProfile* profile);
  support::TileProfile* tileProfile() const { return tileProfile_; }

  /// Monotonic simulated clock: cycles executed by this engine so far
  /// (compute + exchange + sync). Unlike profile().totalCycles() it is O(1)
  /// and survives profile clears — trace timestamps are drawn from it.
  double simCycles() const { return simClock_; }

  /// Simulated wall-clock seconds for everything run so far.
  double elapsedSeconds() const {
    return target().secondsFromCycles(profile_.totalCycles());
  }

 private:
  /// All vertices of one tile within a compute set: a contiguous range of
  /// ExecPlan::vertexOrder. Tasks touch disjoint storage regions (vertex
  /// slices are tile-local by construction), which is what makes them safe
  /// to run on concurrent host threads.
  struct TileTask {
    std::size_t tile = 0;
    std::size_t firstVertex = 0;  // index into ExecPlan::vertexOrder
    std::size_t count = 0;
  };

  /// Compiled execution plan for one compute set: vertex order grouped by
  /// tile, every argument bound to its storage slice, and each codelet's
  /// bind verdict per vertex. Built on first execution, reused until the
  /// compute set grows (vertices are only ever appended, so a vertex-count
  /// check is a complete staleness test). Bound pointers stay valid: each
  /// tensor's buffer is allocated once and moves with its TensorStorage.
  struct ExecPlan {
    std::vector<std::size_t> vertexOrder;
    std::vector<ArgSpan> args;           // pooled, all vertices back to back
    std::vector<std::size_t> argStart;   // per vertexOrder entry, +1 sentinel
    std::vector<char> bound;             // per vertexOrder entry
    std::vector<TileTask> tasks;
    std::size_t builtVertices = 0;
  };

  /// One compute set being run as a superstep: its plan, the superstep index
  /// it commits as, and per task the runTileTask outputs (tile cycles and
  /// worker-busy slots). Each task writes only its own slots, so the host
  /// pool can fill them.
  struct SuperstepRun {
    const ComputeSet* cs = nullptr;
    const ExecPlan* plan = nullptr;
    std::size_t superstep = 0;
    std::vector<double> cycles;
    std::vector<double> busy;
  };

  struct FusedPlan;

  /// Recursive program-tree walk (run() minus the fusion-pass front door).
  void runNode(const ProgramPtr& program);
  /// Returns the cached fused form of `program`, rebuilding when the source
  /// tree grew (step-count check). Holds a reference to the source root, so
  /// cache keys can never be reused by a recycled allocation.
  const ProgramPtr& fusedFor(const ProgramPtr& program);
  void runExecute(ComputeSetId cs);
  /// Runs an ExecuteFused step: each tile's work for all member compute sets
  /// runs back-to-back as one host task, then every member is committed as
  /// its own superstep in program order through commitCompute — so trace
  /// sinks, tile profiles, cancel checks and excluded tiles see exactly the
  /// unfused run. Only a fault plan or health monitor, which must act on
  /// storage between supersteps, makes the members run as plain supersteps.
  void runExecuteFused(const ProgramPtr& program);
  /// Points runs_[0, sets.size()) at `sets`, to be committed as the next
  /// supersteps in order, with zeroed per-task scratch.
  void prepareRuns(std::span<const ComputeSetId> sets);
  /// Simulates the tile tasks of the prepared runs: runs_[0]'s tasks one per
  /// host task, or with `fused` each tile's whole worklist as one host task.
  /// Skips excluded tiles, charges dead tiles and refreshes the tile
  /// profile's SRAM snapshot first.
  void runTiles(const FusedPlan* fused);
  /// Commits one compute superstep from its per-task cycles: serial
  /// reduction, watchdog, fault hooks, Profile, tile profile, metrics, trace,
  /// simulated clock and the watchdog abort, then the cancel poll.
  void commitCompute(const SuperstepRun& run);
  /// Throws CancelledError when the attached cancel check requests a stop.
  /// Called after a superstep is fully committed.
  void checkCancelled();
  /// Runs one tile's vertices; returns the tile-visible elapsed cycles.
  /// When `workerBusyOut` is non-null it receives the issue slots actually
  /// used across the tile's workers (the busy half of the busy/idle split).
  double runTileTask(const ComputeSet& cs, const ExecPlan& plan,
                     std::size_t task, double* workerBusyOut = nullptr);
  const ExecPlan& planFor(ComputeSetId cs);
  /// Runs a Copy step — its cached plan, or under a fault plan a walk of its
  /// segments — and commits it as one exchange superstep.
  void runCopy(const ProgramPtr& program);
  ipu::ExchangeStats replayCopy(const ProgramPtr& node);
  ipu::ExchangeStats walkCopy(const Program& program);
  void syncStorage();
  /// Refreshes the tile profile's SRAM snapshot from the graph's memory
  /// ledger and tensor table (re-run whenever the tensor count grew).
  void captureSramSnapshot();
  /// Mirrors fault-log entries appended since the last call (injected
  /// faults, solver recovery actions) into the trace as timeline events.
  void traceNewFaultEvents();

  Graph& graph_;
  std::vector<TensorStorage> storage_;
  ipu::Profile profile_;
  ipu::FaultPlan* faultPlan_ = nullptr;
  ipu::HealthMonitor* health_ = nullptr;
  CancelCheck cancel_;
  support::TraceSink* trace_ = nullptr;
  support::TileProfile* tileProfile_ = nullptr;
  std::size_t sramTensorsCaptured_ = 0;  // tensor count at last SRAM snapshot
  double simClock_ = 0;             // monotonic simulated cycles
  std::size_t tracedFaultEvents_ = 0;  // fault-log prefix already traced
  std::size_t numHostThreads_ = 1;
  std::unique_ptr<support::ThreadPool> hostPool_;  // null when single-threaded
  std::vector<ExecPlan> plans_;                    // indexed by ComputeSetId
  std::vector<SuperstepRun> runs_;                 // per dispatched member
  std::vector<char> tileExcluded_;                 // empty = none excluded

  /// Per-tile worklist for one ExecuteFused step: for every tile with work,
  /// the (member, task) pairs to run back-to-back, in member order. Built
  /// from the members' ExecPlans; `builtVertices` mirrors each member plan's
  /// staleness stamp so the worklist rebuilds whenever a member plan does.
  struct FusedPlan {
    struct Part {
      std::uint32_t member = 0;  // index into Program::fusedSets
      std::uint32_t task = 0;    // index into that member's ExecPlan::tasks
    };
    struct TileWork {
      std::vector<Part> parts;
    };
    ProgramPtr node;  // pins the fused node so the cache key stays unique
    std::vector<TileWork> tiles;
    std::vector<std::size_t> builtVertices;  // per member
  };

  /// Resolved form of a Copy step: every delivered (src, dst) window, the
  /// fabric transfers they make and the priced exchange stats. All three are
  /// static — segments are immutable and tile offsets are fixed at tensor
  /// creation — so without a fault plan (which decides each transfer's fate)
  /// an exchange superstep replays from here without re-walking the
  /// segments; a zero-byte exchange reduces to charging the (zero) cost.
  struct CopyPlan {
    struct Move {
      TensorId src = kInvalidTensor;
      TensorId dst = kInvalidTensor;
      std::size_t srcFlat = 0;
      std::size_t dstFlat = 0;
      std::size_t count = 0;
    };
    ProgramPtr node;  // pins the Copy node so the cache key stays unique
    std::vector<Move> moves;
    std::vector<ipu::Transfer> transfers;
    ipu::ExchangeStats stats;
  };

  struct FusedProgram {
    ProgramPtr source;  // pins the root so the cache key stays unique
    ProgramPtr fused;
    std::size_t sourceSteps = 0;  // stepCount at fusion time (staleness)
  };

  bool fusionEnabled_ = true;
  std::unordered_map<const Program*, FusedProgram> fusedPrograms_;
  std::unordered_map<const Program*, FusedPlan> fusedPlans_;
  std::unordered_map<const Program*, CopyPlan> copyPlans_;
};

}  // namespace graphene::graph
