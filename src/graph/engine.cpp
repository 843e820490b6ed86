#include "graph/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <thread>

#include "graph/compiler.hpp"
#include "ipu/health.hpp"
#include "ipu/worker_pool.hpp"
#include "support/env.hpp"
#include "support/thread_pool.hpp"
#include "support/tile_profile.hpp"
#include "support/trace.hpp"

namespace graphene::graph {

namespace {

std::size_t resolveHostThreads(std::size_t requested) {
  if (requested != 0) return requested;
  if (const char* e = std::getenv("GRAPHENE_TEST_HOST_THREADS")) {
    const long v = std::strtol(e, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

/// Adapts the engine's tensor storage to the fault injector's view of the
/// machine (ipu::FaultSurface keeps the ipu layer independent of graph).
class EngineFaultSurface final : public ipu::FaultSurface {
 public:
  explicit EngineFaultSurface(Engine& engine) : engine_(engine) {}

  std::size_t numTensors() override { return engine_.graph().numTensors(); }

  std::string tensorName(std::size_t tensor) override {
    return engine_.graph().tensor(static_cast<TensorId>(tensor)).name;
  }

  std::size_t tensorElements(std::size_t tensor) override {
    return engine_.storageFor(static_cast<TensorId>(tensor)).totalElements();
  }

  bool holdsIndices(std::size_t tensor) override {
    // Int32 scalars (iteration counters, guard flags) stay targetable.
    const TensorInfo& info =
        engine_.graph().tensor(static_cast<TensorId>(tensor));
    return info.dtype == ipu::DType::Int32 && !info.replicated;
  }

  void flipBit(std::size_t tensor, std::size_t element,
               unsigned bit) override {
    engine_.storageFor(static_cast<TensorId>(tensor)).flipBit(element, bit);
  }

  void zeroElement(std::size_t tensor, std::size_t element) override {
    TensorStorage& s = engine_.storageFor(static_cast<TensorId>(tensor));
    s.store(element, Scalar::zero(s.dtype()));
  }

  ipu::Profile& profile() override { return engine_.profile(); }

 private:
  Engine& engine_;
};

}  // namespace

Engine::Engine(Graph& graph, std::size_t numHostThreads)
    : graph_(graph), numHostThreads_(resolveHostThreads(numHostThreads)) {
  if (support::envFlag("GRAPHENE_NO_FUSION")) fusionEnabled_ = false;
  if (numHostThreads_ > 1) {
    hostPool_ = std::make_unique<support::ThreadPool>(numHostThreads_);
  }
  syncStorage();
}

Engine::~Engine() = default;

void Engine::reset() {
  for (TensorStorage& s : storage_) s.fill(Scalar::zero(s.dtype()));
  profile_.clear();
  faultPlan_ = nullptr;
  health_ = nullptr;
  cancel_ = nullptr;
  trace_ = nullptr;
  tileProfile_ = nullptr;
  sramTensorsCaptured_ = 0;
  simClock_ = 0;
  tracedFaultEvents_ = 0;
  tileExcluded_.clear();
}

void Engine::setTraceSink(support::TraceSink* sink) {
  trace_ = sink;
  // Only fault-log entries appended from now on belong to this trace.
  tracedFaultEvents_ = profile_.faultEvents.size();
}

void Engine::setTileProfile(support::TileProfile* profile) {
  tileProfile_ = profile;
  sramTensorsCaptured_ = 0;
  if (tileProfile_ == nullptr) return;
  const ipu::IpuTarget& target = graph_.target();
  tileProfile_->init(target.totalTiles(), target.workersPerTile,
                     target.exchangeInstrCycles *
                         target.exchangeSendBytesPerCycle,
                     target.tilesPerIpu);
  captureSramSnapshot();
}

void Engine::captureSramSnapshot() {
  const ipu::TileMemoryLedger& ledger = graph_.ledger();
  const std::size_t nTiles = graph_.target().totalTiles();
  support::TileSramProfile& sram = tileProfile_->sram;
  sram.budgetBytes = ledger.budget();
  sram.usedBytes.resize(nTiles);
  sram.highWaterBytes.resize(nTiles);
  for (std::size_t t = 0; t < nTiles; ++t) {
    sram.usedBytes[t] = ledger.used(t);
    sram.highWaterBytes[t] = std::max(sram.highWaterBytes[t],
                                      ledger.highWater(t));
  }
  // Rebuild the per-tensor breakdown from the current graph (a successor
  // engine after a remap brings a fresh graph whose tensors replace the old
  // list; used/high-water above still reflect the machine being profiled).
  sram.tensors.clear();
  for (std::size_t i = 0; i < graph_.numTensors(); ++i) {
    const TensorInfo& info = graph_.tensor(static_cast<TensorId>(i));
    support::TileSramProfile::TensorSram t;
    t.name = info.name;
    t.dtype = ipu::dtypeName(info.dtype);
    t.bytesPerTile.resize(nTiles, 0);
    const std::size_t elemBytes = ipu::sizeOf(info.dtype);
    const std::size_t mapped =
        std::min(nTiles, info.mapping.sizePerTile.size());
    for (std::size_t tile = 0; tile < mapped; ++tile) {
      t.bytesPerTile[tile] = info.mapping.sizePerTile[tile] * elemBytes;
    }
    sram.tensors.push_back(std::move(t));
  }
  sramTensorsCaptured_ = graph_.numTensors();
}

void Engine::traceNewFaultEvents() {
  const auto& log = profile_.faultEvents;
  for (; tracedFaultEvents_ < log.size(); ++tracedFaultEvents_) {
    const ipu::FaultEvent& fe = log[tracedFaultEvents_];
    support::TraceEvent ev;
    ev.kind = fe.kind.rfind("recovery:", 0) == 0
                  ? support::TraceKind::Recovery
                  : support::TraceKind::Fault;
    ev.name = fe.kind;
    ev.startCycle = simClock_;
    ev.superstep = fe.superstep;
    ev.detail = fe.target.empty()
                    ? fe.detail
                    : fe.target + (fe.detail.empty() ? "" : ": " + fe.detail);
    trace_->record(std::move(ev));
  }
}

void Engine::syncStorage() {
  for (std::size_t i = storage_.size(); i < graph_.numTensors(); ++i) {
    storage_.emplace_back(graph_.tensor(static_cast<TensorId>(i)));
  }
}

TensorStorage& Engine::storageFor(TensorId id) {
  syncStorage();
  GRAPHENE_CHECK(id < storage_.size(), "invalid tensor id");
  return storage_[id];
}

Scalar Engine::readScalar(TensorId id) {
  // Replicated scalars are read from the control tile's replica — the one
  // the reduce/broadcast machinery keeps authoritative. Reading a fixed
  // tile 0 would return a frozen value once tile 0 is dead or excluded.
  const graph::TensorInfo& info = graph_.tensor(id);
  const std::size_t flat =
      info.replicated ? info.tileOffset(graph_.controlTile()) : 0;
  return storageFor(id).load(flat);
}

Scalar Engine::readScalarFinite(TensorId id) {
  Scalar value = readScalar(id);
  if (!std::isfinite(value.toHostDouble())) {
    throw NumericalError(detail::concatMessage(
        "non-finite value ", value.toString(), " read from tensor '",
        graph_.tensor(id).name, "'"));
  }
  return value;
}

void Engine::setExcludedTiles(const std::vector<std::size_t>& tiles) {
  tileExcluded_.clear();
  if (tiles.empty()) return;
  tileExcluded_.assign(graph_.target().totalTiles(), 0);
  for (std::size_t t : tiles) {
    GRAPHENE_CHECK(t < tileExcluded_.size(), "excluded tile ", t,
                   " out of range for ", tileExcluded_.size(), " tiles");
    tileExcluded_[t] = 1;
  }
}

void Engine::writeScalar(TensorId id, const Scalar& value) {
  TensorStorage& s = storageFor(id);
  if (graph_.tensor(id).replicated) {
    s.fill(value);  // one cast, then a typed fill over every replica
  } else {
    s.store(0, value);
  }
}

Scalar Engine::loadElement(TensorId id, std::size_t flatIndex) {
  return storageFor(id).load(flatIndex);
}

void Engine::storeElement(TensorId id, std::size_t flatIndex,
                          const Scalar& value) {
  storageFor(id).store(flatIndex, value);
}

void Engine::run(const ProgramPtr& program) {
  if (!program) return;
  // Fusion removes the host barriers between supersteps; one host thread has
  // none to remove and would only pay for building the fused tree.
  const bool fuse = fusionEnabled_ && hostPool_ != nullptr;
  runNode(fuse ? fusedFor(program) : program);
}

const ProgramPtr& Engine::fusedFor(const ProgramPtr& program) {
  // Keyed by the root node's address; the cached entry holds the source
  // shared_ptr, so a hit can never be a recycled allocation. A step-count
  // check catches the one mutation pattern contexts actually perform —
  // tracing more steps into an already-run program.
  const std::size_t steps = program->stepCount();
  auto it = fusedPrograms_.find(program.get());
  if (it == fusedPrograms_.end() || it->second.sourceSteps != steps) {
    FusedProgram entry;
    entry.source = program;
    entry.fused = fuseSupersteps(program, graph_);
    entry.sourceSteps = steps;
    it = fusedPrograms_.insert_or_assign(program.get(), std::move(entry))
             .first;
  }
  return it->second.fused;
}

void Engine::runNode(const ProgramPtr& program) {
  if (!program) return;
  syncStorage();
  switch (program->kind) {
    case Program::Kind::Sequence:
      for (const auto& child : program->children) runNode(child);
      break;
    case Program::Kind::Execute:
      runExecute(program->computeSet);
      break;
    case Program::Kind::ExecuteFused:
      runExecuteFused(program);
      break;
    case Program::Kind::Copy:
      runCopy(program);
      break;
    case Program::Kind::Repeat:
      for (std::size_t i = 0; i < program->repeatCount; ++i) {
        runNode(program->body);
      }
      break;
    case Program::Kind::RepeatWhile:
      while (true) {
        runNode(program->condProgram);
        if (!readScalar(program->condTensor).truthy()) break;
        runNode(program->body);
      }
      break;
    case Program::Kind::If:
      runNode(program->condProgram);
      if (readScalar(program->condTensor).truthy()) {
        runNode(program->thenBody);
      } else {
        runNode(program->elseBody);
      }
      break;
    case Program::Kind::HostCall:
      if (program->hostFn) program->hostFn(*this);
      // Solver guards append recovery actions to the fault log from host
      // callbacks; mirror them into the trace right away so the timeline
      // stays ordered.
      if (trace_ != nullptr) traceNewFaultEvents();
      break;
  }
}

const Engine::ExecPlan& Engine::planFor(ComputeSetId csId) {
  if (plans_.size() <= csId) plans_.resize(csId + 1);
  ExecPlan& plan = plans_[csId];
  const ComputeSet& cs = graph_.computeSet(csId);
  if (plan.builtVertices == cs.vertices.size()) return plan;

  // Rebuild from scratch: vertices are appended to compute sets in bulk at
  // graph-construction time, so in practice this runs once per compute set
  // and every later execution is a cache hit.
  plan = ExecPlan{};
  std::map<std::size_t, std::vector<std::size_t>> byTile;
  for (std::size_t i = 0; i < cs.vertices.size(); ++i) {
    byTile[cs.vertices[i].tile].push_back(i);
  }
  plan.vertexOrder.reserve(cs.vertices.size());
  plan.argStart.reserve(cs.vertices.size() + 1);
  plan.bound.reserve(cs.vertices.size());
  for (const auto& [tile, vertexIds] : byTile) {
    plan.tasks.push_back(TileTask{tile, plan.vertexOrder.size(),
                                  vertexIds.size()});
    for (std::size_t vi : vertexIds) {
      plan.argStart.push_back(plan.args.size());
      plan.vertexOrder.push_back(vi);
      for (const TensorSlice& s : cs.vertices[vi].args) {
        TensorStorage& ts = storageFor(s.tensor);
        // Graph::addVertex checked the slice lies inside its tile region.
        plan.args.push_back(ArgSpan{
            ts.elementData(ts.tileOffset(s.tile) + s.begin), s.count,
            ts.dtype()});
      }
      const Codelet& codelet = graph_.codelet(cs.vertices[vi].codelet);
      const std::span<const ArgSpan> bound(
          plan.args.data() + plan.argStart.back(),
          plan.args.size() - plan.argStart.back());
      plan.bound.push_back(codelet.bind && codelet.bind(bound) ? 1 : 0);
    }
  }
  plan.argStart.push_back(plan.args.size());
  plan.builtVertices = cs.vertices.size();
  return plan;
}

double Engine::runTileTask(const ComputeSet& cs, const ExecPlan& plan,
                           std::size_t task, double* workerBusyOut) {
  const TileTask& t = plan.tasks[task];
  ipu::WorkerPool pool(graph_.target().workersPerTile);
  std::size_t nextWorker = 0;
  double workerBusy = 0;  // issue slots used, summed over the 6 workers
  for (std::size_t p = t.firstVertex; p < t.firstVertex + t.count; ++p) {
    const Vertex& v = cs.vertices[plan.vertexOrder[p]];
    VertexContext ctx({plan.args.data() + plan.argStart[p],
                       plan.argStart[p + 1] - plan.argStart[p]},
                      plan.bound[p] != 0);
    VertexCost cost = graph_.codelet(v.codelet).run(ctx);
    if (cost.wholeTile) {
      // Supervisor codelet driving all workers itself: serialise against
      // everything else on the tile.
      pool.sync();
      for (std::size_t w = 0; w < pool.numWorkers(); ++w) {
        pool.addCycles(w, cost.workerCycles);
      }
      workerBusy += cost.workerCycles * static_cast<double>(pool.numWorkers());
    } else {
      pool.addCycles(nextWorker, cost.workerCycles);
      if (++nextWorker == pool.numWorkers()) nextWorker = 0;
      workerBusy += cost.workerCycles;
    }
  }
  if (workerBusyOut != nullptr) *workerBusyOut = workerBusy;
  return pool.elapsed();
}

void Engine::prepareRuns(std::span<const ComputeSetId> sets) {
  // Build every plan first: planFor may grow plans_, moving the others.
  for (ComputeSetId cs : sets) planFor(cs);
  if (runs_.size() < sets.size()) runs_.resize(sets.size());
  for (std::size_t m = 0; m < sets.size(); ++m) {
    SuperstepRun& run = runs_[m];
    run.cs = &graph_.computeSet(sets[m]);
    run.plan = &plans_[sets[m]];
    run.superstep = profile_.computeSupersteps + m;
    run.cycles.assign(run.plan->tasks.size(), 0.0);
    run.busy.assign(run.plan->tasks.size(), 0.0);
  }
}

void Engine::runTiles(const FusedPlan* fused) {
  // Tensors are only created between programs, so one refresh per dispatch
  // covers every superstep it commits.
  if (tileProfile_ != nullptr && graph_.numTensors() != sramTensorsCaptured_) {
    captureSramSnapshot();
  }
  const ipu::IpuTarget& target = graph_.target();
  const bool hardFaults = faultPlan_ != nullptr && faultPlan_->hasHardFaults();
  // One tile task. An excluded tile runs nothing and costs nothing. A dead
  // tile runs nothing either: it charges its watchdog-scale cycle count and
  // leaves its storage exactly as the previous superstep left it (the
  // dead-tile queries are pure functions of the plan, safe from the pool).
  auto runTask = [&](SuperstepRun& run, std::size_t ti) {
    const std::size_t tile = run.plan->tasks[ti].tile;
    if (!tileExcluded_.empty() && tileExcluded_[tile]) return;
    if (hardFaults) {
      if (faultPlan_->tileDead(tile, run.superstep)) {
        run.cycles[ti] = faultPlan_->deadTileCycles(tile);
        return;
      }
      const std::size_t ipu = target.ipuOfTile(tile);
      if (faultPlan_->ipuDead(ipu, run.superstep)) {
        run.cycles[ti] = faultPlan_->deadIpuCycles(ipu);
        return;
      }
    }
    run.cycles[ti] =
        runTileTask(*run.cs, *run.plan, ti, &run.busy[ti]);
  };
  // Host task i is tile task i of a plain superstep, or tile i's whole
  // worklist of a fused run. Tasks write disjoint storage regions and their
  // own scratch slots, so running them on the host pool is race-free and —
  // because each task's arithmetic is self-contained — bit-identical to the
  // serial loop.
  auto hostTask = [&](std::size_t i) {
    if (fused == nullptr) {
      runTask(runs_[0], i);
      return;
    }
    for (const FusedPlan::Part& part : fused->tiles[i].parts) {
      runTask(runs_[part.member], part.task);
    }
  };
  const std::size_t n =
      fused != nullptr ? fused->tiles.size() : runs_[0].plan->tasks.size();
  if (hostPool_ != nullptr) {
    hostPool_->parallelFor(n, hostTask);
  } else {
    for (std::size_t i = 0; i < n; ++i) hostTask(i);
  }
}

void Engine::commitCompute(const SuperstepRun& run) {
  const ComputeSet& cs = *run.cs;
  const std::vector<TileTask>& tasks = run.plan->tasks;
  const std::vector<double>& tileCycles = run.cycles;
  const ipu::IpuTarget& target = graph_.target();
  const std::size_t nTasks = tasks.size();
  // Tile-cycle distribution of this superstep: the max is the BSP critical
  // path; min/mean and the straggler tile id feed the straggler stats and
  // the trace. One serial pass in task order, so the result is bit-identical
  // at every host thread count.
  double maxTileCycles = 0;
  double minTileCycles = 0;
  double sumTileCycles = 0;
  std::size_t stragglerTask = 0;
  for (std::size_t ti = 0; ti < nTasks; ++ti) {
    const double c = tileCycles[ti];
    sumTileCycles += c;
    if (ti == 0 || c < minTileCycles) minTileCycles = c;
    if (c > maxTileCycles) {
      maxTileCycles = c;
      stragglerTask = ti;
    }
  }
  const double meanTileCycles =
      nTasks > 0 ? sumTileCycles / static_cast<double>(nTasks) : 0.0;
  const std::size_t stragglerTile =
      nTasks > 0 ? tasks[stragglerTask].tile : SIZE_MAX;
  profile_.verticesExecuted += cs.vertices.size();

  // Watchdog: report every tile's cycle count from this serial pass, so
  // trips and dead-tile confirmations are bit-identical at any host thread
  // count; chip verdicts are decided once the whole superstep is seen. The
  // abort (if armed) fires after the superstep is committed.
  if (health_ != nullptr) {
    for (std::size_t ti = 0; ti < nTasks; ++ti) {
      health_->observeCompute(profile_.computeSupersteps, tasks[ti].tile,
                              tileCycles[ti], profile_);
    }
    health_->endSuperstep(profile_.computeSupersteps, profile_);
  }

  // Fault injection: SRAM upsets land between supersteps; a stalled tile
  // delays the BSP barrier, so its extra cycles join the critical path.
  if (faultPlan_ != nullptr) {
    EngineFaultSurface surface(*this);
    maxTileCycles +=
        faultPlan_->afterComputeSuperstep(profile_.computeSupersteps, surface);
  }

  // Compute supersteps end with each IPU's *internal* sync; the IPUs sync in
  // parallel, so the cost does not grow with the pod size. Global syncs are
  // only paid when an exchange crosses IPUs (priced in priceExchange).
  profile_.computeCycles[cs.category] += maxTileCycles;
  profile_.superstepStats[cs.category].record(profile_.computeSupersteps,
                                              minTileCycles, meanTileCycles,
                                              maxTileCycles, stragglerTile);
  profile_.syncCycles += target.syncCyclesOnChip;
  profile_.computeSupersteps += 1;

  // Tile-level attribution, from the same serial reduction (deterministic at
  // any host thread count). The superstep's critical path — including any
  // injected stall, mirroring profile_.computeCycles above — is charged to
  // the straggler tile, so per-category tile sums reproduce computeCycles
  // exactly; every other tile books the gap as barrier idle.
  if (tileProfile_ != nullptr) {
    support::TileCategoryProfile& cat = tileProfile_->category(cs.category);
    cat.supersteps += 1;
    for (std::size_t ti = 0; ti < nTasks; ++ti) {
      const std::size_t tile = tasks[ti].tile;
      cat.busyCycles[tile] += tileCycles[ti];
      cat.workerBusyCycles[tile] += run.busy[ti];
      cat.barrierIdleCycles[tile] += maxTileCycles - tileCycles[ti];
    }
    if (nTasks > 0) cat.criticalCycles[stragglerTile] += maxTileCycles;
    tileProfile_->computeSupersteps += 1;
    tileProfile_->syncCycles += target.syncCyclesOnChip;
  }
  for (const auto& [name, value] : cs.perExecMetrics) {
    profile_.metrics.addCounter(name, value);
  }

  if (trace_ != nullptr) {
    support::TraceEvent ev;
    ev.kind = support::TraceKind::ComputeSuperstep;
    ev.name = cs.category;
    ev.startCycle = simClock_;
    ev.durationCycles = maxTileCycles;
    ev.superstep = profile_.computeSupersteps - 1;
    ev.tileMin = minTileCycles;
    ev.tileMean = meanTileCycles;
    ev.tileMax = maxTileCycles;
    ev.stragglerTile = stragglerTile;
    ev.activeTiles = nTasks;
    trace_->record(std::move(ev));

    support::TraceEvent sync;
    sync.kind = support::TraceKind::Sync;
    sync.name = "sync";
    sync.startCycle = simClock_ + maxTileCycles;
    sync.durationCycles = target.syncCyclesOnChip;
    sync.superstep = profile_.computeSupersteps - 1;
    trace_->record(std::move(sync));
  }
  simClock_ += maxTileCycles + target.syncCyclesOnChip;
  if (trace_ != nullptr) traceNewFaultEvents();

  // The superstep is fully committed (profile, trace, clock); a confirmed
  // dead tile now surfaces as a typed error the solver layer can catch to
  // blacklist, repartition and resume.
  if (health_ != nullptr && health_->abortPending()) {
    health_->clearAbort();
    std::string tiles;
    for (std::size_t t : health_->deadTiles()) {
      if (!tiles.empty()) tiles += ", ";
      tiles += std::to_string(t);
    }
    std::string message;
    if (!health_->deadIpus().empty()) {
      std::string ipus;
      for (std::size_t i : health_->deadIpus()) {
        if (!ipus.empty()) ipus += ", ";
        ipus += std::to_string(i);
      }
      message = detail::concatMessage(
          "hard fault: chip(s) ", ipus,
          " declared dead by watchdog escalation (tiles ", tiles, ")");
    } else {
      message = detail::concatMessage(
          "hard fault: tile(s) ", tiles,
          " confirmed dead by the superstep watchdog");
    }
    throw ipu::HardFaultError(message, health_->deadTiles(),
                              health_->deadIpus());
  }
  checkCancelled();
}

void Engine::runExecute(ComputeSetId csId) {
  syncStorage();  // materialise any tensors created since the last program
  // Permanent faults: activation events and persistent SRAM damage are
  // applied serially before the tiles run.
  if (faultPlan_ != nullptr && faultPlan_->hasHardFaults()) {
    EngineFaultSurface surface(*this);
    faultPlan_->onComputeSuperstepStart(profile_.computeSupersteps, surface);
  }
  prepareRuns({&csId, 1});
  runTiles(nullptr);
  commitCompute(runs_[0]);
}

void Engine::runExecuteFused(const ProgramPtr& program) {
  const std::vector<ComputeSetId>& sets = program->fusedSets;
  // A fault plan and a health monitor act on storage between supersteps
  // (injected upsets, the watchdog abort that hands storage to the remap
  // migration), so with either attached the members run as plain
  // supersteps; the fused node is then just a Sequence of Executes.
  if (faultPlan_ != nullptr || health_ != nullptr) {
    for (ComputeSetId cs : sets) runExecute(cs);
    return;
  }

  syncStorage();
  prepareRuns(sets);
  const std::size_t nMembers = sets.size();
  FusedPlan& fp = fusedPlans_[program.get()];
  bool stale = fp.node == nullptr;
  for (std::size_t m = 0; !stale && m < nMembers; ++m) {
    stale = fp.builtVertices[m] != runs_[m].plan->builtVertices;
  }
  if (stale) {
    fp.node = program;
    fp.tiles.clear();
    fp.builtVertices.assign(nMembers, 0);
    std::map<std::size_t, FusedPlan::TileWork> byTile;
    for (std::size_t m = 0; m < nMembers; ++m) {
      const ExecPlan& plan = *runs_[m].plan;
      for (std::size_t ti = 0; ti < plan.tasks.size(); ++ti) {
        byTile[plan.tasks[ti].tile].parts.push_back(
            FusedPlan::Part{static_cast<std::uint32_t>(m),
                            static_cast<std::uint32_t>(ti)});
      }
      fp.builtVertices[m] = plan.builtVertices;
    }
    fp.tiles.reserve(byTile.size());
    for (auto& [tile, work] : byTile) fp.tiles.push_back(std::move(work));
  }

  // Run every tile's whole worklist — all members, in program order — as one
  // host task. Legality is the BSP tile-locality invariant: member k+1's
  // work on tile t reads only tile-t slices, which only member k's work on
  // the same tile (already run, in order) may have written. So results are
  // bit-identical to per-superstep dispatch; only the host-side barriers
  // between members disappear.
  runTiles(&fp);
  // Commit each member as its own superstep, in program order, through the
  // same commit as runExecute: the Profile, trace, tile profile and cancel
  // check all see the unfused sequence of supersteps. A cancel stops at the
  // same superstep; only tensor contents may run ahead of it.
  for (std::size_t m = 0; m < nMembers; ++m) commitCompute(runs_[m]);
}

void Engine::checkCancelled() {
  if (!cancel_) return;
  const char* reason = cancel_(*this);
  if (reason == nullptr) return;
  throw CancelledError(
      detail::concatMessage("solve cancelled after superstep ",
                            profile_.computeSupersteps, " at cycle ",
                            simClock_, ": ", reason),
      reason);
}

void Engine::runCopy(const ProgramPtr& node) {
  const ipu::ExchangeStats stats =
      faultPlan_ == nullptr ? replayCopy(node) : walkCopy(*node);
  profile_.exchangeCycles += stats.cycles;
  profile_.exchangeIntraCycles += stats.intraCycles;
  profile_.exchangeInterCycles += stats.interCycles;
  profile_.exchangeSupersteps += 1;
  profile_.exchangeInstructions += stats.instructions;
  profile_.exchangedBytes += stats.totalBytes;
  profile_.interIpuBytes += stats.interIpuBytes;
  profile_.interIpuMessages += stats.interIpuMessages;
  if (tileProfile_ != nullptr) {
    tileProfile_->exchangeCycles += stats.cycles;
    tileProfile_->exchangeInterCycles += stats.interCycles;
    tileProfile_->exchangeSupersteps += 1;
  }
  for (const auto& [name, value] : node->copyMetrics) {
    profile_.metrics.addCounter(name, value);
  }

  if (trace_ != nullptr) {
    support::TraceEvent ev;
    ev.kind = support::TraceKind::ExchangeSuperstep;
    ev.name = "exchange";
    ev.startCycle = simClock_;
    ev.durationCycles = stats.cycles;
    ev.superstep = profile_.exchangeSupersteps - 1;
    ev.bytes = stats.totalBytes;
    trace_->record(std::move(ev));
  }
  simClock_ += stats.cycles;
  if (trace_ != nullptr) traceNewFaultEvents();
  checkCancelled();
}

ipu::ExchangeStats Engine::replayCopy(const ProgramPtr& node) {
  // The delivered windows and the priced cost of a Copy step are static:
  // resolve them once, then every later execution replays the data movement
  // and charges the cached cost; a zero-byte exchange (empty halos) skips
  // segment simulation entirely. Committed totals are bit-identical to the
  // walk.
  CopyPlan& cp = copyPlans_[node.get()];
  if (cp.node == nullptr) {
    cp.node = node;
    cp.transfers.reserve(node->copies.size());
    for (const CopySegment& seg : node->copies) {
      GRAPHENE_CHECK(seg.src != kInvalidTensor && seg.dst != kInvalidTensor,
                     "copy segment with invalid tensors");
      TensorStorage& src = storageFor(seg.src);
      TensorStorage& dst = storageFor(seg.dst);
      const std::size_t srcFlat = src.tileOffset(seg.srcTile) + seg.srcBegin;
      ipu::Transfer t;
      t.srcTile = seg.srcTile;
      t.bytes = seg.count * ipu::sizeOf(src.dtype());
      for (const CopySegment::Destination& d : seg.dsts) {
        const std::size_t dstFlat = dst.tileOffset(d.tile) + d.begin;
        if (seg.src == seg.dst && seg.srcTile == d.tile &&
            srcFlat == dstFlat) {
          continue;  // no-op self copy
        }
        cp.moves.push_back(
            CopyPlan::Move{seg.src, seg.dst, srcFlat, dstFlat, seg.count});
        t.dstTiles.push_back(d.tile);
      }
      if (!t.dstTiles.empty()) cp.transfers.push_back(std::move(t));
    }
    cp.stats = ipu::priceExchange(graph_.target(), cp.transfers);
  }
  for (const CopyPlan::Move& mv : cp.moves) {
    storage_[mv.dst].copyFrom(storage_[mv.src], mv.srcFlat, mv.dstFlat,
                              mv.count);
  }
  // The tile profile's traffic matrix records each transfer: re-price the
  // resolved transfers into it (the stats come out the cached ones).
  if (tileProfile_ != nullptr) {
    ipu::priceExchange(graph_.target(), cp.transfers, &tileProfile_->traffic);
  }
  return cp.stats;
}

ipu::ExchangeStats Engine::walkCopy(const Program& program) {
  const bool hardFaults = faultPlan_->hasHardFaults();
  std::vector<ipu::Transfer> transfers;
  transfers.reserve(program.copies.size());
  for (const CopySegment& seg : program.copies) {
    GRAPHENE_CHECK(seg.src != kInvalidTensor && seg.dst != kInvalidTensor,
                   "copy segment with invalid tensors");
    // A dead tile never sends: its outgoing transfers neither deliver nor
    // cost fabric cycles, and every destination keeps its stale data. A dead
    // chip is the same verdict for all of its tiles at once. (Both triggers
    // are on the compute-superstep clock, hence the computeSupersteps index.)
    if (hardFaults &&
        (faultPlan_->tileDead(seg.srcTile, profile_.computeSupersteps) ||
         faultPlan_->ipuDead(graph_.target().ipuOfTile(seg.srcTile),
                             profile_.computeSupersteps))) {
      continue;
    }
    TensorStorage& src = storageFor(seg.src);
    TensorStorage& dst = storageFor(seg.dst);
    const std::size_t srcFlat = src.tileOffset(seg.srcTile) + seg.srcBegin;
    ipu::Transfer t;
    t.srcTile = seg.srcTile;
    t.bytes = seg.count * ipu::sizeOf(src.dtype());
    // Fault injection: a transfer can be dropped (payload lost, destination
    // keeps its stale data) or corrupted (payload lands with a flipped bit).
    // Either way the fabric spent the cycles, so pricing is unchanged.
    ipu::TransferFate fate = ipu::TransferFate::Deliver;
    bool fateDecided = false;
    bool delivered = false;
    std::size_t firstDeliveredFlat = 0;
    for (const CopySegment::Destination& d : seg.dsts) {
      const std::size_t dstFlat = dst.tileOffset(d.tile) + d.begin;
      if (seg.src == seg.dst && seg.srcTile == d.tile && srcFlat == dstFlat) {
        continue;  // no-op self copy
      }
      if (!fateDecided) {
        EngineFaultSurface surface(*this);
        fate = faultPlan_->onTransfer(profile_.exchangeSupersteps,
                                      transfers.size(), seg.dst, surface);
        fateDecided = true;
      }
      if (fate != ipu::TransferFate::Drop) {
        dst.copyFrom(src, srcFlat, dstFlat, seg.count);
        if (!delivered) {
          delivered = true;
          firstDeliveredFlat = dstFlat;
        }
      }
      t.dstTiles.push_back(d.tile);
    }
    if (fate == ipu::TransferFate::Corrupt && delivered) {
      EngineFaultSurface surface(*this);
      faultPlan_->corruptDelivered(profile_.exchangeSupersteps, seg.dst,
                                   firstDeliveredFlat, seg.count, surface);
    }
    if (!t.dstTiles.empty()) transfers.push_back(std::move(t));
  }
  ipu::LinkFaults linkFaults;
  if (hardFaults) {
    linkFaults = faultPlan_->linkFaults(profile_.exchangeSupersteps,
                                        profile_.computeSupersteps);
  }
  ipu::ExchangeStats stats = ipu::priceExchange(
      graph_.target(), transfers,
      tileProfile_ != nullptr ? &tileProfile_->traffic : nullptr,
      hardFaults ? &linkFaults : nullptr);
  if (hardFaults) {
    // Degraded links slow the whole exchange phase: BSP exchanges complete
    // when the last transfer lands, so one slow link stretches the phase.
    EngineFaultSurface surface(*this);
    const double stretch =
        faultPlan_->onExchangeSuperstep(profile_.exchangeSupersteps, surface);
    stats.cycles *= stretch;
    stats.intraCycles *= stretch;
    stats.interCycles *= stretch;
  }
  return stats;
}

}  // namespace graphene::graph
