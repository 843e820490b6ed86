// Execution profile collected by the Engine — the simulated analogue of
// Poplar's profiling feature (§VI-A: "For the IPU, we use Poplar's profiling
// feature to measure the required number of cycles").
//
// Compute cycles are attributed to the *category* of the compute set that
// spent them (e.g. "spmv", "reduce", "ilu_solve", "extended_precision"),
// which is exactly the granularity of the paper's Table IV breakdown. The
// Profile is the run's one ledger of totals: a support::TraceSink only
// keeps the bounded timeline of the same run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/table.hpp"
#include "support/trace.hpp"

namespace graphene::ipu {

/// Per-category aggregate of per-tile superstep timing: where the BSP
/// critical path came from and how unbalanced the tiles were. The engine
/// records one sample per compute superstep (maxCycles matches the
/// category's Profile::computeCycles entry by construction).
struct SuperstepStats {
  std::size_t supersteps = 0;
  double maxCycles = 0;   // summed superstep durations (the critical path)
  double meanCycles = 0;  // summed per-superstep mean over active tiles
  double minCycles = 0;   // summed per-superstep min over active tiles

  /// Worst single superstep seen and the tile that set its critical path.
  double worstCycles = 0;
  std::size_t worstStragglerTile = SIZE_MAX;
  std::size_t worstSuperstep = SIZE_MAX;

  /// BSP imbalance: critical path over mean tile time (1.0 = perfectly
  /// balanced; the straggler's slack is (imbalance - 1) of every superstep).
  double imbalance() const {
    return meanCycles > 0 ? maxCycles / meanCycles : 1.0;
  }

  void record(std::size_t superstep, double min, double mean, double max,
              std::size_t stragglerTile) {
    supersteps += 1;
    maxCycles += max;
    meanCycles += mean;
    minCycles += min;
    if (max > worstCycles) {
      worstCycles = max;
      worstStragglerTile = stragglerTile;
      worstSuperstep = superstep;
    }
  }

  SuperstepStats& operator+=(const SuperstepStats& o) {
    supersteps += o.supersteps;
    maxCycles += o.maxCycles;
    meanCycles += o.meanCycles;
    minCycles += o.minCycles;
    if (o.worstCycles > worstCycles) {
      worstCycles = o.worstCycles;
      worstStragglerTile = o.worstStragglerTile;
      worstSuperstep = o.worstSuperstep;
    }
    return *this;
  }

  bool operator==(const SuperstepStats& o) const {
    return supersteps == o.supersteps && maxCycles == o.maxCycles &&
           meanCycles == o.meanCycles && minCycles == o.minCycles &&
           worstCycles == o.worstCycles &&
           worstStragglerTile == o.worstStragglerTile &&
           worstSuperstep == o.worstSuperstep;
  }
};

/// One injected fault or recovery action, recorded in execution order. The
/// engine's fault-injection hooks append hardware-level events ("bitflip",
/// "stuck-zero", "exchange-drop", "exchange-corrupt", "stall"); the solver
/// layer appends its recovery actions ("recovery:restart",
/// "recovery:rollback") so a log reads as a complete fault/repair timeline.
struct FaultEvent {
  std::string kind;
  std::size_t superstep = 0;  // compute- or exchange-superstep index
  std::string target;         // tensor name, or "tile N" for stalls
  std::size_t element = 0;    // flat element index (bitflip / stuck-zero)
  int bit = -1;               // flipped bit, -1 when not applicable
  double cycles = 0;          // extra cycles charged (stalls)
  std::string detail;

  bool operator==(const FaultEvent& o) const {
    return kind == o.kind && superstep == o.superstep && target == o.target &&
           element == o.element && bit == o.bit && cycles == o.cycles &&
           detail == o.detail;
  }
};

struct Profile {
  /// Cycles per compute-set category (superstep durations, i.e. max over
  /// tiles, summed over executions).
  std::map<std::string, double> computeCycles;

  /// Cycles spent in exchange supersteps (incl. their sync).
  double exchangeCycles = 0;

  /// Two-level split of exchangeCycles (sync excluded): on-chip fabric
  /// serialisation vs IPU-Link transfers. Both are zero-sync shares, so
  /// exchangeIntraCycles + exchangeInterCycles <= exchangeCycles.
  double exchangeIntraCycles = 0;
  double exchangeInterCycles = 0;

  /// Cycles spent in compute-superstep BSP syncs.
  double syncCycles = 0;

  std::size_t computeSupersteps = 0;
  std::size_t exchangeSupersteps = 0;
  std::size_t exchangeInstructions = 0;
  std::size_t exchangedBytes = 0;

  /// Bytes crossing IPU-Links (counted once per destination IPU) and link
  /// transfers charged (after halo aggregation). Zero on a single chip.
  std::size_t interIpuBytes = 0;
  std::size_t interIpuMessages = 0;

  /// Vertices run across all compute supersteps (simulator throughput
  /// statistics; no hardware analogue).
  std::size_t verticesExecuted = 0;

  /// Structured fault log: every injected fault and every solver-level
  /// recovery action, in execution order (empty when no plan is attached).
  std::vector<FaultEvent> faultEvents;

  /// Per-superstep tile-timing aggregates, one entry per compute-set
  /// category (same keys as computeCycles): min/mean/max tile cycles and
  /// the worst straggler tile. This is the aggregate view of what a
  /// TraceSink records per superstep.
  std::map<std::string, SuperstepStats> superstepStats;

  /// Named counters and gauges ticked by the engine, codelets and solvers
  /// (e.g. "spmv.flops", "halo.bytes", "cg.restarts").
  support::MetricsRegistry metrics;

  double totalComputeCycles() const {
    double s = 0;
    for (const auto& [k, v] : computeCycles) s += v;
    return s;
  }

  double totalCycles() const {
    return totalComputeCycles() + exchangeCycles + syncCycles;
  }

  void clear() { *this = Profile{}; }

  Profile& operator+=(const Profile& o) {
    for (const auto& [k, v] : o.computeCycles) computeCycles[k] += v;
    exchangeCycles += o.exchangeCycles;
    exchangeIntraCycles += o.exchangeIntraCycles;
    exchangeInterCycles += o.exchangeInterCycles;
    syncCycles += o.syncCycles;
    computeSupersteps += o.computeSupersteps;
    exchangeSupersteps += o.exchangeSupersteps;
    exchangeInstructions += o.exchangeInstructions;
    exchangedBytes += o.exchangedBytes;
    interIpuBytes += o.interIpuBytes;
    interIpuMessages += o.interIpuMessages;
    verticesExecuted += o.verticesExecuted;
    faultEvents.insert(faultEvents.end(), o.faultEvents.begin(),
                       o.faultEvents.end());
    for (const auto& [k, v] : o.superstepStats) superstepStats[k] += v;
    metrics += o.metrics;
    return *this;
  }
};

/// Per-category cycle breakdown of a run — the paper's Table IV: category,
/// supersteps, cycles, share of total, mean-tile cycles, BSP imbalance
/// (critical path / mean) and the worst straggler tile, then one row each
/// for exchange and sync. Rendered from the Profile alone, so it covers the
/// whole run whether or not a trace ring was attached or wrapped.
TextTable profileSummaryTable(const Profile& profile);

}  // namespace graphene::ipu
