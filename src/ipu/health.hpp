// Superstep watchdog and tile-health bookkeeping.
//
// Hard faults cannot be detected by value inspection: a dead tile produces
// no values at all — it simply never reaches the BSP barrier. What a real
// fabric observes is *time*: the slowest tile sets the superstep duration,
// and a tile that exceeds any plausible cycle budget is hung. HealthMonitor
// implements that observation for the simulator. The engine reports every
// (superstep, tile, cycles) sample to observeCompute() from its serial
// reduction pass — the same pass that keeps profiles bit-identical at any
// host thread count — so watchdog trips and dead-tile confirmations are
// deterministic.
//
// A tile is confirmed dead after `tripsToConfirm` consecutive budget
// overruns (one slow superstep is a straggler; several in a row on the same
// tile is a hang). On confirmation the monitor logs a "health:tile-dead"
// fault event and, when abortOnConfirmedDead is set, arms an abort: the
// engine finishes committing the superstep (profile, trace, simulated
// clock), then throws HardFaultError so the solver layer can blacklist the
// tile, repartition, and resume from checkpointed state.
//
// Chip verdicts are decided once per superstep, after every tile of it was
// observed (endSuperstep). A superstep may run only a few tiles of a dying
// chip — a reduction leader, say — so a tile can be confirmed while its
// chip-mates have tripped but not yet reached confirmation. The tally
// therefore counts a chip's tiles that are confirmed dead or still on an
// unbroken chain of trips.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "ipu/profile.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace graphene::ipu {

/// Thrown by the engine when the health monitor confirms dead tiles and is
/// configured to abort. Carries the (sorted) list of confirmed-dead tiles —
/// and, when the monitor escalated tile deaths to a whole-chip verdict, the
/// (sorted) dead chips — so the catcher can blacklist tiles or shrink the
/// topology.
class HardFaultError : public Error {
 public:
  HardFaultError(const std::string& message, std::vector<std::size_t> tiles,
                 std::vector<std::size_t> ipus = {})
      : Error(message),
        deadTiles_(std::move(tiles)),
        deadIpus_(std::move(ipus)) {}

  const std::vector<std::size_t>& deadTiles() const { return deadTiles_; }
  const std::vector<std::size_t>& deadIpus() const { return deadIpus_; }

 private:
  std::vector<std::size_t> deadTiles_;
  std::vector<std::size_t> deadIpus_;
};

class HealthMonitor {
 public:
  struct Options {
    /// Compute cycles a single tile may spend in one superstep before the
    /// watchdog trips. Must sit above every legitimate superstep (including
    /// injected transient stalls) and below the dead-tile charge.
    double computeCycleBudget = 5e7;
    /// Consecutive trips on the same tile before it is confirmed dead.
    std::size_t tripsToConfirm = 2;
    /// Arm an engine abort (HardFaultError) when a tile is confirmed dead.
    /// Leave false when no recovery is possible — the run then completes
    /// and the caller reads the health report instead.
    bool abortOnConfirmedDead = true;
    /// Chip-level escalation: when > 0, tiles aggregate into chips of this
    /// many tiles, and a chip with a confirmed-dead tile whose failing tiles
    /// (confirmed dead, or tripping on an unbroken chain) number at least
    /// ceil(ipuDeadFraction * tilesPerIpu) is declared ipu-dead (a
    /// "health:ipu-dead" event + the deadIpus() verdict the recovery layer
    /// turns into a topology shrink). 0 = per-tile verdicts only.
    std::size_t tilesPerIpu = 0;
    /// Fraction of a chip's tiles that must be failing before the chip
    /// itself is declared dead. In (0, 1].
    double ipuDeadFraction = 0.5;
  };

  HealthMonitor() = default;
  explicit HealthMonitor(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  /// One (superstep, tile, cycles) sample from the engine's serial
  /// reduction pass. Logs watchdog-trip / health:tile-dead events into
  /// `profile` and updates the resilience.* counters.
  void observeCompute(std::size_t superstep, std::size_t tile, double cycles,
                      Profile& profile);

  /// Called once after the superstep's last observeCompute: decides the
  /// chip verdicts (Options::tilesPerIpu), logging health:ipu-dead.
  void endSuperstep(std::size_t superstep, Profile& profile);

  /// Tiles confirmed dead so far, ascending.
  const std::vector<std::size_t>& deadTiles() const { return deadTiles_; }

  /// Chips declared dead by the tile-fraction escalation, ascending. Empty
  /// unless Options::tilesPerIpu enabled chip aggregation.
  const std::vector<std::size_t>& deadIpus() const { return deadIpus_; }

  /// True once a confirmation armed an abort; the engine throws after the
  /// superstep is committed. clearAbort() disarms (the throw consumed it).
  bool abortPending() const { return abortPending_; }
  void clearAbort() { abortPending_ = false; }

  /// Total watchdog trips observed (all tiles).
  std::size_t trips() const { return trips_; }

  /// Machine-readable health report:
  ///   {"computeCycleBudget": ..., "tripsToConfirm": ..., "trips": N,
  ///    "deadTiles": [...], "tiles": [{"tile", "trips", "dead",
  ///                                   "lastTripSuperstep"}, ...]}
  json::Value reportJson() const;

  /// Forgets all observations (fresh run on the same monitor).
  void reset();

 private:
  struct TileHealth {
    std::size_t trips = 0;          // consecutive budget overruns
    std::size_t totalTrips = 0;
    std::size_t lastTripSuperstep = SIZE_MAX;
    bool dead = false;
  };

  Options options_;
  std::map<std::size_t, TileHealth> tiles_;  // ordered: deterministic report
  std::vector<std::size_t> deadTiles_;
  std::vector<std::size_t> deadIpus_;
  std::size_t trips_ = 0;
  bool abortPending_ = false;
};

}  // namespace graphene::ipu
