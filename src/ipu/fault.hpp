// Deterministic fault injection for the simulated IPU.
//
// Real fabrics misbehave: tile SRAM takes single-event upsets, exchange
// transfers arrive corrupted or not at all, and a tile can fall behind its
// BSP peers. The simulator must be able to reproduce such behaviour *exactly*
// — a fault plan is seeded, and two runs of the same program under the same
// plan inject byte-identical faults — so that the solver layer's recovery
// paths (restart, checkpoint/rollback) are testable.
//
// A FaultPlan is configured from JSON (the same mechanism that configures
// the solver hierarchy) and attached to a graph::Engine via setFaultPlan().
// With no plan attached the engine's hooks are a single null-pointer test:
// cycle counts and results are bit-identical to a build without the
// framework. Every injected event is appended to the engine Profile's
// structured fault log.
//
// Plan document shape:
//   {
//     "seed": 42,
//     "faults": [
//       {"type": "bitflip",          // SRAM single-event upset
//        "tensor": "cg_x",           // substring match on tensor names
//        "superstep": 120,           // compute superstep; -1/absent = any
//        "element": -1,              // flat index; -1 = seeded-random
//        "bit": 30,                  // 0-63; absent = seeded-random
//        "probability": 1.0,         // per matching opportunity
//        "skip": 0,                  // skip the first N opportunities
//        "count": 1},                // at most N injections
//       {"type": "stuck-zero", "tensor": "bicg_rho"},   // SRAM stuck-at-0
//       {"type": "exchange-drop",    "tensor": "halo", "count": 1},
//       {"type": "exchange-corrupt", "tensor": "halo", "bit": 30},
//       {"type": "stall", "tile": 3, "cycles": 10000, "superstep": 5},
//       // Permanent (hard) faults — persist from the trigger superstep on:
//       {"type": "tile-dead", "tile": 3, "superstep": 40},
//       {"type": "link-degraded", "tile": 5, "factor": 8.0, "superstep": 10},
//       {"type": "sram-region-dead", "tensor": "cg_p", "element": 4,
//        "elements": 8, "superstep": 25},
//       // Pod-scale hard faults:
//       {"type": "ipu-dead", "ipu": 2, "superstep": 40},
//       {"type": "ipu-link-dead", "from": 0, "to": 1, "superstep": 12},
//       {"type": "ipu-link-degraded", "from": 1, "to": 2, "factor": 6.0,
//        "superstep": 12}
//     ]
//   }
// SRAM rules (bitflip, stuck-zero, sram-region-dead) match every tensor whose
// name contains "tensor" (all tensors when it is absent) except the Int32
// index arrays — see FaultSurface::holdsIndices. A rule that matches nothing
// is inert.
//
// Exchange rules match on the *destination* tensor of a transfer and trigger
// per transfer; their "superstep" is the exchange-superstep index. Dropped
// and corrupted transfers are still priced normally — the fabric spent the
// cycles, the payload was lost or damaged in flight.
//
// Hard faults, unlike the transient rules above, ignore "probability",
// "skip" and "count": once the trigger superstep is reached (-1/absent =
// from the start) they stay active for the rest of the run. A dead tile
// stops executing its vertices (each of its compute supersteps instead
// charges "cycles", default 1e9 — what a watchdog sees as a hung tile) and
// its outgoing exchange transfers never happen; "tile-dead"'s trigger is on
// the compute-superstep clock. "link-degraded" multiplies the fabric cost of
// every exchange superstep at or after its (exchange-clock) trigger by
// "factor". "sram-region-dead" pins a region of `elements` cells starting at
// `element` (-1 = seeded-random start) to zero before every compute
// superstep — overwrites don't stick, which is what distinguishes it from a
// transient stuck-zero.
//
// The pod-scale kinds lift the same semantics one level up the hierarchy.
// "ipu-dead" kills every tile of chip "ipu" from its (compute-clock) trigger
// on: each of the chip's compute supersteps charges "cycles" (default 1e9,
// the watchdog-scale hang) and the chip's outgoing transfers are lost.
// "ipu-link-dead" severs the ordered (from, to) IPU-Link from its
// (exchange-clock) trigger — the exchange model re-routes the pair's traffic
// via a surviving chip, or raises a typed LinkPartitionedError when none
// exists. "ipu-link-degraded" multiplies the ordered pair's link cost by
// "factor" (default 4.0) instead of severing it.
//
// "tile", "skip", "ipu", "from" and "to" are integers from 0 to 2^31 - 1,
// and "bit" from 0 to 63; any other value, such as -1 or 2.5, is a
// ParseError naming the rule's type and the key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ipu/exchange.hpp"
#include "ipu/profile.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace graphene::ipu {

/// What the engine exposes to the injector. Keeps this layer independent of
/// the graph substrate: the engine adapts its tensor storage behind this
/// interface.
class FaultSurface {
 public:
  virtual ~FaultSurface() = default;

  virtual std::size_t numTensors() = 0;
  virtual std::string tensorName(std::size_t tensor) = 0;
  virtual std::size_t tensorElements(std::size_t tensor) = 0;

  /// True for an integer index array: column indices, row and split
  /// pointers, level-set orders and pointers. Bit-level rules never select
  /// one — the simulator has no model of the tile memory exception a wild
  /// index raises, so the host would read out of bounds instead.
  virtual bool holdsIndices(std::size_t tensor) = 0;

  /// Flips one bit of an element's raw storage (an SEU). Bit indices wrap
  /// modulo the element width.
  virtual void flipBit(std::size_t tensor, std::size_t element,
                       unsigned bit) = 0;

  /// Forces an element to zero (a stuck-at-zero cell).
  virtual void zeroElement(std::size_t tensor, std::size_t element) = 0;

  /// The profile whose fault log receives injected events.
  virtual Profile& profile() = 0;
};

/// Fate of one exchange transfer under the active plan.
enum class TransferFate { Deliver, Drop, Corrupt };

class FaultPlan {
 public:
  struct Rule {
    enum class Kind { BitFlip, StuckZero, ExchangeDrop, ExchangeCorrupt,
                      Stall, TileDead, LinkDegraded, SramRegionDead,
                      IpuDead, IpuLinkDead, IpuLinkDegraded };
    Kind kind = Kind::BitFlip;
    std::string tensor;            // substring of the target tensor's name
                                   // (SRAM rules skip Int32 index arrays)
    std::int64_t superstep = -1;   // exact superstep trigger; -1 = any
                                   // (hard faults: trigger; -1 = from start)
    double probability = 1.0;      // per matching opportunity
    std::int64_t element = -1;     // -1 = seeded-random within the tensor
    int bit = -1;                  // -1 = seeded-random
    std::size_t tile = 0;          // stall / tile-dead / link target
    double stallCycles = 0;        // stall charge; tile-dead superstep cost
    std::size_t skip = 0;          // skip the first N matching opportunities
    std::size_t count = SIZE_MAX;  // injection budget (transient rules only)
    double factor = 1.0;           // link-degraded fabric-cost multiplier
    std::size_t regionElements = 1;  // sram-region-dead region length
    std::size_t ipu = 0;           // ipu-dead chip target
    std::size_t fromIpu = 0;       // ipu-link-* ordered pair source chip
    std::size_t toIpu = 0;         // ipu-link-* ordered pair destination chip
  };

  FaultPlan() = default;

  /// Builds a plan from a parsed JSON document (shape documented above).
  static FaultPlan fromJson(const json::Value& config);
  static FaultPlan fromJsonText(const std::string& text);

  void addRule(Rule rule) { rules_.push_back(rule); }

  /// Checks the plan against the machine it is attached to: a rule whose
  /// "tile" is not below `tiles`, or whose "ipu", "from" or "to" is not
  /// below `chips`, would match nothing, so it is an Error naming the
  /// rule's kind, the key and the valid range.
  void checkTargets(std::size_t tiles, std::size_t chips) const;

  bool enabled() const { return !rules_.empty(); }
  std::uint64_t seed() const { return seed_; }
  std::size_t injectedCount() const { return injected_; }

  /// Whether any rule is a permanent fault (tile-dead / link-degraded /
  /// sram-region-dead). The engine checks this once per superstep and only
  /// then consults the per-tile queries below.
  bool hasHardFaults() const;

  // -- permanent-fault queries ----------------------------------------------
  // Pure functions of the rule set (no RNG, no state): safe to call from
  // concurrent host threads simulating tiles in parallel.

  /// True when `tile` is dead at compute superstep `index`.
  bool tileDead(std::size_t tile, std::size_t index) const;

  /// Cycles a dead tile charges per compute superstep (what the BSP barrier
  /// — and a watchdog — sees while the rest of the machine waits).
  double deadTileCycles(std::size_t tile) const;

  /// Fabric-cost multiplier for exchange superstep `index` (product of the
  /// factors of every active link-degraded rule; 1.0 = healthy fabric).
  double linkFactor(std::size_t index) const;

  /// True when every tile of chip `ipu` is dead at compute superstep `index`.
  bool ipuDead(std::size_t ipu, std::size_t index) const;

  /// Cycles each tile of a dead chip charges per compute superstep.
  double deadIpuCycles(std::size_t ipu) const;

  /// The IPU-Link fabric faults active for exchange superstep
  /// `exchangeIndex`: severed / degraded ordered pairs (exchange clock) plus
  /// the chips dead at compute superstep `computeIndex`, which re-routing
  /// must not use as relays. Empty when no pod-scale rule is active.
  LinkFaults linkFaults(std::size_t exchangeIndex,
                        std::size_t computeIndex) const;

  /// Restores the plan to its just-built state (RNG re-seeded, budgets and
  /// skip counters reset) so the same plan object can drive a fresh run.
  void reset();

  // -- engine hooks ---------------------------------------------------------

  /// Called (serially) before compute superstep `index` runs, and only when
  /// hasHardFaults(). Logs one activation event per hard fault crossing its
  /// trigger and re-applies persistent SRAM-region damage so that overwrites
  /// from the previous superstep don't stick.
  void onComputeSuperstepStart(std::size_t index, FaultSurface& surface);

  /// Called (serially) once per exchange superstep when hasHardFaults():
  /// logs link-degradation activation events and returns linkFactor(index).
  double onExchangeSuperstep(std::size_t index, FaultSurface& surface);

  /// Called after compute superstep `index` completes, before its cycles are
  /// committed. Applies SRAM faults (bit flips / stuck-at-zero) and returns
  /// extra stall cycles to charge to the superstep's critical path.
  double afterComputeSuperstep(std::size_t index, FaultSurface& surface);

  /// Decides the fate of one exchange transfer destined for `dstTensor`.
  /// Drop events are logged here; a Corrupt verdict is followed by a
  /// corruptDelivered() call once the payload has landed.
  TransferFate onTransfer(std::size_t exchangeIndex,
                          std::size_t transferIndex, std::size_t dstTensor,
                          FaultSurface& surface);

  /// Flips one bit somewhere in the delivered range [dstFlat, dstFlat+count)
  /// of a transfer that onTransfer() marked Corrupt, and logs the event.
  void corruptDelivered(std::size_t exchangeIndex, std::size_t dstTensor,
                        std::size_t dstFlat, std::size_t count,
                        FaultSurface& surface);

 private:
  struct RuleState {
    std::size_t injected = 0;
    std::size_t skipped = 0;
    // SRAM-rule target cache (name match, index arrays skipped); rebuilt
    // when the tensor count changes.
    std::vector<std::size_t> matches;
    std::size_t matchedAt = SIZE_MAX;
    // Hard faults: activation already logged, and the (tensor, start)
    // choice of a sram-region-dead rule, fixed at activation time.
    bool activated = false;
    std::size_t regionTensor = SIZE_MAX;
    std::size_t regionStart = 0;
  };

  bool fires(const Rule& rule, RuleState& state, std::int64_t index);
  const std::vector<std::size_t>& matchingTensors(const Rule& rule,
                                                  RuleState& state,
                                                  FaultSurface& surface);

  std::uint64_t seed_ = 0x9E3779B97F4A7C15ull;
  Rng rng_{seed_};
  std::vector<Rule> rules_;
  std::vector<RuleState> states_;
  std::size_t injected_ = 0;
  int pendingCorruptBit_ = -1;  // bit choice of the last Corrupt verdict
};

/// Serialises a fault log (e.g. `engine.profile().faultEvents`) to JSON.
json::Value faultEventsToJson(const std::vector<FaultEvent>& events);

/// Parses a fault log serialised by faultEventsToJson — strict (unknown or
/// ill-typed keys are errors), and an exact round-trip inverse:
/// faultEventsFromJson(faultEventsToJson(log)) == log.
std::vector<FaultEvent> faultEventsFromJson(const json::Value& doc);

/// Human-readable one-line-per-event rendering of a fault log.
std::string formatFaultEvents(const std::vector<FaultEvent>& events);

}  // namespace graphene::ipu
