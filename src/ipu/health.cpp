#include "ipu/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace graphene::ipu {

namespace {

// std::to_string on a double prints six fixed decimals ("50000000.000000");
// cycle budgets read better in %g.
std::string formatCycles(double cycles) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", cycles);
  return buf;
}

}  // namespace

void HealthMonitor::observeCompute(std::size_t superstep, std::size_t tile,
                                   double cycles, Profile& profile) {
  if (options_.computeCycleBudget <= 0) return;
  TileHealth& h = tiles_[tile];
  if (h.dead) return;  // already confirmed; don't spam the log
  if (cycles <= options_.computeCycleBudget) {
    h.trips = 0;  // a healthy superstep breaks the consecutive-trip chain
    return;
  }
  ++h.trips;
  ++h.totalTrips;
  ++trips_;
  h.lastTripSuperstep = superstep;
  profile.metrics.addCounter("resilience.watchdog.trips", 1);
  FaultEvent trip;
  trip.kind = "watchdog-trip";
  trip.superstep = superstep;
  trip.target = "tile " + std::to_string(tile);
  trip.cycles = cycles;
  trip.detail = "exceeded compute budget of " +
                formatCycles(options_.computeCycleBudget) + " cycles (trip " +
                std::to_string(h.trips) + "/" +
                std::to_string(options_.tripsToConfirm) + ")";
  profile.faultEvents.push_back(std::move(trip));
  if (h.trips < std::max<std::size_t>(options_.tripsToConfirm, 1)) return;

  h.dead = true;
  deadTiles_.push_back(tile);
  std::sort(deadTiles_.begin(), deadTiles_.end());
  FaultEvent dead;
  dead.kind = "health:tile-dead";
  dead.superstep = superstep;
  dead.target = "tile " + std::to_string(tile);
  dead.detail = "confirmed dead after " + std::to_string(h.trips) +
                " consecutive watchdog trips";
  profile.faultEvents.push_back(std::move(dead));
  if (options_.abortOnConfirmedDead) abortPending_ = true;
}

void HealthMonitor::endSuperstep(std::size_t superstep, Profile& profile) {
  // Chip-level escalation: enough of a chip failing means the chip itself
  // is gone — one shrink verdict instead of a drawn-out tile-by-tile
  // blacklist march.
  if (options_.tilesPerIpu == 0 || deadTiles_.empty()) return;
  const std::size_t perIpu = options_.tilesPerIpu;
  const double fraction =
      std::min(1.0, std::max(options_.ipuDeadFraction, 0.0));
  // Floor of 2: a single dead tile is a tile fault however small the chip
  // — escalation needs a *pattern*. (A 1-tile chip still recovers via the
  // ordinary tile blacklist, which empties it just the same.)
  const auto needed = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(perIpu))));
  // Only chips holding a confirmed-dead tile are candidates (deadTiles_ is
  // ascending, so each chip comes up as one run).
  std::size_t lastIpu = SIZE_MAX;
  for (std::size_t deadTile : deadTiles_) {
    const std::size_t ipu = deadTile / perIpu;
    if (ipu == lastIpu) continue;
    lastIpu = ipu;
    if (std::find(deadIpus_.begin(), deadIpus_.end(), ipu) !=
        deadIpus_.end()) {
      continue;
    }
    std::size_t confirmed = 0;
    std::size_t tripping = 0;
    for (auto it = tiles_.lower_bound(ipu * perIpu);
         it != tiles_.end() && it->first < (ipu + 1) * perIpu; ++it) {
      if (it->second.dead) {
        ++confirmed;
      } else if (it->second.trips > 0) {
        ++tripping;
      }
    }
    if (confirmed + tripping < needed) continue;
    deadIpus_.push_back(ipu);
    std::sort(deadIpus_.begin(), deadIpus_.end());
    profile.metrics.addCounter("resilience.ipu.dead", 1);
    FaultEvent chip;
    chip.kind = "health:ipu-dead";
    chip.superstep = superstep;
    chip.target = "ipu " + std::to_string(ipu);
    chip.detail = std::to_string(confirmed) + "/" + std::to_string(perIpu) +
                  " tiles confirmed dead, " + std::to_string(tripping) +
                  " more tripping — chip declared dead";
    profile.faultEvents.push_back(std::move(chip));
    if (options_.abortOnConfirmedDead) abortPending_ = true;
  }
}

json::Value HealthMonitor::reportJson() const {
  json::Object report;
  report["computeCycleBudget"] = options_.computeCycleBudget;
  report["tripsToConfirm"] = options_.tripsToConfirm;
  report["trips"] = trips_;
  json::Array deadArr;
  for (std::size_t t : deadTiles_) deadArr.push_back(json::Value(t));
  report["deadTiles"] = json::Value(std::move(deadArr));
  if (options_.tilesPerIpu > 0) {
    report["tilesPerIpu"] = options_.tilesPerIpu;
    report["ipuDeadFraction"] = options_.ipuDeadFraction;
    json::Array deadIpusArr;
    for (std::size_t ipu : deadIpus_) deadIpusArr.push_back(json::Value(ipu));
    report["deadIpus"] = json::Value(std::move(deadIpusArr));
  }
  json::Array tilesArr;
  for (const auto& [tile, h] : tiles_) {
    if (h.totalTrips == 0) continue;
    json::Object o;
    o["tile"] = tile;
    o["trips"] = h.totalTrips;
    o["dead"] = h.dead;
    o["lastTripSuperstep"] = h.lastTripSuperstep;
    tilesArr.push_back(json::Value(std::move(o)));
  }
  report["tiles"] = json::Value(std::move(tilesArr));
  return json::Value(std::move(report));
}

void HealthMonitor::reset() {
  tiles_.clear();
  deadTiles_.clear();
  deadIpus_.clear();
  trips_ = 0;
  abortPending_ = false;
}

}  // namespace graphene::ipu
