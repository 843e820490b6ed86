#include "ipu/fault.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace graphene::ipu {

using json::KeyKind;
using json::KeySpec;
using json::validateKeys;

namespace {

/// The bound of a rule's tile, chip and skip counts.
constexpr std::size_t kMaxRuleCount = 2147483647;

/// The one list of valid fault kinds, shared by every validation message
/// that names the set — adding a kind here updates them all.
constexpr const char* kValidFaultKinds =
    "bitflip, stuck-zero, exchange-drop, exchange-corrupt, stall, "
    "tile-dead, link-degraded, sram-region-dead, ipu-dead, ipu-link-dead, "
    "ipu-link-degraded";

FaultPlan::Rule::Kind parseKind(const std::string& s) {
  using Kind = FaultPlan::Rule::Kind;
  if (s == "bitflip" || s == "bit-flip") return Kind::BitFlip;
  if (s == "stuck-zero" || s == "zero") return Kind::StuckZero;
  if (s == "exchange-drop" || s == "drop") return Kind::ExchangeDrop;
  if (s == "exchange-corrupt" || s == "corrupt") return Kind::ExchangeCorrupt;
  if (s == "stall") return Kind::Stall;
  if (s == "tile-dead" || s == "tile_dead") return Kind::TileDead;
  if (s == "link-degraded" || s == "link_degraded") return Kind::LinkDegraded;
  if (s == "sram-region-dead" || s == "sram_region_dead") {
    return Kind::SramRegionDead;
  }
  if (s == "ipu-dead" || s == "ipu_dead") return Kind::IpuDead;
  if (s == "ipu-link-dead" || s == "ipu_link_dead") return Kind::IpuLinkDead;
  if (s == "ipu-link-degraded" || s == "ipu_link_degraded") {
    return Kind::IpuLinkDegraded;
  }
  throw ParseError("unknown fault type '" + s + "' (valid: " +
                   kValidFaultKinds + ")");
}

const char* kindName(FaultPlan::Rule::Kind kind) {
  using Kind = FaultPlan::Rule::Kind;
  switch (kind) {
    case Kind::BitFlip: return "bitflip";
    case Kind::StuckZero: return "stuck-zero";
    case Kind::ExchangeDrop: return "exchange-drop";
    case Kind::ExchangeCorrupt: return "exchange-corrupt";
    case Kind::Stall: return "stall";
    case Kind::TileDead: return "tile-dead";
    case Kind::LinkDegraded: return "link-degraded";
    case Kind::SramRegionDead: return "sram-region-dead";
    case Kind::IpuDead: return "ipu-dead";
    case Kind::IpuLinkDead: return "ipu-link-dead";
    case Kind::IpuLinkDegraded: return "ipu-link-degraded";
  }
  GRAPHENE_UNREACHABLE("bad fault kind");
}

void validateRule(const json::Value& f, FaultPlan::Rule::Kind kind) {
  using Kind = FaultPlan::Rule::Kind;
  const std::string where =
      std::string("'") + kindName(kind) + "' fault rule";
  // Shared transient-rule knobs.
  const KeySpec type{"type", KeyKind::String};
  const KeySpec tensor{"tensor", KeyKind::String};
  const KeySpec superstep{"superstep", KeyKind::Number};
  const KeySpec probability{"probability", KeyKind::Number};
  const KeySpec skip{"skip", KeyKind::Number};
  const KeySpec count{"count", KeyKind::Number};
  switch (kind) {
    case Kind::BitFlip:
      validateKeys(f, where,
                   {type, tensor, superstep, {"element", KeyKind::Number},
                    {"bit", KeyKind::Number}, probability, skip, count});
      break;
    case Kind::StuckZero:
      validateKeys(f, where,
                   {type, tensor, superstep, {"element", KeyKind::Number},
                    probability, skip, count});
      break;
    case Kind::ExchangeDrop:
      validateKeys(f, where, {type, tensor, superstep, probability, skip,
                              count});
      break;
    case Kind::ExchangeCorrupt:
      validateKeys(f, where, {type, tensor, superstep,
                              {"bit", KeyKind::Number}, probability, skip,
                              count});
      break;
    case Kind::Stall:
      validateKeys(f, where,
                   {type, {"tile", KeyKind::Number},
                    {"cycles", KeyKind::Number}, superstep, probability, skip,
                    count});
      break;
    case Kind::TileDead:
      validateKeys(f, where, {type, {"tile", KeyKind::Number}, superstep,
                              {"cycles", KeyKind::Number}});
      break;
    case Kind::LinkDegraded:
      validateKeys(f, where, {type, {"tile", KeyKind::Number}, superstep,
                              {"factor", KeyKind::Number}});
      break;
    case Kind::SramRegionDead:
      validateKeys(f, where, {type, tensor, superstep,
                              {"element", KeyKind::Number},
                              {"elements", KeyKind::Number}});
      break;
    case Kind::IpuDead:
      validateKeys(f, where, {type, {"ipu", KeyKind::Number}, superstep,
                              {"cycles", KeyKind::Number}});
      break;
    case Kind::IpuLinkDead:
      validateKeys(f, where, {type, {"from", KeyKind::Number},
                              {"to", KeyKind::Number}, superstep});
      break;
    case Kind::IpuLinkDegraded:
      validateKeys(f, where, {type, {"from", KeyKind::Number},
                              {"to", KeyKind::Number}, superstep,
                              {"factor", KeyKind::Number}});
      break;
  }
}

bool isHardKind(FaultPlan::Rule::Kind kind) {
  using Kind = FaultPlan::Rule::Kind;
  return kind == Kind::TileDead || kind == Kind::LinkDegraded ||
         kind == Kind::SramRegionDead || kind == Kind::IpuDead ||
         kind == Kind::IpuLinkDead || kind == Kind::IpuLinkDegraded;
}

/// A hard fault is active at superstep `index` once its trigger is reached.
bool hardActive(const FaultPlan::Rule& rule, std::int64_t index) {
  return rule.superstep < 0 || index >= rule.superstep;
}

}  // namespace

FaultPlan FaultPlan::fromJson(const json::Value& config) {
  GRAPHENE_CHECK(config.isObject(), "fault plan must be a JSON object");
  validateKeys(config, "fault plan",
               {{"seed", KeyKind::Number}, {"faults", KeyKind::Array}});
  FaultPlan plan;
  plan.seed_ = static_cast<std::uint64_t>(
      config.getOr("seed", std::int64_t(0x9E3779B97F4A7C15ull)));
  plan.rng_ = Rng(plan.seed_);
  if (!config.contains("faults")) return plan;
  for (const json::Value& f : config.at("faults").asArray()) {
    GRAPHENE_CHECK(f.isObject(), "each fault rule must be a JSON object");
    GRAPHENE_CHECK(f.contains("type"),
                   "each fault rule needs a 'type' key (", kValidFaultKinds,
                   ")");
    GRAPHENE_CHECK(f.at("type").isString(),
                   "key 'type' in fault rule must be a string");
    Rule r;
    r.kind = parseKind(f.at("type").asString());
    validateRule(f, r.kind);
    // Tiles, chips, skips and bits are read as counts, so that a negative,
    // fractional or oversized value is rejected by name instead of wrapping.
    auto countOf = [&](const char* key, std::size_t max = kMaxRuleCount) {
      return json::countOr(f, kindName(r.kind), key, 0, max);
    };
    r.tensor = f.getOr("tensor", std::string());
    r.superstep = f.getOr("superstep", std::int64_t(-1));
    r.probability = f.getOr("probability", 1.0);
    GRAPHENE_CHECK(r.probability >= 0.0 && r.probability <= 1.0,
                   "fault probability must be in [0, 1], got ", r.probability);
    r.element = f.getOr("element", std::int64_t(-1));
    // Bits past 63 would wrap in flipBit; an absent bit is seeded-random.
    if (f.contains("bit")) {
      r.bit = static_cast<int>(countOf("bit", 63));
    }
    r.tile = countOf("tile");
    r.stallCycles = f.getOr("cycles", 0.0);
    r.skip = countOf("skip");
    const std::int64_t count =
        f.getOr("count", std::int64_t(-1));
    r.count = count < 0 ? SIZE_MAX : static_cast<std::size_t>(count);
    if (r.kind == Rule::Kind::Stall) {
      GRAPHENE_CHECK(r.stallCycles > 0,
                     "stall fault needs positive 'cycles'");
    }
    if (r.kind == Rule::Kind::TileDead) {
      // A dead tile hangs at the barrier; what the fabric observes per
      // superstep is a watchdog-scale cycle count, not a stall.
      if (r.stallCycles <= 0) r.stallCycles = 1e9;
    }
    if (r.kind == Rule::Kind::LinkDegraded) {
      r.factor = f.getOr("factor", 4.0);
      GRAPHENE_CHECK(r.factor >= 1.0,
                     "link-degraded 'factor' must be >= 1, got ", r.factor);
    }
    if (r.kind == Rule::Kind::SramRegionDead) {
      const std::int64_t elements = f.getOr("elements", std::int64_t(1));
      GRAPHENE_CHECK(elements >= 1,
                     "sram-region-dead 'elements' must be >= 1, got ",
                     elements);
      r.regionElements = static_cast<std::size_t>(elements);
    }
    if (r.kind == Rule::Kind::IpuDead) {
      GRAPHENE_CHECK(f.contains("ipu"),
                     "ipu-dead fault needs an 'ipu' key (the chip to kill)");
      r.ipu = countOf("ipu");
      // Same watchdog-scale hang per superstep as tile-dead, for every tile
      // of the chip.
      if (r.stallCycles <= 0) r.stallCycles = 1e9;
    }
    if (r.kind == Rule::Kind::IpuLinkDead ||
        r.kind == Rule::Kind::IpuLinkDegraded) {
      const std::string where = std::string("'") + kindName(r.kind) + "'";
      GRAPHENE_CHECK(f.contains("from") && f.contains("to"), where,
                     " fault needs 'from' and 'to' keys (the ordered chip "
                     "pair whose link it hits)");
      r.fromIpu = countOf("from");
      r.toIpu = countOf("to");
      GRAPHENE_CHECK(r.fromIpu != r.toIpu, where,
                     " fault needs 'from' != 'to' — a chip has no link to "
                     "itself");
      if (r.kind == Rule::Kind::IpuLinkDegraded) {
        r.factor = f.getOr("factor", 4.0);
        GRAPHENE_CHECK(r.factor >= 1.0,
                       "ipu-link-degraded 'factor' must be >= 1, got ",
                       r.factor);
      }
    }
    plan.rules_.push_back(r);
  }
  return plan;
}

FaultPlan FaultPlan::fromJsonText(const std::string& text) {
  return fromJson(json::parse(text));
}

void FaultPlan::reset() {
  rng_ = Rng(seed_);
  states_.clear();
  injected_ = 0;
  pendingCorruptBit_ = -1;
}

bool FaultPlan::fires(const Rule& rule, RuleState& state, std::int64_t index) {
  if (rule.superstep >= 0 && rule.superstep != index) return false;
  if (state.injected >= rule.count) return false;
  if (rule.probability < 1.0 && rng_.nextDouble() >= rule.probability) {
    return false;
  }
  if (state.skipped < rule.skip) {
    ++state.skipped;
    return false;
  }
  return true;
}

const std::vector<std::size_t>& FaultPlan::matchingTensors(
    const Rule& rule, RuleState& state, FaultSurface& surface) {
  const std::size_t n = surface.numTensors();
  if (state.matchedAt != n) {
    state.matches.clear();
    for (std::size_t t = 0; t < n; ++t) {
      if (surface.holdsIndices(t)) continue;
      if (rule.tensor.empty() ||
          surface.tensorName(t).find(rule.tensor) != std::string::npos) {
        state.matches.push_back(t);
      }
    }
    state.matchedAt = n;
  }
  return state.matches;
}

bool FaultPlan::hasHardFaults() const {
  for (const Rule& rule : rules_) {
    if (isHardKind(rule.kind)) return true;
  }
  return false;
}

bool FaultPlan::tileDead(std::size_t tile, std::size_t index) const {
  const auto idx = static_cast<std::int64_t>(index);
  for (const Rule& rule : rules_) {
    if (rule.kind == Rule::Kind::TileDead && rule.tile == tile &&
        hardActive(rule, idx)) {
      return true;
    }
  }
  return false;
}

double FaultPlan::deadTileCycles(std::size_t tile) const {
  double cycles = 0;
  for (const Rule& rule : rules_) {
    if (rule.kind == Rule::Kind::TileDead && rule.tile == tile) {
      cycles = std::max(cycles, rule.stallCycles);
    }
  }
  return cycles;
}

double FaultPlan::linkFactor(std::size_t index) const {
  const auto idx = static_cast<std::int64_t>(index);
  double factor = 1.0;
  for (const Rule& rule : rules_) {
    if (rule.kind == Rule::Kind::LinkDegraded && hardActive(rule, idx)) {
      factor *= rule.factor;
    }
  }
  return factor;
}

bool FaultPlan::ipuDead(std::size_t ipu, std::size_t index) const {
  const auto idx = static_cast<std::int64_t>(index);
  for (const Rule& rule : rules_) {
    if (rule.kind == Rule::Kind::IpuDead && rule.ipu == ipu &&
        hardActive(rule, idx)) {
      return true;
    }
  }
  return false;
}

double FaultPlan::deadIpuCycles(std::size_t ipu) const {
  double cycles = 0;
  for (const Rule& rule : rules_) {
    if (rule.kind == Rule::Kind::IpuDead && rule.ipu == ipu) {
      cycles = std::max(cycles, rule.stallCycles);
    }
  }
  return cycles;
}

LinkFaults FaultPlan::linkFaults(std::size_t exchangeIndex,
                                 std::size_t computeIndex) const {
  const auto xIdx = static_cast<std::int64_t>(exchangeIndex);
  const auto cIdx = static_cast<std::int64_t>(computeIndex);
  LinkFaults faults;
  for (const Rule& rule : rules_) {
    switch (rule.kind) {
      case Rule::Kind::IpuLinkDead:
        if (hardActive(rule, xIdx)) {
          faults.deadPairs.emplace_back(rule.fromIpu, rule.toIpu);
        }
        break;
      case Rule::Kind::IpuLinkDegraded:
        if (hardActive(rule, xIdx)) {
          faults.degraded.push_back({rule.fromIpu, rule.toIpu, rule.factor});
        }
        break;
      case Rule::Kind::IpuDead:
        // A dying chip still gets its traffic priced (the watchdog must keep
        // seeing it), but it cannot serve as a re-route relay.
        if (hardActive(rule, cIdx) && !faults.ipuDead(rule.ipu)) {
          faults.deadIpus.push_back(rule.ipu);
        }
        break;
      default:
        break;
    }
  }
  return faults;
}

void FaultPlan::onComputeSuperstepStart(std::size_t index,
                                        FaultSurface& surface) {
  states_.resize(rules_.size());
  const auto idx = static_cast<std::int64_t>(index);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    RuleState& state = states_[i];
    switch (rule.kind) {
      case Rule::Kind::TileDead: {
        if (!hardActive(rule, idx) || state.activated) break;
        state.activated = true;
        FaultEvent ev;
        ev.kind = kindName(rule.kind);
        ev.superstep = index;
        ev.target = "tile " + std::to_string(rule.tile);
        ev.cycles = rule.stallCycles;
        ev.detail = "permanent: tile stops executing; outgoing transfers "
                    "are lost";
        surface.profile().faultEvents.push_back(std::move(ev));
        ++injected_;
        break;
      }
      case Rule::Kind::IpuDead: {
        if (!hardActive(rule, idx) || state.activated) break;
        state.activated = true;
        FaultEvent ev;
        ev.kind = kindName(rule.kind);
        ev.superstep = index;
        ev.target = "ipu " + std::to_string(rule.ipu);
        ev.cycles = rule.stallCycles;
        ev.detail = "permanent: every tile of the chip stops executing; "
                    "its outgoing transfers are lost";
        surface.profile().faultEvents.push_back(std::move(ev));
        ++injected_;
        break;
      }
      case Rule::Kind::SramRegionDead: {
        if (!hardActive(rule, idx)) break;
        if (!state.activated) {
          const auto& matches = matchingTensors(rule, state, surface);
          if (matches.empty()) break;
          const std::size_t tensor =
              matches.size() == 1 ? matches[0]
                                  : matches[rng_.nextBelow(matches.size())];
          const std::size_t elems = surface.tensorElements(tensor);
          if (elems == 0) break;
          state.activated = true;
          state.regionTensor = tensor;
          state.regionStart =
              rule.element >= 0
                  ? static_cast<std::size_t>(rule.element) % elems
                  : rng_.nextBelow(elems);
          FaultEvent ev;
          ev.kind = kindName(rule.kind);
          ev.superstep = index;
          ev.target = surface.tensorName(tensor);
          ev.element = state.regionStart;
          ev.detail = "permanent: " + std::to_string(rule.regionElements) +
                      " element(s) stuck at zero";
          surface.profile().faultEvents.push_back(std::move(ev));
          ++injected_;
        }
        // Persistence: re-pin the region to zero before every superstep, so
        // writes from the previous superstep never stick.
        const std::size_t elems =
            surface.tensorElements(state.regionTensor);
        for (std::size_t e = 0; e < rule.regionElements; ++e) {
          const std::size_t flat = state.regionStart + e;
          if (flat >= elems) break;
          surface.zeroElement(state.regionTensor, flat);
        }
        break;
      }
      default:
        break;  // transient rules and link-degraded have their own hooks
    }
  }
}

double FaultPlan::onExchangeSuperstep(std::size_t index,
                                      FaultSurface& surface) {
  states_.resize(rules_.size());
  const auto idx = static_cast<std::int64_t>(index);
  double factor = 1.0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    RuleState& state = states_[i];
    if (rule.kind == Rule::Kind::LinkDegraded && hardActive(rule, idx)) {
      if (!state.activated) {
        state.activated = true;
        FaultEvent ev;
        ev.kind = kindName(rule.kind);
        ev.superstep = index;
        ev.target = "tile " + std::to_string(rule.tile);
        ev.detail = "permanent: fabric cost x" + std::to_string(rule.factor) +
                    " from this exchange on";
        surface.profile().faultEvents.push_back(std::move(ev));
        ++injected_;
      }
      factor *= rule.factor;
    }
    // The pod-scale link kinds only log their activation here; their cost
    // effect is per ordered pair, applied inside priceExchange via
    // linkFaults() — not through the global factor.
    if ((rule.kind == Rule::Kind::IpuLinkDead ||
         rule.kind == Rule::Kind::IpuLinkDegraded) &&
        hardActive(rule, idx) && !state.activated) {
      state.activated = true;
      FaultEvent ev;
      ev.kind = kindName(rule.kind);
      ev.superstep = index;
      ev.target = "link " + std::to_string(rule.fromIpu) + "->" +
                  std::to_string(rule.toIpu);
      ev.detail = rule.kind == Rule::Kind::IpuLinkDead
                      ? "permanent: link severed; traffic re-routes via a "
                        "surviving chip"
                      : "permanent: link cost x" + std::to_string(rule.factor) +
                            " from this exchange on";
      surface.profile().faultEvents.push_back(std::move(ev));
      ++injected_;
    }
  }
  return factor;
}

double FaultPlan::afterComputeSuperstep(std::size_t index,
                                        FaultSurface& surface) {
  states_.resize(rules_.size());
  const auto idx = static_cast<std::int64_t>(index);
  double extraCycles = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    RuleState& state = states_[i];
    switch (rule.kind) {
      case Rule::Kind::BitFlip:
      case Rule::Kind::StuckZero: {
        // Fast pre-checks before consuming randomness.
        if (rule.superstep >= 0 && rule.superstep != idx) break;
        if (state.injected >= rule.count) break;
        const auto& matches = matchingTensors(rule, state, surface);
        if (matches.empty()) break;
        if (!fires(rule, state, idx)) break;
        const std::size_t tensor =
            matches.size() == 1 ? matches[0]
                                : matches[rng_.nextBelow(matches.size())];
        const std::size_t elems = surface.tensorElements(tensor);
        if (elems == 0) break;
        const std::size_t element =
            rule.element >= 0
                ? static_cast<std::size_t>(rule.element) % elems
                : rng_.nextBelow(elems);
        FaultEvent ev;
        ev.kind = kindName(rule.kind);
        ev.superstep = index;
        ev.target = surface.tensorName(tensor);
        ev.element = element;
        if (rule.kind == Rule::Kind::BitFlip) {
          ev.bit = rule.bit >= 0 ? rule.bit
                                 : static_cast<int>(rng_.nextBelow(32));
          surface.flipBit(tensor, element, static_cast<unsigned>(ev.bit));
        } else {
          surface.zeroElement(tensor, element);
        }
        surface.profile().faultEvents.push_back(std::move(ev));
        ++state.injected;
        ++injected_;
        break;
      }
      case Rule::Kind::Stall: {
        if (!fires(rule, state, idx)) break;
        FaultEvent ev;
        ev.kind = kindName(rule.kind);
        ev.superstep = index;
        ev.target = "tile " + std::to_string(rule.tile);
        ev.cycles = rule.stallCycles;
        surface.profile().faultEvents.push_back(std::move(ev));
        extraCycles += rule.stallCycles;
        ++state.injected;
        ++injected_;
        break;
      }
      case Rule::Kind::ExchangeDrop:
      case Rule::Kind::ExchangeCorrupt:
        break;  // exchange hooks only
      case Rule::Kind::TileDead:
      case Rule::Kind::LinkDegraded:
      case Rule::Kind::SramRegionDead:
      case Rule::Kind::IpuDead:
      case Rule::Kind::IpuLinkDead:
      case Rule::Kind::IpuLinkDegraded:
        break;  // permanent faults: onComputeSuperstepStart / exchange hooks
    }
  }
  return extraCycles;
}

TransferFate FaultPlan::onTransfer(std::size_t exchangeIndex,
                                   std::size_t transferIndex,
                                   std::size_t dstTensor,
                                   FaultSurface& surface) {
  (void)transferIndex;
  states_.resize(rules_.size());
  const auto idx = static_cast<std::int64_t>(exchangeIndex);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    if (rule.kind != Rule::Kind::ExchangeDrop &&
        rule.kind != Rule::Kind::ExchangeCorrupt) {
      continue;
    }
    RuleState& state = states_[i];
    if (rule.superstep >= 0 && rule.superstep != idx) continue;
    if (state.injected >= rule.count) continue;
    if (!rule.tensor.empty() &&
        surface.tensorName(dstTensor).find(rule.tensor) ==
            std::string::npos) {
      continue;
    }
    if (!fires(rule, state, idx)) continue;
    ++state.injected;
    ++injected_;
    if (rule.kind == Rule::Kind::ExchangeDrop) {
      FaultEvent ev;
      ev.kind = kindName(rule.kind);
      ev.superstep = exchangeIndex;
      ev.target = surface.tensorName(dstTensor);
      ev.detail = "transfer payload lost in flight";
      surface.profile().faultEvents.push_back(std::move(ev));
      return TransferFate::Drop;
    }
    pendingCorruptBit_ = rule.bit;
    return TransferFate::Corrupt;
  }
  return TransferFate::Deliver;
}

void FaultPlan::corruptDelivered(std::size_t exchangeIndex,
                                 std::size_t dstTensor, std::size_t dstFlat,
                                 std::size_t count, FaultSurface& surface) {
  GRAPHENE_CHECK(count > 0, "cannot corrupt an empty transfer");
  // The bit choice was fixed when the Corrupt verdict fell; the element
  // within the delivered range is drawn from the plan RNG.
  const int bit = pendingCorruptBit_;
  pendingCorruptBit_ = -1;
  FaultEvent ev;
  ev.kind = "exchange-corrupt";
  ev.superstep = exchangeIndex;
  ev.target = surface.tensorName(dstTensor);
  ev.element = dstFlat + rng_.nextBelow(count);
  ev.bit = bit >= 0 ? bit : static_cast<int>(rng_.nextBelow(32));
  ev.detail = "transfer payload damaged in flight";
  surface.flipBit(dstTensor, ev.element, static_cast<unsigned>(ev.bit));
  surface.profile().faultEvents.push_back(std::move(ev));
}

json::Value faultEventsToJson(const std::vector<FaultEvent>& events) {
  json::Array out;
  out.reserve(events.size());
  for (const FaultEvent& ev : events) {
    json::Object o;
    o["kind"] = ev.kind;
    o["superstep"] = ev.superstep;
    o["target"] = ev.target;
    o["element"] = ev.element;
    if (ev.bit >= 0) o["bit"] = ev.bit;
    if (ev.cycles > 0) o["cycles"] = ev.cycles;
    if (!ev.detail.empty()) o["detail"] = ev.detail;
    out.push_back(json::Value(std::move(o)));
  }
  return json::Value(std::move(out));
}

std::vector<FaultEvent> faultEventsFromJson(const json::Value& doc) {
  GRAPHENE_CHECK(doc.isArray(), "fault log must be a JSON array");
  std::vector<FaultEvent> events;
  events.reserve(doc.asArray().size());
  for (const json::Value& e : doc.asArray()) {
    GRAPHENE_CHECK(e.isObject(), "each fault-log entry must be a JSON object");
    validateKeys(e, "fault-log entry",
                 {{"kind", KeyKind::String},
                  {"superstep", KeyKind::Number},
                  {"target", KeyKind::String},
                  {"element", KeyKind::Number},
                  {"bit", KeyKind::Number},
                  {"cycles", KeyKind::Number},
                  {"detail", KeyKind::String}});
    GRAPHENE_CHECK(e.contains("kind"),
                   "fault-log entry needs a 'kind' key");
    FaultEvent ev;
    ev.kind = e.at("kind").asString();
    ev.superstep =
        static_cast<std::size_t>(e.getOr("superstep", std::int64_t(0)));
    ev.target = e.getOr("target", std::string());
    ev.element =
        static_cast<std::size_t>(e.getOr("element", std::int64_t(0)));
    ev.bit = static_cast<int>(e.getOr("bit", std::int64_t(-1)));
    ev.cycles = e.getOr("cycles", 0.0);
    ev.detail = e.getOr("detail", std::string());
    events.push_back(std::move(ev));
  }
  return events;
}

std::string formatFaultEvents(const std::vector<FaultEvent>& events) {
  std::ostringstream oss;
  for (const FaultEvent& ev : events) {
    oss << "[superstep " << ev.superstep << "] " << ev.kind << " on "
        << ev.target;
    if (ev.bit >= 0) {
      oss << " (element " << ev.element << ", bit " << ev.bit << ")";
    }
    if (ev.cycles > 0) oss << " (+" << ev.cycles << " cycles)";
    if (!ev.detail.empty()) oss << " — " << ev.detail;
    oss << "\n";
  }
  return oss.str();
}

}  // namespace graphene::ipu
