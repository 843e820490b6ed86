#include "ipu/profile.hpp"

namespace graphene::ipu {

TextTable profileSummaryTable(const Profile& profile) {
  TextTable t({"Category", "Supersteps", "Cycles", "% of total",
               "Mean tile", "Imbalance", "Worst straggler"});
  const double total = profile.totalCycles();
  auto pct = [&](double v) {
    return formatSig(total > 0 ? 100.0 * v / total : 0.0, 3) + "%";
  };
  for (const auto& [category, s] : profile.superstepStats) {
    const double mean =
        s.supersteps > 0 ? s.meanCycles / static_cast<double>(s.supersteps)
                         : 0.0;
    t.addRow({category, std::to_string(s.supersteps),
              formatSig(s.maxCycles, 6), pct(s.maxCycles), formatSig(mean, 4),
              formatSig(s.imbalance(), 3) + "x",
              s.worstStragglerTile == SIZE_MAX
                  ? "-"
                  : "tile " + std::to_string(s.worstStragglerTile)});
  }
  t.addRow({"exchange", std::to_string(profile.exchangeSupersteps),
            formatSig(profile.exchangeCycles, 6), pct(profile.exchangeCycles),
            "-", "-", "-"});
  t.addRow({"sync", "-", formatSig(profile.syncCycles, 6),
            pct(profile.syncCycles), "-", "-", "-"});
  return t;
}

}  // namespace graphene::ipu
