// Figure 6: weak scaling of one SpMV — the grid grows with the pod so every
// tile keeps the same number of rows; ideal weak scaling means constant
// time. On a single chip the all-to-all fabric exchanges all separator
// regions simultaneously (§VI-B); across chips the halo crosses serialised
// IPU-Link lanes, but pod-aware partitioning keeps the cut surface (and the
// aggregated per-link payload) roughly constant per IPU pair, so the
// exchange time still stays flat in the multi-IPU regime.
//
// Paper: 58 M to 890 M nnz on 1..16 IPUs; here scaled down (sizes printed).
// Emits schemaVersion-2 JSON rows tagged figure=fig6 (see
// BENCH_SCALING.json / tools/check_bench_regression.py); `--json <path>`
// writes the report, tables stay on stdout.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_common.hpp"
#include "bench_json.hpp"

using namespace graphene;

int main(int argc, char** argv) {
  bench::printHeader("Figure 6 — SpMV weak scaling on a pod",
                     "constant time per SpMV at constant rows/tile "
                     "(paper Fig. 6)");

  const std::size_t tilesPerIpu = 64;
  const std::size_t rowsPerTile = 1000;
  const std::size_t ipuCounts[] = {1, 2, 4, 8, 16};

  std::printf("%zu tiles per simulated IPU, ~%zu rows per tile\n\n",
              tilesPerIpu, rowsPerTile);

  bench::BenchMeta meta = bench::parseBenchMeta(argc, argv);
  meta.tiles = 0;  // varies per row
  meta.hostThreads = 1;
  bench::BenchReport report("scaling", meta);
  report.setField("tilesPerIpu", tilesPerIpu);

  TextTable t({"IPUs", "grid", "nnz", "total time", "compute time",
               "halo+sync time", "inter-IPU bytes"});
  std::vector<double> totals, halos;
  for (std::size_t ipus : ipuCounts) {
    const double targetRows =
        static_cast<double>(rowsPerTile * tilesPerIpu * ipus);
    const std::size_t side =
        static_cast<std::size_t>(std::round(std::cbrt(targetRows)));
    auto g = matrix::poisson3d7(side, side, side);

    const ipu::Topology topo =
        ipus == 1 ? ipu::Topology::singleIpu(tilesPerIpu)
                  : ipu::Topology::pod(ipus, tilesPerIpu);
    bench::DistSystem s = bench::makeSystem(g, topo);
    dsl::Tensor x = s.A->makeVector(dsl::DType::Float32, "x");
    dsl::Tensor y = s.A->makeVector(dsl::DType::Float32, "y");
    s.A->spmv(y, x);
    auto xh = bench::randomRhs(g.matrix.rows());
    auto prof = bench::runProgram(s, s.ctx->program(), xh, x);

    const ipu::IpuTarget& target = topo.target();
    const double total = target.secondsFromCycles(prof.totalCycles());
    const double compute =
        target.secondsFromCycles(prof.totalComputeCycles());
    const double halo =
        target.secondsFromCycles(prof.exchangeCycles + prof.syncCycles);
    totals.push_back(total);
    halos.push_back(halo);
    t.addRow({std::to_string(ipus),
              std::to_string(side) + "^3",
              std::to_string(g.matrix.nnz()), formatTime(total),
              formatTime(compute), formatTime(halo),
              formatBytes(static_cast<double>(prof.interIpuBytes))});

    json::Object row;
    row["figure"] = "fig6";
    row["problem"] = "weak";
    row["ipus"] = ipus;
    row["tiles"] = ipus * tilesPerIpu;
    row["rows"] = g.matrix.rows();
    row["nnz"] = g.matrix.nnz();
    row["totalCycles"] = prof.totalCycles();
    row["interIpuCycles"] = prof.exchangeInterCycles;
    row["interIpuBytes"] = prof.interIpuBytes;
    row["interIpuMessages"] = prof.interIpuMessages;
    report.addResult(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());

  // Ideal weak scaling: total time roughly flat 1 → 16 IPUs.
  double drift = totals.back() / totals.front();
  const bool flat = drift < 1.35;
  std::printf("check: total time at 16 IPUs within 1.35x of 1 IPU "
              "(ideal weak scaling): %s (%.2fx)\n",
              flat ? "PASS" : "FAIL", drift);
  // The 1→2 IPU step adds the one-time IPU-Link hop; within the multi-IPU
  // regime the exchange time must stay flat even though the total
  // communication volume grows linearly (§VI-B): halo aggregation keeps it
  // at one link transfer per IPU pair per superstep.
  double haloDrift = halos.back() / std::max(halos[1], 1e-12);
  const bool haloFlat = haloDrift < 1.3;
  std::printf("check: halo exchange time stays flat from 2 to 16 IPUs "
              "(aggregated links): %s (%.2fx)\n",
              haloFlat ? "PASS" : "FAIL", haloDrift);

  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      std::ofstream out(argv[i + 1], std::ios::binary);
      out << report.dump() << "\n";
      std::printf("wrote %s\n", argv[i + 1]);
    }
  }
  return flat && haloFlat ? 0 : 1;
}
