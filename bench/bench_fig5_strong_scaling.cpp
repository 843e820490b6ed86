// Figure 5: strong scaling of one SpMV over 1..16 IPUs at a fixed problem
// size, total speedup vs compute-only speedup vs ideal.
//
// The paper uses a 200^3 Poisson grid (58 M nnz) on up to 16 full IPUs
// (1,472 tiles each); this host simulates a scaled-down pod (tiles/IPU and
// grid sizes printed below). Two problem sizes bracket the strong-scaling
// story of §VI-B:
//
//   large   compute per tile dominates; speedup tracks the ideal line and
//           the gap to it is the growing surface/volume halo share
//   small   so few rows per tile that IPU-Link latency and the serialised
//           link lanes dominate — the curve flattens out (the classic
//           strong-scaling falloff the pipelined solvers exist to defer)
//
// Each point reports the inter-IPU payload so the falloff is attributable:
// the large problem amortises its link bytes over compute, the small one
// cannot. Emits a schemaVersion-2 JSON report (rows tagged figure=fig5)
// that BENCH_SCALING.json snapshots and tools/check_bench_regression.py
// gates on; `--json <path>` writes it (tables stay on stdout).
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_common.hpp"
#include "bench_json.hpp"

using namespace graphene;

namespace {

struct Point {
  std::size_t ipus;
  double totalSec = 0;
  double computeSec = 0;
  double totalCycles = 0;
  double interCycles = 0;
  std::size_t interIpuBytes = 0;
  std::size_t interIpuMessages = 0;
};

Point measure(const matrix::GeneratedMatrix& g, std::size_t tilesPerIpu,
              std::size_t ipus) {
  Point pt;
  pt.ipus = ipus;
  for (int withExchange = 0; withExchange < 2; ++withExchange) {
    const ipu::Topology topo =
        ipus == 1 ? ipu::Topology::singleIpu(tilesPerIpu)
                  : ipu::Topology::pod(ipus, tilesPerIpu);
    bench::DistSystem s = bench::makeSystem(g, topo);
    dsl::Tensor x = s.A->makeVector(dsl::DType::Float32, "x");
    dsl::Tensor y = s.A->makeVector(dsl::DType::Float32, "y");
    s.A->spmv(y, x, /*exchange=*/withExchange == 1);
    auto xh = bench::randomRhs(g.matrix.rows());
    auto prof = bench::runProgram(s, s.ctx->program(), xh, x);
    double sec = topo.target().secondsFromCycles(prof.totalCycles());
    if (withExchange) {
      pt.totalSec = sec;
      pt.totalCycles = prof.totalCycles();
      pt.interCycles = prof.exchangeInterCycles;
      pt.interIpuBytes = prof.interIpuBytes;
      pt.interIpuMessages = prof.interIpuMessages;
    } else {
      pt.computeSec = sec;
    }
  }
  return pt;
}

std::vector<Point> sweep(const matrix::GeneratedMatrix& g,
                         std::size_t tilesPerIpu, const char* name,
                         bench::BenchReport& report) {
  const std::size_t ipuCounts[] = {1, 2, 4, 8, 16};
  std::vector<Point> points;
  for (std::size_t n : ipuCounts) points.push_back(measure(g, tilesPerIpu, n));

  TextTable t({"IPUs", "total time", "speedup", "compute speedup", "ideal",
               "inter-IPU bytes", "link transfers"});
  for (const Point& p : points) {
    t.addRow({std::to_string(p.ipus), formatTime(p.totalSec),
              formatSig(points[0].totalSec / p.totalSec, 3),
              formatSig(points[0].computeSec / p.computeSec, 3),
              std::to_string(p.ipus),
              formatBytes(static_cast<double>(p.interIpuBytes)),
              std::to_string(p.interIpuMessages)});
    json::Object row;
    row["figure"] = "fig5";
    row["problem"] = name;
    row["ipus"] = p.ipus;
    row["tiles"] = p.ipus * tilesPerIpu;
    row["rows"] = g.matrix.rows();
    row["nnz"] = g.matrix.nnz();
    row["totalCycles"] = p.totalCycles;
    row["interIpuCycles"] = p.interCycles;
    row["interIpuBytes"] = p.interIpuBytes;
    row["interIpuMessages"] = p.interIpuMessages;
    row["speedup"] = points[0].totalSec / p.totalSec;
    report.addResult(std::move(row));
  }
  std::printf("%s problem: %zu rows, %zu nnz\n%s\n", name, g.matrix.rows(),
              g.matrix.nnz(), t.render().c_str());
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  bench::printHeader("Figure 5 — SpMV strong scaling on a pod",
                     "near-ideal strong scaling for the large problem, "
                     "IPU-Link-bound falloff for the small one (paper "
                     "Fig. 5)");

  const std::size_t tilesPerIpu = 64;  // scaled-down Mk2 (real: 1472)
  const std::size_t largeGrid = 64;    // scaled-down 200^3
  const std::size_t smallGrid = 16;    // rows/tile at 16 IPUs: just 4

  std::printf("%zu tiles per simulated IPU; pods of 1, 2, 4, 8, 16 IPUs\n\n",
              tilesPerIpu);

  bench::BenchMeta meta = bench::parseBenchMeta(argc, argv);
  meta.tiles = 0;  // varies per row
  meta.hostThreads = 1;
  bench::BenchReport report("scaling", meta);
  report.setField("tilesPerIpu", tilesPerIpu);

  auto large = matrix::poisson3d7(largeGrid, largeGrid, largeGrid);
  auto small = matrix::poisson3d7(smallGrid, smallGrid, smallGrid);
  std::vector<Point> lp = sweep(large, tilesPerIpu, "large", report);
  std::vector<Point> sp = sweep(small, tilesPerIpu, "small", report);

  const double largeSpeedup = lp[0].totalSec / lp.back().totalSec;
  const double largeCompute = lp[0].computeSec / lp.back().computeSec;
  const double smallSpeedup = sp[0].totalSec / sp.back().totalSec;
  const bool computeOk = largeCompute > 0.85 * 16;
  const bool totalOk = largeSpeedup > 0.5 * 16;
  const bool fallsOff = smallSpeedup < 0.5 * largeSpeedup;
  const bool linksGrow = lp.back().interIpuBytes > lp[1].interIpuBytes;
  std::printf("check: large-problem compute speedup at 16 IPUs within 15%% "
              "of ideal: %s (%.1fx)\n",
              computeOk ? "PASS" : "FAIL", largeCompute);
  // The two-level model charges real IPU-Link latency and serialised lanes,
  // so the scaled-down problem cannot sit on the ideal line the way the
  // paper's 1,472-tile chips do; half of ideal at 16 IPUs is the shape the
  // figure asserts (speedup keeps growing through every pod size).
  std::printf("check: large-problem total speedup > 50%% of ideal: %s "
              "(%.1fx)\n",
              totalOk ? "PASS" : "FAIL", largeSpeedup);
  std::printf("check: small problem falls off (total speedup at 16 IPUs "
              "below half the large problem's): %s (%.1fx vs %.1fx)\n",
              fallsOff ? "PASS" : "FAIL", smallSpeedup, largeSpeedup);
  std::printf("check: inter-IPU payload grows with the pod (16 vs 2 IPUs): "
              "%s (%zu vs %zu bytes)\n",
              linksGrow ? "PASS" : "FAIL", lp.back().interIpuBytes,
              lp[1].interIpuBytes);

  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      std::ofstream out(argv[i + 1], std::ios::binary);
      out << report.dump() << "\n";
      std::printf("wrote %s\n", argv[i + 1]);
    }
  }
  return computeOk && totalOk && fallsOff && linksGrow ? 0 : 1;
}
