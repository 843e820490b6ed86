// Table IV: relative computation time of the parts of the
// MPIR+PBiCGStab+ILU(0) solver on G3_circuit, for double-word and emulated
// float64 extended precision. The BiCGStab performs 10 iterations before
// each IR step (paper §VI-C).
//
// Expectation (paper): ILU solve dominates (75%/66%), SpMV 7%/6%,
// Reduce 12%/11%, Elementwise 4%/3%, Extended-Precision Ops 2%/14%.
#include <cstdio>
#include <map>

#include "bench_common.hpp"

using namespace graphene;

namespace {

struct Breakdown {
  std::map<std::string, double> rows;
  // The trace kept every event and its compute events sum to the Profile's.
  bool traceMatchesProfile = false;
};

Breakdown runBreakdown(const matrix::GeneratedMatrix& g,
                       const std::string& extType) {
  ipu::IpuTarget target = ipu::IpuTarget::testTarget(64);
  bench::DistSystem s = bench::makeSystem(g, target);
  dsl::Tensor x = s.A->makeVector(dsl::DType::Float32, "x");
  dsl::Tensor b = s.A->makeVector(dsl::DType::Float32, "b");
  auto solver = solver::makeSolverFromString(
      R"({"type":"mpir","extendedType":")" + extType +
      R"(","maxRefinements":10,"tolerance":1e-12,
          "inner":{"type":"bicgstab","maxIterations":10,"tolerance":0,
                   "preconditioner":{"type":"ilu"}}})");
  solver->apply(*s.A, x, b);
  auto rhs = bench::randomRhs(g.matrix.rows(), 5);
  support::TraceSink trace;
  auto prof = bench::runProgram(s, s.ctx->program(), rhs, b, &trace);

  // The breakdown is computed from the execution *trace*; the Profile's
  // per-category counters only serve as the cross-check below. Both sum the
  // same per-superstep critical-path cycles in the same order, so on a ring
  // that dropped nothing the match is exact, not approximate.
  std::map<std::string, double> cycles = support::traceComputeCycles(trace);

  Breakdown out;
  out.traceMatchesProfile =
      trace.dropped() == 0 && cycles == prof.computeCycles;
  double total = 0;
  for (const auto& [cat, c] : cycles) total += c;
  auto pct = [&](double v) { return 100.0 * v / total; };
  auto get = [&](const char* c) {
    auto it = cycles.find(c);
    return it == cycles.end() ? 0.0 : it->second;
  };
  out.rows["ILU(0) Solve"] = pct(get("ilu_solve") + get("ilu_factorize"));
  out.rows["SpMV"] = pct(get("spmv"));
  out.rows["Reduce"] = pct(get("reduce"));
  out.rows["Elementwise Ops"] = pct(get("elementwise") + get("condition") +
                                    get("gauss_seidel") + get("codedsl"));
  out.rows["Extended-Precision Ops"] = pct(get("extended_precision"));
  return out;
}

}  // namespace

int main() {
  bench::printHeader("Table IV — MPIR solver time breakdown",
                     "relative cost of solver parts, DW vs DP extended "
                     "precision (paper Table IV)");

  auto g = matrix::makeBenchmarkMatrix("g3_circuit", 24000);
  std::printf("stand-in: %s, %zu rows, %zu nnz; 10 BiCGStab iterations per "
              "IR step\n\n",
              g.name.c_str(), g.matrix.rows(), g.matrix.nnz());

  auto dwRun = runBreakdown(g, "doubleword");
  auto dpRun = runBreakdown(g, "float64");
  const auto& dw = dwRun.rows;
  const auto& dp = dpRun.rows;

  TextTable t({"Operation", "Double-Word", "Double-Precision", "paper DW",
               "paper DP"});
  const std::map<std::string, std::pair<int, int>> paper = {
      {"ILU(0) Solve", {75, 66}},  {"SpMV", {7, 6}},
      {"Reduce", {12, 11}},        {"Elementwise Ops", {4, 3}},
      {"Extended-Precision Ops", {2, 14}}};
  for (const auto& [row, ref] : paper) {
    t.addRow({row, formatSig(dw.at(row), 3) + "%",
              formatSig(dp.at(row), 3) + "%", std::to_string(ref.first) + "%",
              std::to_string(ref.second) + "%"});
  }
  std::printf("%s\n", t.render().c_str());

  // Note: the paper's 75% ILU share reflects G3_circuit's deep local
  // dependency chains (poor worker utilisation in the level-set solve); our
  // synthetic stand-in has shallower levels, so work shifts toward SpMV and
  // reductions. The claims the table *supports* (§VI-C) are checked below.
  double innerDw = dw.at("ILU(0) Solve") + dw.at("SpMV") + dw.at("Reduce") +
                   dw.at("Elementwise Ops");
  bool innerDominates = innerDw > 85.0;
  bool extSmallDw = dw.at("Extended-Precision Ops") < 10;
  bool extGrowsDp =
      dp.at("Extended-Precision Ops") > dw.at("Extended-Precision Ops") * 2;
  std::printf("check: the working-precision inner solver dominates "
              "(>85%% of cycles, paper: 98%%): %s (%.1f%%)\n",
              innerDominates ? "PASS" : "FAIL", innerDw);
  std::printf("check: double-word extended ops are cheap (<10%%, paper 2%%): "
              "%s\n",
              extSmallDw ? "PASS" : "FAIL");
  std::printf("check: soft-float64 extended ops cost several times more "
              "than double-word (paper 14%% vs 2%%): %s\n",
              extGrowsDp ? "PASS" : "FAIL");
  bool traceMatches = dwRun.traceMatchesProfile && dpRun.traceMatchesProfile;
  std::printf("check: the trace dropped no event and its per-category "
              "cycles match the Profile exactly: %s\n",
              traceMatches ? "PASS" : "FAIL");
  return innerDominates && extSmallDw && extGrowsDp && traceMatches ? 0 : 1;
}
