// Table I: the floating-point types supported by the DSL — decimal digits of
// precision and worker-cycle counts of add/mul/div on the (simulated) IPU.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "ipu/cost_model.hpp"
#include "twofloat/softdouble.hpp"
#include "twofloat/twofloat.hpp"

using namespace graphene;
namespace tf = graphene::twofloat;

namespace {

/// Measures worst-case decimal digits over random operations by comparing
/// against host long-double arithmetic.
template <typename Op>
double measureDigits(Op op, double lo, double hi, std::uint64_t seed) {
  Rng rng(seed);
  double worst = 1e9;
  for (int i = 0; i < 20000; ++i) {
    double a = rng.uniform(lo, hi);
    double b = rng.uniform(lo, hi);
    if (std::abs(b) < 1e-6) continue;
    auto [got, expect] = op(a, b);
    double rel = std::abs((got - expect) / (expect == 0 ? 1 : expect));
    if (rel > 0) worst = std::min(worst, -std::log10(rel));
  }
  return worst;
}

}  // namespace

int main() {
  bench::printHeader("Table I — extended-precision types",
                     "cycle counts & decimal digits of float32 / double-word "
                     "/ emulated float64 (paper Table I)");

  // Decimal digits, measured.
  double digitsF32 = measureDigits(
      [](double a, double b) {
        float r = static_cast<float>(a) * static_cast<float>(b);
        return std::pair<double, double>(static_cast<double>(r), a * b);
      },
      0.5, 2.0, 1);
  double digitsDw = measureDigits(
      [](double a, double b) {
        auto r = tf::Float2::fromWide(a) * tf::Float2::fromWide(b);
        return std::pair<double, double>(r.toWide(), a * b);
      },
      0.5, 2.0, 2);
  double digitsF64 = measureDigits(
      [](double a, double b) {
        auto r = tf::SoftDouble::fromDouble(a) * tf::SoftDouble::fromDouble(b);
        // Compare against long double so float64's own digits resolve.
        long double e = static_cast<long double>(a) * b;
        return std::pair<double, double>(
            r.toDouble(), static_cast<double>(e));
      },
      0.5, 2.0, 3);

  // Cycle counts from the calibrated cost model.
  ipu::CostModel cost;
  using ipu::DType;
  using ipu::Op;
  TextTable t({"Operation", "Single-Precision", "Double-Word",
               "Double-Precision"});
  t.addRow({"Algorithm", "native", "Joldes et al.", "soft-float"});
  t.addRow({"Decimal digits (measured)", formatSig(digitsF32, 3),
            formatSig(digitsDw, 3), formatSig(digitsF64, 3)});
  auto row = [&](const char* name, Op op) {
    t.addRow({name, formatSig(cost.workerCycles(op, DType::Float32), 4),
              formatSig(cost.workerCycles(op, DType::DoubleWord), 4),
              formatSig(cost.workerCycles(op, DType::Float64), 4)});
  };
  row("Addition (cycles)", Op::Add);
  row("Multiplication (cycles)", Op::Mul);
  row("Division (cycles)", Op::Div);
  std::printf("%s\n", t.render().c_str());

  std::printf("paper: f32 7.2 digits / 6 cy; DW 13.3-14.0 digits / "
              "132-240 cy; f64 16 digits / ~1080-2520 cy\n");
  const bool digitsOk = digitsDw > 1.8 * digitsF32 && digitsF64 > digitsDw;
  std::printf("check: DW ~2x digits of f32 at ~8-20x cycle cost; emulated "
              "f64 another ~2-3 digits at ~8-10x DW cost: %s\n",
              digitsOk ? "PASS" : "FAIL");
  return digitsOk ? 0 : 1;
}
