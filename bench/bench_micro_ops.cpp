// Host micro-benchmarks (google-benchmark) of the substrate primitives:
// TwoFloat double-word arithmetic, SoftDouble emulation, JSON parsing,
// level-set construction, the layout builder, and the register VM running
// the solvers' two row codelets (CSR SpMV and ILU(0) substitution), an
// elementwise update and a dot partial on one tile. These measure *host*
// performance of the framework itself (simulation speed), not simulated IPU
// time.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "dsl/codedsl.hpp"
#include "dsl/interpreter.hpp"
#include "levelset/levelset.hpp"
#include "matrix/generators.hpp"
#include "partition/halo.hpp"
#include "partition/partition.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "twofloat/softdouble.hpp"
#include "twofloat/twofloat.hpp"

namespace tf = graphene::twofloat;
using graphene::Rng;

static void BM_TwoFloatAddAccurate(benchmark::State& state) {
  tf::Float2 acc{};
  tf::Float2 inc = tf::Float2::fromWide(1e-7);
  for (auto _ : state) {
    acc = acc + inc;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TwoFloatAddAccurate);

static void BM_TwoFloatAddFast(benchmark::State& state) {
  tf::FastFloat2 acc{};
  tf::FastFloat2 inc = tf::FastFloat2::fromWide(1e-7);
  for (auto _ : state) {
    acc = acc + inc;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TwoFloatAddFast);

static void BM_TwoFloatMulAccurate(benchmark::State& state) {
  tf::Float2 acc = tf::Float2::fromWide(1.0);
  tf::Float2 f = tf::Float2::fromWide(1.0000001);
  for (auto _ : state) {
    acc = acc * f;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TwoFloatMulAccurate);

static void BM_SoftDoubleAdd(benchmark::State& state) {
  auto a = tf::SoftDouble::fromDouble(1.234567);
  auto b = tf::SoftDouble::fromDouble(7.654321e-3);
  for (auto _ : state) {
    a = a + b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SoftDoubleAdd);

static void BM_SoftDoubleMul(benchmark::State& state) {
  auto a = tf::SoftDouble::fromDouble(1.0000001);
  auto b = tf::SoftDouble::fromDouble(0.9999999);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_SoftDoubleMul);

static void BM_JsonParseSolverConfig(benchmark::State& state) {
  const std::string doc = R"({
    "type":"mpir","extendedType":"doubleword","maxRefinements":20,
    "tolerance":1e-13,
    "inner":{"type":"bicgstab","maxIterations":100,"tolerance":0,
             "preconditioner":{"type":"ilu"}}})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(graphene::json::parse(doc));
  }
}
BENCHMARK(BM_JsonParseSolverConfig);

static void BM_LevelSetBuild(benchmark::State& state) {
  auto g = graphene::matrix::poisson3d7(24, 24, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graphene::levelset::buildForwardLevels(g.matrix));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.matrix.rows()));
}
BENCHMARK(BM_LevelSetBuild);

static void BM_HaloLayoutBuild(benchmark::State& state) {
  auto g = graphene::matrix::poisson3d7(24, 24, 24);
  auto part = graphene::partition::partitionGrid(24, 24, 24, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graphene::partition::buildLayout(g.matrix, part, 64));
  }
}
BENCHMARK(BM_HaloLayoutBuild);

namespace dsl = graphene::dsl;
using graphene::ipu::DType;

namespace {

/// Traces a codelet over arguments of `types` the way ExecuteOnTiles does:
/// one handle per argument.
dsl::CodeletIR traceOnHandles(
    const std::vector<DType>& types,
    const std::function<void(std::vector<dsl::Value>&)>& fn) {
  dsl::CodeletBuilder builder;
  builder.setNumArgs(types.size());
  std::vector<dsl::Value> handles;
  handles.reserve(types.size());
  for (std::size_t k = 0; k < types.size(); ++k) {
    handles.push_back(dsl::Value::argument(static_cast<int>(k), types[k]));
  }
  fn(handles);
  return builder.finish();
}

template <typename T>
graphene::graph::ArgSpan span(std::vector<T>& v, DType type) {
  return {v.data(), v.size(), type};
}

/// Compiles `ir` for a six-worker tile and times runCompiled over `args`,
/// counting `rows` row visits per call as items.
void timeCodelet(benchmark::State& state, const dsl::CodeletIR& ir,
                 const std::vector<graphene::graph::ArgSpan>& args,
                 std::size_t rows) {
  const dsl::CompiledCodeletPtr cc =
      dsl::compileCodelet(ir, graphene::ipu::CostModel{}, 6);
  graphene::graph::VertexContext ctx(args, dsl::codeletBinds(*cc, args));
  double cycles = 0;
  for (auto _ : state) {
    cycles = dsl::runCompiled(*cc, ctx).workerCycles;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
  state.counters["sim_cycles"] = cycles;
}

}  // namespace

// The two-run CSR SpMV of DistMatrix::spmv on a 50-row tile of the 5-point
// Poisson on a 10 x 7 grid: grid lines 1-5 are owned, and lines 0 and 6
// are its 20 halo values.
static void BM_CsrSpmvCodelet(benchmark::State& state) {
  constexpr std::int32_t kWidth = 10, kFirst = kWidth, kRows = 5 * kWidth;
  const auto g = graphene::matrix::poisson2d5(kWidth, 7);
  std::vector<float> y(kRows), x(kRows), h(2 * kWidth), d, a;
  std::vector<std::int32_t> c, rp{0}, sp;
  for (std::int32_t r = 0; r < kRows; ++r) {
    const auto row = static_cast<std::size_t>(kFirst + r);
    std::vector<std::pair<std::int32_t, float>> halo;
    for (std::size_t k = g.matrix.rowPtr()[row]; k < g.matrix.rowPtr()[row + 1];
         ++k) {
      const std::int32_t col = g.matrix.colIdx()[k] - kFirst;
      const auto v = static_cast<float>(g.matrix.values()[k]);
      if (col == r) {
        d.push_back(v);
      } else if (col >= 0 && col < kRows) {
        c.push_back(col);
        a.push_back(v);
      } else {  // a halo slot, numbered past the owned columns
        const std::int32_t slot = col < 0 ? col + kWidth : col - kRows + kWidth;
        halo.emplace_back(kRows + slot, v);
      }
    }
    sp.push_back(static_cast<std::int32_t>(c.size()));
    for (const auto& [col, v] : halo) {
      c.push_back(col);
      a.push_back(v);
    }
    rp.push_back(static_cast<std::int32_t>(c.size()));
    x[static_cast<std::size_t>(r)] = 0.5f + 0.01f * static_cast<float>(r);
  }
  for (std::size_t s = 0; s < h.size(); ++s) {
    h[s] = 1.0f - 0.02f * static_cast<float>(s);
  }
  const DType F = DType::Float32, I = DType::Int32;
  const dsl::CodeletIR ir = traceOnHandles(
      {F, F, F, F, F, I, I, I}, [](std::vector<dsl::Value>& args) {
        using dsl::Value;
        Value yv = args[0], xv = args[1], hv = args[2], dv = args[3],
              av = args[4], cv = args[5], rpv = args[6], spv = args[7];
        Value numOwned = xv.size();
        dsl::ParallelFor(0, yv.size(), [&](Value r) {
          Value acc = Value(dv[r]) * Value(xv[r]);
          dsl::For(rpv[r], spv[r], 1, [&](Value k) {
            acc = acc + Value(av[k]) * Value(xv[cv[k]]);
          });
          dsl::For(spv[r], rpv[r + 1], 1, [&](Value k) {
            acc = acc + Value(av[k]) * Value(hv[Value(cv[k]) - numOwned]);
          });
          yv[r] = acc;
        });
      });
  timeCodelet(state, ir,
              {span(y, F), span(x, F), span(h, F), span(d, F), span(a, F),
               span(c, I), span(rp, I), span(sp, I)},
              kRows);
}
BENCHMARK(BM_CsrSpmvCodelet);

// The ILU(0) forward and backward substitution of IluSolver::apply on one
// 16-row tile, the 2 x 2 x 4 7-point Poisson, with its level schedules.
// Each call visits every row twice. The values are the matrix's own, not
// its factors: the rows' work depends only on the pattern.
static void BM_IluSolveCodelet(benchmark::State& state) {
  const auto g = graphene::matrix::poisson3d7(2, 2, 4);
  const std::size_t n = g.matrix.rows();
  std::vector<float> z(n), r(n), y(n), v;
  std::vector<std::int32_t> col, rp, di;
  for (std::size_t i = 0; i < n; ++i) {
    rp.push_back(static_cast<std::int32_t>(col.size()));
    for (std::size_t k = g.matrix.rowPtr()[i]; k < g.matrix.rowPtr()[i + 1];
         ++k) {
      if (g.matrix.colIdx()[k] == static_cast<std::int32_t>(i)) {
        di.push_back(static_cast<std::int32_t>(col.size()));
      }
      col.push_back(g.matrix.colIdx()[k]);
      v.push_back(static_cast<float>(g.matrix.values()[k]));
    }
    r[i] = 1.0f + 0.125f * static_cast<float>(i);
  }
  rp.push_back(static_cast<std::int32_t>(col.size()));
  const auto fwd = graphene::levelset::buildForwardLevels(g.matrix);
  const auto bwd = graphene::levelset::buildBackwardLevels(g.matrix);
  std::vector<std::int32_t> fo = fwd.order, fp = fwd.levelPtr,
                            bo = bwd.order, bp = bwd.levelPtr;
  const DType F = DType::Float32, I = DType::Int32;
  const dsl::CodeletIR ir = traceOnHandles(
      {F, F, F, F, I, I, I, I, I, I, I}, [](std::vector<dsl::Value>& args) {
        using dsl::Value;
        Value zv = args[0], rv = args[1], yv = args[2], fv = args[3],
              fc = args[4], rpv = args[5], dv = args[6], fov = args[7],
              fpv = args[8], bov = args[9], bpv = args[10];
        dsl::For(0, fpv.size() - 1, 1, [&](Value l) {
          dsl::ParallelFor(fpv[l], fpv[l + 1], [&](Value idx) {
            Value i = fov[idx];
            Value acc = rv[i];
            dsl::For(rpv[i], rpv[i + 1], 1, [&](Value k) {
              Value c = fc[k];
              dsl::If(c < i,
                      [&] { acc = acc - Value(fv[k]) * Value(yv[c]); });
            });
            yv[i] = acc;
          });
        });
        dsl::For(0, bpv.size() - 1, 1, [&](Value l) {
          dsl::ParallelFor(bpv[l], bpv[l + 1], [&](Value idx) {
            Value i = bov[idx];
            Value acc = yv[i];
            dsl::For(rpv[i], rpv[i + 1], 1, [&](Value k) {
              Value c = fc[k];
              dsl::If(c > i,
                      [&] { acc = acc - Value(fv[k]) * Value(zv[c]); });
            });
            zv[i] = acc / Value(fv[dv[i]]);
          });
        });
      });
  timeCodelet(state, ir,
              {span(z, F), span(r, F), span(y, F), span(v, F), span(col, I),
               span(rp, I), span(di, I), span(fo, I), span(fp, I),
               span(bo, I), span(bp, I)},
              2 * n);
}
BENCHMARK(BM_IluSolveCodelet);

// CG's x = x + alpha * p on one tile, traced as Expression::materializeInto
// traces it: the stored span is also the first loaded one, and the scalar
// alpha is hoisted out of the loop. 16 and 50 elements are the per-tile
// sizes of the mpir-ilu-pod and timestep workloads.
static void BM_AxpyCodelet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> x(n), alpha{0.75f}, p(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0f + 0.25f * static_cast<float>(i);
    p[i] = -2.0f + 0.5f * static_cast<float>(i);
  }
  const DType F = DType::Float32;
  const dsl::CodeletIR ir =
      traceOnHandles({F, F, F, F}, [](std::vector<dsl::Value>& args) {
        using dsl::Value;
        Value dst = args[0], xv = args[1], pv = args[3];
        Value s(args[2][Value(0)]);
        dsl::For(0, dst.size(), 1, [&](Value i) {
          dst[i] = Value(xv[i]) + s * Value(pv[i]);
        });
      });
  timeCodelet(state, ir, {span(x, F), span(x, F), span(alpha, F), span(p, F)},
              n);
}
BENCHMARK(BM_AxpyCodelet)->Arg(16)->Arg(50);

// The per-tile partial of the reduction r . z, traced as the reduction's
// reduce_partial codelet traces it: the sum starts from element 0 and adds
// each later product in order.
static void BM_DotCodelet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> out(1), r(n), z(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = 1.0f + 0.25f * static_cast<float>(i);
    z[i] = -2.0f + 0.5f * static_cast<float>(i);
  }
  const DType F = DType::Float32;
  const dsl::CodeletIR ir =
      traceOnHandles({F, F, F}, [](std::vector<dsl::Value>& args) {
        using dsl::Value;
        Value outv = args[0], rv = args[1], zv = args[2];
        Value acc(graphene::graph::Scalar::zero(DType::Float32));
        dsl::If(rv.size() > 0, [&] {
          Value first = Value(rv[Value(0)]) * Value(zv[Value(0)]);
          acc = first;
        });
        dsl::For(1, rv.size(), 1, [&](Value i) {
          acc = acc + Value(rv[i]) * Value(zv[i]);
        });
        outv[Value(0)] = acc;
      });
  timeCodelet(state, ir, {span(out, F), span(r, F), span(z, F)}, n);
}
BENCHMARK(BM_DotCodelet)->Arg(16)->Arg(50);

BENCHMARK_MAIN();
