// Unit tests for the CodeDSL interpreter's scalar semantics and cycle
// accounting behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dsl/codedsl.hpp"
#include "dsl/interpreter.hpp"
#include "dsl/tensor.hpp"
#include "graph/engine.hpp"

using namespace graphene;
using namespace graphene::dsl;
using graph::Scalar;
using twofloat::Float2;
using twofloat::SoftDouble;

// ---------------------------------------------------------------------------
// evalBinaryScalar / evalUnaryScalar
// ---------------------------------------------------------------------------

TEST(ScalarOps, IntegerArithmetic) {
  EXPECT_EQ(evalBinaryScalar(BinOp::Add, Scalar(7), Scalar(5)).asInt(), 12);
  EXPECT_EQ(evalBinaryScalar(BinOp::Sub, Scalar(7), Scalar(5)).asInt(), 2);
  EXPECT_EQ(evalBinaryScalar(BinOp::Mul, Scalar(7), Scalar(5)).asInt(), 35);
  EXPECT_EQ(evalBinaryScalar(BinOp::Div, Scalar(7), Scalar(5)).asInt(), 1);
  EXPECT_EQ(evalBinaryScalar(BinOp::Mod, Scalar(7), Scalar(5)).asInt(), 2);
  EXPECT_EQ(evalBinaryScalar(BinOp::Min, Scalar(7), Scalar(5)).asInt(), 5);
  EXPECT_EQ(evalBinaryScalar(BinOp::Max, Scalar(7), Scalar(5)).asInt(), 7);
}

TEST(ScalarOps, IntegerDivisionByZeroThrows) {
  EXPECT_THROW(evalBinaryScalar(BinOp::Div, Scalar(1), Scalar(0)), Error);
  EXPECT_THROW(evalBinaryScalar(BinOp::Mod, Scalar(1), Scalar(0)), Error);
}

TEST(ScalarOps, ModOnFloatsThrows) {
  EXPECT_THROW(evalBinaryScalar(BinOp::Mod, Scalar(1.0f), Scalar(2.0f)),
               Error);
}

TEST(ScalarOps, ComparisonsYieldBool) {
  auto r = evalBinaryScalar(BinOp::Lt, Scalar(1.0f), Scalar(2.0f));
  EXPECT_EQ(r.type(), DType::Bool);
  EXPECT_TRUE(r.asBool());
  EXPECT_FALSE(evalBinaryScalar(BinOp::Gt, Scalar(1.0f), Scalar(2.0f)).asBool());
  EXPECT_TRUE(evalBinaryScalar(BinOp::Ne, Scalar(1), Scalar(2)).asBool());
}

TEST(ScalarOps, MixedTypePromotion) {
  // int * float -> float
  auto r1 = evalBinaryScalar(BinOp::Mul, Scalar(3), Scalar(0.5f));
  EXPECT_EQ(r1.type(), DType::Float32);
  EXPECT_FLOAT_EQ(r1.asFloat(), 1.5f);
  // float + double-word -> double-word
  auto r2 = evalBinaryScalar(BinOp::Add, Scalar(1.0f),
                             Scalar(Float2::fromWide(1e-9)));
  EXPECT_EQ(r2.type(), DType::DoubleWord);
  EXPECT_NEAR(r2.toHostDouble(), 1.0 + 1e-9, 1e-15);
  // double-word + float64 -> float64 (widest wins)
  auto r3 = evalBinaryScalar(BinOp::Add, Scalar(Float2::fromWide(1.0)),
                             Scalar(SoftDouble::fromDouble(2.0)));
  EXPECT_EQ(r3.type(), DType::Float64);
  EXPECT_DOUBLE_EQ(r3.toHostDouble(), 3.0);
  // bool arithmetic promotes to int
  auto r4 = evalBinaryScalar(BinOp::Add, Scalar(true), Scalar(true));
  EXPECT_EQ(r4.type(), DType::Int32);
  EXPECT_EQ(r4.asInt(), 2);
}

TEST(ScalarOps, LogicOperatorsUseTruthiness) {
  EXPECT_TRUE(evalBinaryScalar(BinOp::And, Scalar(1.0f), Scalar(2)).asBool());
  EXPECT_FALSE(evalBinaryScalar(BinOp::And, Scalar(0.0f), Scalar(2)).asBool());
  EXPECT_TRUE(evalBinaryScalar(BinOp::Or, Scalar(0), Scalar(true)).asBool());
}

TEST(ScalarOps, UnaryOperations) {
  EXPECT_FLOAT_EQ(evalUnaryScalar(UnOp::Neg, Scalar(2.5f)).asFloat(), -2.5f);
  EXPECT_EQ(evalUnaryScalar(UnOp::Neg, Scalar(-3)).asInt(), 3);
  EXPECT_FLOAT_EQ(evalUnaryScalar(UnOp::Abs, Scalar(-2.5f)).asFloat(), 2.5f);
  EXPECT_FLOAT_EQ(evalUnaryScalar(UnOp::Sqrt, Scalar(9.0f)).asFloat(), 3.0f);
  EXPECT_TRUE(evalUnaryScalar(UnOp::Not, Scalar(false)).asBool());
  // Extended types route through their software implementations.
  auto dw = evalUnaryScalar(UnOp::Sqrt, Scalar(Float2::fromWide(2.0)));
  EXPECT_NEAR(dw.toHostDouble(), std::sqrt(2.0), 1e-13);
  auto sd = evalUnaryScalar(UnOp::Sqrt, Scalar(SoftDouble::fromDouble(2.0)));
  EXPECT_NEAR(sd.toHostDouble(), std::sqrt(2.0), 1e-15);
}

// ---------------------------------------------------------------------------
// Cycle accounting properties (via full DSL programs)
// ---------------------------------------------------------------------------

namespace {

double cyclesOf(DType type, std::size_t n, std::size_t tiles = 1) {
  Context ctx(ipu::IpuTarget::testTarget(tiles));
  Tensor a(type, n, "a");
  Tensor b(type, n, "b");
  Tensor c(type, n, "c");
  c = Expression(a) * Expression(b) + Expression(a);
  graph::Engine e(ctx.graph());
  e.run(ctx.program());
  return e.profile().totalComputeCycles();
}

}  // namespace

TEST(CycleAccounting, ExtendedTypesCostMore) {
  double f32 = cyclesOf(DType::Float32, 300);
  double dw = cyclesOf(DType::DoubleWord, 300);
  double f64 = cyclesOf(DType::Float64, 300);
  EXPECT_GT(dw, 3 * f32);   // Table I: ~20x on pure flops, loads dilute
  EXPECT_GT(f64, 2.5 * dw); // f64 emulation ~8x DW on flops
}

TEST(CycleAccounting, CyclesScaleLinearlyWithElements) {
  double small = cyclesOf(DType::Float32, 600);
  double large = cyclesOf(DType::Float32, 2400);
  EXPECT_NEAR(large / small, 4.0, 0.4);
}

TEST(CycleAccounting, WorkSplitsAcrossTiles) {
  // Same total elements on 1 vs 4 tiles: the BSP superstep costs the
  // slowest tile, so 4 tiles ≈ 1/4 the cycles.
  double one = cyclesOf(DType::Float32, 2400, 1);
  double four = cyclesOf(DType::Float32, 2400, 4);
  EXPECT_NEAR(one / four, 4.0, 0.5);
}

TEST(CycleAccounting, SelectEvaluatesOnlyChosenSide) {
  // Guarded halo-style indexing must not read out of bounds AND must not
  // charge for the untaken (expensive) branch.
  Context ctx(ipu::IpuTarget::testTarget(1));
  Tensor flags(DType::Int32, 64, "flags");
  Tensor cheap(DType::Float32, 64, "cheap");
  Tensor out(DType::Float32, 64, "out");
  Execute({flags, cheap, out}, [](Value f, Value c, Value o) {
    For(0, o.size(), 1, [&](Value i) {
      // Out-of-range index on the untaken side: must never be evaluated.
      o[i] = Select(f[i] == 0, c[i], c[i - 1000000]);
    });
  });
  graph::Engine e(ctx.graph());
  // flags all zero → always take the first branch.
  e.run(ctx.program());
  SUCCEED();
}

TEST(CycleAccounting, WhileConditionReevaluatedEachIteration) {
  Context ctx(ipu::IpuTarget::testTarget(1));
  Tensor out(DType::Int32, 1, "out");
  Execute({out}, [](Value o) {
    Value i = 0;
    Value limit = 5;
    While([&] { return i < limit; }, [&] {
      i = i + 1;
      limit = limit - 1;  // moving target: must terminate at crossover
    });
    o[0] = i;
  });
  graph::Engine e(ctx.graph());
  e.run(ctx.program());
  EXPECT_EQ(e.readTensor<std::int32_t>(out.id())[0], 3);
}

TEST(CycleAccounting, NegativeIndexDetected) {
  Context ctx(ipu::IpuTarget::testTarget(1));
  Tensor v(DType::Float32, 8, "v");
  Execute({v}, [](Value t) {
    Value i = 0;
    t[i - 5] = 1.0f;
  });
  graph::Engine e(ctx.graph());
  EXPECT_THROW(e.run(ctx.program()), Error);
}

TEST(CycleAccounting, MixedDwFpOpsPricedBelowFullDw) {
  // float32 coefficient times double-word vector (the MPIR residual inner
  // product) must be cheaper than full DW×DW (§III-D: DWTimesFP vs
  // DWTimesDW).
  auto run = [](bool mixed) {
    Context ctx(ipu::IpuTarget::testTarget(1));
    Tensor a(mixed ? DType::Float32 : DType::DoubleWord, 512, "a");
    Tensor b(DType::DoubleWord, 512, "b");
    Tensor c(DType::DoubleWord, 512, "c");
    c = Expression(a) * Expression(b);
    graph::Engine e(ctx.graph());
    e.run(ctx.program());
    return e.profile().totalComputeCycles();
  };
  EXPECT_LT(run(true), run(false));
}

// ---------------------------------------------------------------------------
// ParFor rows with comparison-guarded Ifs: the register VM must match the
// generic walk bit for bit — outputs and VertexCost — on every branch pattern
// (the walk closes a lane block at each If, so taken bodies merge into the
// block that follows them).
// ---------------------------------------------------------------------------

namespace {

/// VertexContext over host vectors: one typed column per codelet argument.
class HostContext final : public graph::VertexContext {
 public:
  void addFloat(std::vector<float> v) {
    args_.push_back({DType::Float32, std::move(v), {}});
  }
  void addInt(std::vector<std::int32_t> v) {
    args_.push_back({DType::Int32, {}, std::move(v)});
  }
  const std::vector<float>& floats(std::size_t a) const { return args_[a].f; }

  std::size_t numArgs() const override { return args_.size(); }
  std::size_t argSize(std::size_t a) const override {
    return args_[a].type == DType::Float32 ? args_[a].f.size()
                                           : args_[a].i.size();
  }
  DType argType(std::size_t a) const override { return args_[a].type; }
  Scalar load(std::size_t a, std::size_t k) const override {
    return args_[a].type == DType::Float32 ? Scalar(args_[a].f.at(k))
                                           : Scalar(args_[a].i.at(k));
  }
  void store(std::size_t a, std::size_t k, const Scalar& v) override {
    if (args_[a].type == DType::Float32) {
      args_[a].f.at(k) = v.castTo(DType::Float32).asFloat();
    } else {
      args_[a].i.at(k) = v.castTo(DType::Int32).asInt();
    }
  }
  std::span<float> floatSpan(std::size_t a) override { return args_[a].f; }
  std::span<const std::int32_t> intSpan(std::size_t a) const override {
    return args_[a].i;
  }

 private:
  struct Arg {
    DType type;
    std::vector<float> f;
    std::vector<std::int32_t> i;
  };
  std::vector<Arg> args_;
};

/// One CSR row per ParFor iteration, guarded like the ILU substitution:
///   acc = x[i]; for k in row i: if (col[k] < i) acc -= val[k] * x[col[k]]
///   [else acc += val[k]];  out[i] = acc
/// Args: 0 out, 1 val, 2 col (traced as Int32), 3 rowPtr, 4 x.
CodeletIR traceGuardedRows(bool withElse) {
  CodeletBuilder builder;
  builder.setNumArgs(5);
  Value out = Value::argument(0, DType::Float32);
  Value val = Value::argument(1, DType::Float32);
  Value col = Value::argument(2, DType::Int32);
  Value rp = Value::argument(3, DType::Int32);
  Value x = Value::argument(4, DType::Float32);
  ParallelFor(0, out.size(), [&](Value i) {
    Value acc = x[i];
    For(rp[i], rp[i + 1], 1, [&](Value k) {
      Value c = col[k];
      std::function<void()> otherwise;
      if (withElse) otherwise = [&] { acc = acc + Value(val[k]); };
      If(c < i, [&] { acc = acc - Value(val[k]) * Value(x[c]); },
         otherwise);
    });
    out[i] = acc;
  });
  return builder.finish();
}

/// Per-row column lists → a HostContext for traceGuardedRows. `intCols`
/// false binds the column argument as Float32 (a dtype the kernel's runtime
/// guard must refuse).
HostContext rowsContext(const std::vector<std::vector<std::int32_t>>& rows,
                        bool intCols = true) {
  std::vector<std::int32_t> rp{0}, col;
  std::vector<float> val, x;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::int32_t c : rows[i]) {
      col.push_back(c);
      val.push_back(0.25f + 0.125f * static_cast<float>(col.size()));
    }
    rp.push_back(static_cast<std::int32_t>(col.size()));
    x.push_back(1.0f + 0.5f * static_cast<float>(i));
  }
  HostContext ctx;
  ctx.addFloat(std::vector<float>(rows.size(), 0.0f));
  ctx.addFloat(val);
  if (intCols) {
    ctx.addInt(col);
  } else {
    ctx.addFloat(std::vector<float>(col.begin(), col.end()));
  }
  ctx.addInt(rp);
  ctx.addFloat(x);
  return ctx;
}

struct RowsRun {
  std::vector<float> out;
  graph::VertexCost cost;
};

RowsRun runRows(const CompiledCodelet& cc, HostContext ctx, bool fastPaths) {
  const bool env = codeletFastPathsEnabled();
  setCodeletFastPaths(fastPaths);
  RowsRun r;
  r.cost = runCompiled(cc, ctx);
  setCodeletFastPaths(env);
  r.out = ctx.floats(0);
  return r;
}

/// Runs `ir` on `ctx` with the fast paths on and off; both must agree on
/// every output bit and on the VertexCost. Returns the fast-path run.
RowsRun expectFastMatchesWalk(const CodeletIR& ir, const HostContext& ctx) {
  CompiledCodeletPtr cc = compileCodelet(ir, ipu::CostModel{}, 6);
  // Only the ParFor row compiles: a nested For holding an If stays on the
  // walk as a serial kernel.
  EXPECT_EQ(compiledKernelCount(*cc), 1u);
  RowsRun fast = runRows(*cc, ctx, true);
  RowsRun walk = runRows(*cc, ctx, false);
  EXPECT_EQ(fast.out.size(), walk.out.size());
  for (std::size_t i = 0; i < fast.out.size() && i < walk.out.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(fast.out[i]),
              std::bit_cast<std::uint32_t>(walk.out[i]))
        << "row " << i;
  }
  EXPECT_EQ(fast.cost.workerCycles, walk.cost.workerCycles);
  EXPECT_EQ(fast.cost.wholeTile, walk.cost.wholeTile);
  EXPECT_GT(fast.cost.workerCycles, 0.0);
  return fast;
}

}  // namespace

TEST(GuardedRows, ZeroTripNestedLoop) {
  // Every other row is empty; the nested loop's entry branch still charges.
  expectFastMatchesWalk(traceGuardedRows(false),
                        rowsContext({{}, {0}, {}, {1, 2}, {}, {}, {4}}));
  expectFastMatchesWalk(traceGuardedRows(false),
                        rowsContext({{}, {}, {}, {}}));
}

TEST(GuardedRows, NoIterationTaken) {
  expectFastMatchesWalk(traceGuardedRows(false),
                        rowsContext({{0, 1}, {1, 2}, {2, 3}, {3}, {4, 5}}));
}

TEST(GuardedRows, EveryIterationTaken) {
  expectFastMatchesWalk(
      traceGuardedRows(false),
      rowsContext({{}, {0}, {0, 1}, {0, 1, 2}, {1, 3}, {0, 2, 4}, {5}}));
}

TEST(GuardedRows, OnlyLastIterationTakenMergesIntoTrailingStore) {
  // Row i: two untaken entries, then one taken — the taken body's lanes join
  // the row's trailing store block instead of the next iteration's.
  const RowsRun last = expectFastMatchesWalk(
      traceGuardedRows(false),
      rowsContext({{0}, {1, 2, 0}, {2, 3, 1}, {3, 4, 0}, {4, 5, 2},
                   {5, 5, 4}}));
  // Same taken count, but the taken entry comes first: its lanes merge into
  // the next iteration's block, which the walk prices differently.
  const RowsRun first = expectFastMatchesWalk(
      traceGuardedRows(false),
      rowsContext({{0}, {0, 1, 2}, {1, 2, 3}, {0, 3, 4}, {2, 4, 5},
                   {4, 5, 5}}));
  EXPECT_NE(last.cost.workerCycles, first.cost.workerCycles);
}

TEST(GuardedRows, IfWithElseBranch) {
  expectFastMatchesWalk(
      traceGuardedRows(true),
      rowsContext({{}, {0, 1}, {2, 0, 3}, {3}, {0, 1, 2, 3, 4}, {5, 4}}));
}

TEST(GuardedRows, NestedIfsFloatComparisonAndLoopUnderIf) {
  // An If wrapping the nested loop, an If inside an If, a Float32 comparison
  // (Gt, lowered as a swapped Lt) and an else that skips the loop entirely.
  CodeletBuilder builder;
  builder.setNumArgs(5);
  Value out = Value::argument(0, DType::Float32);
  Value val = Value::argument(1, DType::Float32);
  Value col = Value::argument(2, DType::Int32);
  Value rp = Value::argument(3, DType::Int32);
  Value x = Value::argument(4, DType::Float32);
  ParallelFor(0, out.size(), [&](Value i) {
    Value acc = x[i];
    If(
        i > 1,
        [&] {
          For(rp[i], rp[i + 1], 1, [&](Value k) {
            Value c = col[k];
            If(c < i, [&] {
              Value v = val[k];
              If(v > 1.0f, [&] { acc = acc - v * Value(x[c]); },
                 [&] { acc = acc + v; });
            });
          });
        },
        [&] { acc = acc * 2.0f; });
    out[i] = acc;
  });
  expectFastMatchesWalk(
      builder.finish(),
      rowsContext({{0}, {0, 1}, {0, 1, 2}, {}, {2, 4, 1, 0}, {5, 3, 0, 1}}));
}

TEST(GuardedRows, MistypedIntArgumentFallsBackToWalk) {
  // The column argument was traced as Int32 but arrives as Float32: the
  // kernel's runtime dtype guard must hand the loop to the walk (which
  // promotes the comparison to Float32 and charges it as such).
  expectFastMatchesWalk(traceGuardedRows(false),
                        rowsContext({{0}, {0, 1}, {2, 0}, {1, 3}}, false));
}

TEST(FlatRows, ElementwiseRowMatchesWalk) {
  // A ParFor row with no nested loop or If: one lane block per row. 37 rows
  // is a multiple of neither the 6 workers nor the serial VM's 16-element
  // blocks.
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  ParallelFor(0, out.size(),
              [&](Value i) { out[i] = Value(x[i]) * 2.0f + 1.0f; });
  constexpr std::size_t kRows = 37;
  std::vector<float> xs(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    xs[i] = 0.1f * static_cast<float>(i) - 1.7f;
  }
  HostContext ctx;
  ctx.addFloat(std::vector<float>(kRows, 0.0f));
  ctx.addFloat(xs);
  const RowsRun fast = expectFastMatchesWalk(builder.finish(), ctx);
  for (std::size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(fast.out[i], xs[i] * 2.0f + 1.0f) << "row " << i;
  }
}

TEST(GuardedRows, IluZeroSubstitutionCompilesToRowKernels) {
  // The ILU(0) forward/backward substitution of IluSolver::apply: both
  // level-set ParFor rows must lower to register-VM kernels.
  CodeletBuilder builder;
  builder.setNumArgs(11);
  std::vector<Value> args;
  const DType types[] = {DType::Float32, DType::Float32, DType::Float32,
                         DType::Float32, DType::Int32,   DType::Int32,
                         DType::Int32,   DType::Int32,   DType::Int32,
                         DType::Int32,   DType::Int32};
  for (int k = 0; k < 11; ++k) args.push_back(Value::argument(k, types[k]));
  Value zv = args[0], rv = args[1], yv = args[2], fv = args[3], fc = args[4],
        rp = args[5], di = args[6], fo = args[7], fp = args[8], bo = args[9],
        bp = args[10];
  For(0, fp.size() - 1, 1, [&](Value l) {
    ParallelFor(fp[l], fp[l + 1], [&](Value idx) {
      Value i = fo[idx];
      Value acc = rv[i];
      For(rp[i], rp[i + 1], 1, [&](Value k) {
        Value c = fc[k];
        If(c < i, [&] { acc = acc - Value(fv[k]) * Value(yv[c]); });
      });
      yv[i] = acc;
    });
  });
  For(0, bp.size() - 1, 1, [&](Value l) {
    ParallelFor(bp[l], bp[l + 1], [&](Value idx) {
      Value i = bo[idx];
      Value acc = yv[i];
      For(rp[i], rp[i + 1], 1, [&](Value k) {
        Value c = fc[k];
        If(c > i, [&] { acc = acc - Value(fv[k]) * Value(zv[c]); });
      });
      zv[i] = acc / Value(fv[di[i]]);
    });
  });
  CompiledCodeletPtr cc = compileCodelet(builder.finish(), ipu::CostModel{}, 6);
  EXPECT_EQ(compiledKernelCount(*cc), 2u);
}
