// Unit tests for the CodeDSL interpreter's scalar semantics and cycle
// accounting behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <span>
#include <utility>
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
// Register VM vs generic walk: every codelet compiles whole to the VM, which
// must match the walk bit for bit (every output column and the VertexCost)
// on every construct and branch pattern (the walk closes a lane block at each
// If, While test and loop entry, so taken bodies merge into the block that
// follows them).
// ---------------------------------------------------------------------------

namespace {

/// Codelet arguments over host vectors: one typed column per argument.
class HostArgs {
 public:
  void addFloat(std::vector<float> v) {
    cols_.push_back({DType::Float32, std::move(v), {}, {}});
  }
  void addInt(std::vector<std::int32_t> v) {
    cols_.push_back({DType::Int32, {}, std::move(v), {}});
  }
  void addDw(std::vector<Float2> v) {
    cols_.push_back({DType::DoubleWord, {}, {}, std::move(v)});
  }
  const std::vector<float>& floats(std::size_t a) const { return cols_[a].f; }
  const std::vector<std::int32_t>& ints(std::size_t a) const {
    return cols_[a].i;
  }
  const std::vector<Float2>& dws(std::size_t a) const { return cols_[a].d; }

  /// The columns bound as a vertex's arguments (valid while *this lives).
  std::vector<graph::ArgSpan> spans() {
    std::vector<graph::ArgSpan> out;
    for (Col& c : cols_) {
      switch (c.type) {
        case DType::Float32:
          out.push_back({c.f.data(), c.f.size(), c.type});
          break;
        case DType::Int32:
          out.push_back({c.i.data(), c.i.size(), c.type});
          break;
        default:
          out.push_back({c.d.data(), c.d.size(), c.type});
          break;
      }
    }
    return out;
  }

  /// Every column's raw bits, for exact comparison.
  std::vector<std::uint32_t> bits() const {
    std::vector<std::uint32_t> out;
    for (const Col& c : cols_) {
      for (float f : c.f) out.push_back(std::bit_cast<std::uint32_t>(f));
      for (std::int32_t i : c.i) out.push_back(std::bit_cast<std::uint32_t>(i));
      for (const Float2& d : c.d) {
        out.push_back(std::bit_cast<std::uint32_t>(d.hi));
        out.push_back(std::bit_cast<std::uint32_t>(d.lo));
      }
    }
    return out;
  }

 private:
  struct Col {
    DType type;
    std::vector<float> f;
    std::vector<std::int32_t> i;
    std::vector<Float2> d;
  };
  std::vector<Col> cols_;
};

struct RunResult {
  HostArgs args;  // the argument columns after the run
  graph::VertexCost cost;
  bool walked = false;  // the run took the generic walk
};

/// Rebinds a run's argument spans before it starts, e.g. so that two
/// arguments share or overlap storage.
using SpanRewrite = std::function<void(std::vector<graph::ArgSpan>&)>;

/// Runs `cc` once over `r.args`, in place, with the VM allowed or not, and
/// records its cost and path in `r` (unless it throws).
void runOnce(const CompiledCodelet& cc, RunResult& r, bool vm,
             const SpanRewrite& rewrite = {}) {
  struct Restore {
    bool env = codeletFastPathsEnabled();
    ~Restore() { setCodeletFastPaths(env); }
  } restore;
  setCodeletFastPaths(vm);
  std::vector<graph::ArgSpan> spans = r.args.spans();
  if (rewrite) rewrite(spans);
  graph::VertexContext ctx(spans, codeletBinds(cc, spans));
  const std::uint64_t before = codeletWalkEntries();
  r.cost = runCompiled(cc, ctx);
  r.walked = codeletWalkEntries() != before;
}

/// Runs `cc` once over a copy of `args`, with the VM allowed or not.
RunResult runOnce(const CompiledCodelet& cc, const HostArgs& args, bool vm,
                  const SpanRewrite& rewrite = {}) {
  RunResult r;
  r.args = args;
  runOnce(cc, r, vm, rewrite);
  return r;
}

CompiledCodeletPtr compileForTest(const CodeletIR& ir) {
  return compileCodelet(ir, ipu::CostModel{}, 6);
}

/// Runs `cc` on `args` on the VM and on the walk; both must agree on every
/// output bit and on the VertexCost. `onVm` false expects the vertex to fall
/// back to the walk whole. `rewrite` rebinds both runs' spans. Returns the
/// VM-enabled run.
RunResult expectVmMatchesWalk(const CompiledCodelet& cc, const HostArgs& args,
                              bool onVm = true,
                              const SpanRewrite& rewrite = {}) {
  const char* why = codeletWalkReason(cc);
  EXPECT_TRUE(why == nullptr) << "stayed on the walk: " << why;
  RunResult vm = runOnce(cc, args, true, rewrite);
  RunResult walk = runOnce(cc, args, false, rewrite);
  EXPECT_EQ(vm.walked, !onVm);
  EXPECT_TRUE(walk.walked);
  EXPECT_EQ(vm.args.bits(), walk.args.bits());
  EXPECT_EQ(vm.cost.workerCycles, walk.cost.workerCycles);
  EXPECT_EQ(vm.cost.wholeTile, walk.cost.wholeTile);
  EXPECT_GT(vm.cost.workerCycles, 0.0);
  return vm;
}

/// expectVmMatchesWalk for `ir` compiled for the default six workers.
RunResult expectVmMatchesWalk(const CodeletIR& ir, const HostArgs& args,
                              bool onVm = true,
                              const SpanRewrite& rewrite = {}) {
  return expectVmMatchesWalk(*compileForTest(ir), args, onVm, rewrite);
}

/// Both paths must fail with the same message. `rewrite` rebinds both
/// runs' spans. Returns the argument columns each run left behind, the
/// VM's first.
std::array<HostArgs, 2> expectSameError(const CodeletIR& ir,
                                        const HostArgs& args,
                                        const std::string& what,
                                        const SpanRewrite& rewrite = {}) {
  CompiledCodeletPtr cc = compileForTest(ir);
  EXPECT_TRUE(codeletWalkReason(*cc) == nullptr);
  std::array<HostArgs, 2> left;
  for (const bool vm : {true, false}) {
    RunResult r;
    r.args = args;
    try {
      runOnce(*cc, r, vm, rewrite);
      ADD_FAILURE() << "no error with the VM " << (vm ? "on" : "off");
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "VM " << (vm ? "on" : "off") << ": " << e.what();
    }
    left[vm ? 0 : 1] = std::move(r.args);
  }
  return left;
}

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

/// Per-row column lists → arguments for traceGuardedRows. `intCols` false
/// binds the column argument as Float32 (a dtype the program's bind check
/// must refuse).
HostArgs rowsArgs(const std::vector<std::vector<std::int32_t>>& rows,
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
  HostArgs args;
  args.addFloat(std::vector<float>(rows.size(), 0.0f));
  args.addFloat(val);
  if (intCols) {
    args.addInt(col);
  } else {
    args.addFloat(std::vector<float>(col.begin(), col.end()));
  }
  args.addInt(rp);
  args.addFloat(x);
  return args;
}

}  // namespace

TEST(GuardedRows, ZeroTripNestedLoop) {
  // Every other row is empty; the nested loop's entry branch still charges.
  expectVmMatchesWalk(traceGuardedRows(false),
                        rowsArgs({{}, {0}, {}, {1, 2}, {}, {}, {4}}));
  expectVmMatchesWalk(traceGuardedRows(false),
                        rowsArgs({{}, {}, {}, {}}));
}

TEST(GuardedRows, NoIterationTaken) {
  expectVmMatchesWalk(traceGuardedRows(false),
                        rowsArgs({{0, 1}, {1, 2}, {2, 3}, {3}, {4, 5}}));
}

TEST(GuardedRows, EveryIterationTaken) {
  expectVmMatchesWalk(
      traceGuardedRows(false),
      rowsArgs({{}, {0}, {0, 1}, {0, 1, 2}, {1, 3}, {0, 2, 4}, {5}}));
}

TEST(GuardedRows, OnlyLastIterationTakenMergesIntoTrailingStore) {
  // Row i: two untaken entries, then one taken — the taken body's lanes join
  // the row's trailing store block instead of the next iteration's.
  const RunResult last = expectVmMatchesWalk(
      traceGuardedRows(false),
      rowsArgs({{0}, {1, 2, 0}, {2, 3, 1}, {3, 4, 0}, {4, 5, 2},
                   {5, 5, 4}}));
  // Same taken count, but the taken entry comes first: its lanes merge into
  // the next iteration's block, which the walk prices differently.
  const RunResult first = expectVmMatchesWalk(
      traceGuardedRows(false),
      rowsArgs({{0}, {0, 1, 2}, {1, 2, 3}, {0, 3, 4}, {2, 4, 5},
                   {4, 5, 5}}));
  EXPECT_NE(last.cost.workerCycles, first.cost.workerCycles);
}

TEST(GuardedRows, IfWithElseBranch) {
  expectVmMatchesWalk(
      traceGuardedRows(true),
      rowsArgs({{}, {0, 1}, {2, 0, 3}, {3}, {0, 1, 2, 3, 4}, {5, 4}}));
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
  expectVmMatchesWalk(
      builder.finish(),
      rowsArgs({{0}, {0, 1}, {0, 1, 2}, {}, {2, 4, 1, 0}, {5, 3, 0, 1}}));
}

TEST(GuardedRows, MistypedIntArgumentFallsBackToWalk) {
  // The column argument was traced as Int32 but arrives as Float32: the
  // program's bind check must hand the whole vertex to the walk (which
  // promotes the comparison to Float32 and charges it as such).
  expectVmMatchesWalk(traceGuardedRows(false),
                      rowsArgs({{0}, {0, 1}, {2, 0}, {1, 3}}, false),
                      /*onVm=*/false);
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
  HostArgs args;
  args.addFloat(std::vector<float>(kRows, 0.0f));
  args.addFloat(xs);
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  for (std::size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(vm.args.floats(0)[i], xs[i] * 2.0f + 1.0f) << "row " << i;
  }
}

namespace {

/// Traces a codelet over arguments of `types` the way ExecuteOnTiles does:
/// one handle per argument, each a copy of Value::argument.
CodeletIR traceOnHandles(const std::vector<DType>& types,
                         const std::function<void(std::vector<Value>&)>& fn) {
  CodeletBuilder builder;
  builder.setNumArgs(types.size());
  std::vector<Value> handles;
  handles.reserve(types.size());  // growing the vector would trace copies
  for (std::size_t k = 0; k < types.size(); ++k) {
    handles.push_back(Value::argument(static_cast<int>(k), types[k]));
  }
  fn(handles);
  return builder.finish();
}

/// The ILU(0) forward/backward substitution of IluSolver::apply.
CodeletIR traceIluSolve() {
  const DType F = DType::Float32, I = DType::Int32;
  return traceOnHandles(
      {F, F, F, F, I, I, I, I, I, I, I}, [](std::vector<Value>& args) {
        Value zv = args[0], rv = args[1], yv = args[2], fv = args[3],
              fc = args[4], rp = args[5], di = args[6], fo = args[7],
              fp = args[8], bo = args[9], bp = args[10];
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
      });
}

/// The two-run CSR SpMV of DistMatrix::spmv.
CodeletIR traceCsrSpmv() {
  const DType F = DType::Float32, I = DType::Int32;
  return traceOnHandles({F, F, F, F, F, I, I, I}, [](std::vector<Value>& args) {
    Value yv = args[0], xv = args[1], hv = args[2], dv = args[3],
          av = args[4], cv = args[5], rp = args[6], sp = args[7];
    Value numOwned = xv.size();
    ParallelFor(0, yv.size(), [&](Value r) {
      Value acc = Value(dv[r]) * Value(xv[r]);
      For(rp[r], sp[r], 1, [&](Value k) {
        acc = acc + Value(av[k]) * Value(xv[cv[k]]);
      });
      For(sp[r], rp[r + 1], 1, [&](Value k) {
        acc = acc + Value(av[k]) * Value(hv[Value(cv[k]) - numOwned]);
      });
      yv[r] = acc;
    });
  });
}

}  // namespace

TEST(GuardedRows, IluZeroSubstitutionCompilesToRowKernels) {
  // The level loops and both level-set ParFor rows compile into one VM
  // program, and each row runs as a native triangular row.
  CompiledCodeletPtr cc = compileForTest(traceIluSolve());
  EXPECT_TRUE(codeletWalkReason(*cc) == nullptr) << codeletWalkReason(*cc);
  EXPECT_NE(codeletShape(*cc).find(" csr=0 tri=2"), std::string::npos)
      << codeletShape(*cc);
  EXPECT_NE(codeletShape(*compileForTest(traceCsrSpmv())).find(" csr=1 tri=0"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Whole-codelet constructs: each must run on the VM and match the walk.
// ---------------------------------------------------------------------------

namespace {

std::vector<float> ramp(std::size_t n, float start, float step) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = start + step * static_cast<float>(i);
  }
  return v;
}

/// While loops: out[0] = number of passes while (i < lim[0]), accumulating
/// x[i] into out[1]; a zero limit runs the body zero times.
CodeletIR traceWhile() {
  CodeletBuilder builder;
  builder.setNumArgs(3);
  Value out = Value::argument(0, DType::Float32);
  Value lim = Value::argument(1, DType::Int32);
  Value x = Value::argument(2, DType::Float32);
  Value i = 0;
  Value acc = 0.0f;
  Value n = lim[0];
  While([&] { return i < n; },
        [&] {
          acc = acc + Value(x[i]);
          i = i + 1;
        });
  out[0] = i;
  out[1] = acc;
  return builder.finish();
}

HostArgs whileArgs(std::int32_t limit) {
  HostArgs args;
  args.addFloat({0.0f, 0.0f});
  args.addInt({limit});
  args.addFloat(ramp(8, 0.5f, 0.25f));
  return args;
}

}  // namespace

// A copied tensor-argument handle is the same handle: pushing it into a
// container (where regrowth copies it again) or initialising another Value
// from it traces no statement, so it costs no cycle on the VM or the walk.
TEST(WholeCodelet, CopiedArgumentHandlesTraceAndCostNothing) {
  const auto trace = [](bool copy) {
    CodeletBuilder builder;
    builder.setNumArgs(2);
    Value x = Value::argument(0, DType::Float32);
    Value y = Value::argument(1, DType::Float32);
    const auto scale = [](const Value& out, const Value& in) {
      For(0, out.size(), 1, [&](Value i) { out[i] = in[i] * 2.0f; });
    };
    if (copy) {
      std::vector<Value> handles;
      handles.push_back(x);
      handles.push_back(y);
      Value out = handles[0];
      Value in(handles[1]);
      scale(out, in);
    } else {
      scale(x, y);
    }
    return builder.finish();
  };
  const CodeletIR direct = trace(false);
  const CodeletIR copied = trace(true);
  EXPECT_EQ(copied.statements.size(), direct.statements.size());
  EXPECT_EQ(copied.numVars, direct.numVars);

  HostArgs args;
  args.addFloat(std::vector<float>(7, 0.0f));
  args.addFloat(ramp(7, 0.5f, 0.25f));
  const RunResult a = expectVmMatchesWalk(direct, args);
  const RunResult b = expectVmMatchesWalk(copied, args);
  EXPECT_EQ(b.args.bits(), a.args.bits());
  EXPECT_EQ(b.cost.workerCycles, a.cost.workerCycles);
  EXPECT_EQ(b.cost.wholeTile, a.cost.wholeTile);
  const RunResult walkA = runOnce(*compileForTest(direct), args, false);
  const RunResult walkB = runOnce(*compileForTest(copied), args, false);
  EXPECT_EQ(walkB.cost.workerCycles, walkA.cost.workerCycles);
}

TEST(WholeCodelet, WhileRunsZeroAndManyPasses) {
  const RunResult none = expectVmMatchesWalk(traceWhile(), whileArgs(0));
  EXPECT_EQ(none.args.floats(0)[0], 0.0f);
  const RunResult five = expectVmMatchesWalk(traceWhile(), whileArgs(5));
  EXPECT_EQ(five.args.floats(0)[0], 5.0f);
  EXPECT_GT(five.cost.workerCycles, none.cost.workerCycles);
}

TEST(WholeCodelet, WhileRunawayGuardFailsOnBothPaths) {
  // while (true) {}, built directly as IR so each of the guard's 2^26
  // passes costs only the test and the branch.
  auto cond = std::make_shared<Expr>();
  cond->kind = Expr::Kind::Const;
  cond->type = DType::Bool;
  cond->constant = Scalar(true);
  auto loop = std::make_shared<Stmt>();
  loop->kind = Stmt::Kind::While;
  loop->cond = cond;
  CodeletIR ir;
  ir.statements.push_back(loop);
  expectSameError(ir, HostArgs{}, "runaway While loop in codelet");
}

TEST(WholeCodelet, SelectNeverEvaluatesTheUntakenSide) {
  // Whichever side a row takes, the other indexes far out of range.
  auto trace = [] {
    CodeletBuilder builder;
    builder.setNumArgs(4);
    Value flags = Value::argument(0, DType::Int32);
    Value c = Value::argument(1, DType::Float32);
    Value d = Value::argument(2, DType::Float32);
    Value out = Value::argument(3, DType::Float32);
    For(0, out.size(), 1, [&](Value i) {
      Value f = flags[i];
      out[i] = Select(f == 0, c[i + f * 1000000],
                      d[i + (Value(1) - f) * 1000000]);
    });
    return builder.finish();
  };
  HostArgs args;
  args.addInt({0, 1, 1, 0, 1, 0, 0, 1, 1, 1});
  args.addFloat(ramp(10, -1.0f, 0.3f));
  args.addFloat(ramp(10, 4.0f, -0.7f));
  args.addFloat(std::vector<float>(10, 0.0f));
  const RunResult vm = expectVmMatchesWalk(trace(), args);
  EXPECT_EQ(vm.args.floats(3)[1], args.floats(2)[1]);
  // A flag of 2 sends the taken side to a negative index: both paths fail
  // the same way.
  HostArgs bad;
  bad.addInt({0, 2});
  bad.addFloat({1.0f, 2.0f});
  bad.addFloat({3.0f, 4.0f});
  bad.addFloat({0.0f, 0.0f});
  expectSameError(trace(), bad, "negative tensor index in codelet");
}

TEST(WholeCodelet, LogicOpsEvaluateBothOperands) {
  CodeletBuilder builder;
  builder.setNumArgs(3);
  Value a = Value::argument(0, DType::Int32);
  Value x = Value::argument(1, DType::Float32);
  Value out = Value::argument(2, DType::Float32);
  For(0, out.size(), 1, [&](Value i) {
    Value ai = a[i];
    Value xi = x[i];
    Value both = ai > 0 && xi < 0.5f;
    Value either = ai == 2 || Value(!(xi != 0.0f));
    Value mixed = xi && ai;  // float and int truthiness
    If(both || either, [&] { out[i] = Value(1.0f) + mixed; },
       [&] { out[i] = Select(mixed, xi, -xi); });
  });
  HostArgs args;
  args.addInt({0, 1, 2, 3, 0, 1, 2, -1});
  args.addFloat({0.0f, 0.25f, 0.75f, -1.0f, 2.0f, 0.0f, 0.4f, 0.6f});
  args.addFloat(std::vector<float>(8, 0.0f));
  expectVmMatchesWalk(builder.finish(), args);
}

TEST(WholeCodelet, IntegerDivisionAndModulo) {
  CodeletBuilder builder;
  builder.setNumArgs(3);
  Value a = Value::argument(0, DType::Int32);
  Value b = Value::argument(1, DType::Int32);
  Value out = Value::argument(2, DType::Int32);
  For(0, out.size(), 1, [&](Value i) {
    Value ai = a[i];
    Value bi = b[i];
    out[i] = ai / bi * 100 + ai % bi;
  });
  HostArgs args;
  args.addInt({7, -7, 7, -7, 100, 3, 0});
  args.addInt({2, 2, -2, -2, 7, 5, 9});
  args.addInt(std::vector<std::int32_t>(7, 0));
  expectVmMatchesWalk(builder.finish(), args);
}

TEST(WholeCodelet, IntegerDivisionByZeroFailsOnBothPaths) {
  for (const bool modulo : {false, true}) {
    CodeletBuilder builder;
    builder.setNumArgs(2);
    Value a = Value::argument(0, DType::Int32);
    Value out = Value::argument(1, DType::Int32);
    For(0, out.size(), 1, [&](Value i) {
      Value ai = a[i];
      out[i] = modulo ? ai % (ai - 3) : ai / (ai - 3);
    });
    HostArgs args;
    args.addInt({1, 2, 3, 4});
    args.addInt({0, 0, 0, 0});
    expectSameError(builder.finish(), args,
                    modulo ? "integer modulo by zero in codelet"
                           : "integer division by zero in codelet");
  }
}

TEST(WholeCodelet, NestedParForLevelsWithEmptyLevels) {
  // The ILU level loop: a serial For over levels, each a ParFor over its
  // rows; levels 0, 2 and 4 are empty.
  CodeletBuilder builder;
  builder.setNumArgs(4);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  Value order = Value::argument(2, DType::Int32);
  Value lvl = Value::argument(3, DType::Int32);
  For(0, lvl.size() - 1, 1, [&](Value l) {
    ParallelFor(lvl[l], lvl[l + 1], [&](Value idx) {
      Value i = order[idx];
      Value prev = Select(i > 0, out[i - 1], 0.0f);
      out[i] = prev * 0.5f + Value(x[i]) + WorkerId();
    });
  });
  HostArgs args;
  args.addFloat(std::vector<float>(7, 0.0f));
  args.addFloat(ramp(7, 1.0f, 0.5f));
  args.addInt({0, 1, 2, 3, 4, 5, 6});
  args.addInt({0, 0, 3, 3, 4, 4, 7});
  expectVmMatchesWalk(builder.finish(), args);
}

TEST(WholeCodelet, DoubleWordArithmeticComparesAndCasts) {
  // out = f(x, y, s) over double-word x, y and float32 s, covering DW∘DW
  // add/sub/mul/div, neg/abs/sqrt, comparisons, mixed DW∘FP (priced
  // 84/42/66) and F32↔DW casts.
  CodeletBuilder builder;
  builder.setNumArgs(5);
  Value out = Value::argument(0, DType::DoubleWord);
  Value x = Value::argument(1, DType::DoubleWord);
  Value y = Value::argument(2, DType::DoubleWord);
  Value s = Value::argument(3, DType::Float32);
  Value lo = Value::argument(4, DType::Float32);
  For(0, out.size(), 1, [&](Value i) {
    Value xi = x[i];
    Value yi = y[i];
    Value si = s[i];
    Value t = (xi + yi) * (xi - yi) / Abs(-yi);
    Value u = Sqrt(Abs(t)) + xi * si - si / (yi + 1.0f) + (si - xi);
    Value v = Select(t < u, Min(t, u), Max(t, u) / si);
    If(xi >= yi && u != t, [&] { v = v + si.cast(DType::DoubleWord); });
    out[i] = v;
    lo[i] = v.cast(DType::Float32) + Value(xi == yi);
  });
  HostArgs args;
  std::vector<Float2> xs, ys;
  for (int i = 0; i < 9; ++i) {
    xs.push_back(Float2::fromWide(0.1 * i - 0.35));
    ys.push_back(Float2::fromWide(i % 3 == 0 ? 0.1 * i - 0.35 : 1.0 / (i + 2)));
  }
  args.addDw(std::vector<Float2>(9));
  args.addDw(xs);
  args.addDw(ys);
  args.addFloat(ramp(9, 0.75f, 0.5f));
  args.addFloat(std::vector<float>(9, 0.0f));
  expectVmMatchesWalk(builder.finish(), args);
}

TEST(WholeCodelet, ArgumentDtypeDifferingFromTraceFallsBackWhole) {
  // Traced with a float32 input, bound to a double-word one: the vertex
  // must run whole on the walk, which computes in double-word.
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  For(0, out.size(), 1, [&](Value i) { out[i] = Value(x[i]) * 3.0f; });
  HostArgs args;
  args.addFloat(std::vector<float>(4, 0.0f));
  args.addDw({Float2::fromWide(0.1), Float2::fromWide(0.2),
              Float2::fromWide(0.3), Float2::fromWide(0.4)});
  expectVmMatchesWalk(builder.finish(), args, /*onVm=*/false);
}

TEST(WholeCodelet, ReadsAndWritesOutsideTheSliceFailOnBothPaths) {
  // Two tiles of an 8-element tensor: reading c[i + 1] or writing o[i + 1]
  // at the slice's last element must fail, not touch the neighbour tile's
  // slice (or, on the last tile, memory past the buffer).
  for (const bool store : {false, true}) {
    for (const bool vm : {true, false}) {
      Context ctx(ipu::IpuTarget::testTarget(2));
      Tensor c(DType::Float32, 8, "c");
      Tensor o(DType::Float32, 8, "o");
      Execute({c, o}, [&](Value cv, Value ov) {
        For(0, ov.size(), 1, [&](Value i) {
          if (store) {
            ov[i + 1] = cv[i];
          } else {
            ov[i] = cv[i + 1];
          }
        });
      });
      const bool env = codeletFastPathsEnabled();
      setCodeletFastPaths(vm);
      graph::Engine e(ctx.graph(), 1);
      std::string what;
      try {
        e.run(ctx.program());
      } catch (const Error& err) {
        what = err.what();
      }
      setCodeletFastPaths(env);
      EXPECT_NE(what.find("tensor index out of range in codelet"),
                std::string::npos)
          << (store ? "store" : "load") << ", VM " << (vm ? "on" : "off")
          << ": '" << what << "'";
    }
  }
}

TEST(WholeCodelet, BadGatherIndicesReportTheWalksError) {
  // out[i] = x[idx[i]] with one bad index. 20 elements run the blocked
  // kernel, whose gathers check each lane; 2 elements run the per-element
  // kernel. Both must fail with the walk's text.
  auto trace = [] {
    CodeletBuilder builder;
    builder.setNumArgs(3);
    Value out = Value::argument(0, DType::Float32);
    Value x = Value::argument(1, DType::Float32);
    Value idx = Value::argument(2, DType::Int32);
    For(0, out.size(), 1, [&](Value i) { out[i] = x[idx[i]]; });
    return builder.finish();
  };
  const std::pair<std::int32_t, const char*> bad[] = {
      {-1, "negative tensor index in codelet"},
      {8, "tensor index out of range in codelet"}};
  for (const std::size_t n : {2, 20}) {
    for (const auto& [index, what] : bad) {
      SCOPED_TRACE(std::to_string(n) + " elements, index " +
                   std::to_string(index));
      std::vector<std::int32_t> idx(n);
      for (std::size_t i = 0; i < n; ++i) {
        idx[i] = static_cast<std::int32_t>(i % 8);
      }
      idx[std::min<std::size_t>(5, n - 1)] = index;
      HostArgs args;
      args.addFloat(std::vector<float>(n, 0.0f));
      args.addFloat(ramp(8, 1.0f, 0.5f));
      args.addInt(idx);
      expectSameError(trace(), args, what);
    }
  }
}

TEST(WholeCodelet, BlockedSqrtMatchesTheWalk) {
  // out[i] = sqrt(x[i]) over 37 elements runs as a blocked kernel: two
  // 16-lane blocks, a 4-lane block and a one-element tail. -1, -0, +0, NaN,
  // +-inf and a subnormal sit in the 16-lane blocks, and again at the end,
  // across the 4-lane block and the tail: each must give the walk's bits.
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  For(0, out.size(), 1, [&](Value i) { out[i] = Sqrt(x[i]); });
  const CodeletIR ir = builder.finish();
  const std::string shape = codeletShape(*compileForTest(ir));
  EXPECT_NE(shape.find("kernels=[none+blocked]"), std::string::npos) << shape;
  constexpr std::size_t kN = 37;
  using Limits = std::numeric_limits<float>;
  std::vector<float> xs = ramp(kN, 0.125f, 0.75f);
  const float special[] = {-1.0f,          -0.0f,           0.0f,
                           Limits::quiet_NaN(), Limits::infinity(),
                           -Limits::infinity(), Limits::denorm_min()};
  for (std::size_t j = 0; j < std::size(special); ++j) {
    xs[j * 5] = special[j];       // 0, 5, ..., 30
    xs[kN - 1 - j] = special[j];  // 36, 35, ..., 30
  }
  HostArgs args;
  args.addFloat(std::vector<float>(kN, 0.0f));
  args.addFloat(xs);
  const RunResult vm = expectVmMatchesWalk(ir, args);
  EXPECT_TRUE(std::isnan(vm.args.floats(0)[0]));  // sqrt(-1)
  EXPECT_TRUE(std::signbit(vm.args.floats(0)[5]));  // sqrt(-0) is -0
}

TEST(WholeCodelet, SerialLoopKernelWritesBackOuterVariables) {
  // A straight-line serial loop runs as a loop kernel: variables defined
  // before it and assigned in it carry the last element's values out; a
  // loop that runs zero times leaves them untouched.
  auto trace = [] {
    CodeletBuilder builder;
    builder.setNumArgs(2);
    Value out = Value::argument(0, DType::Float32);
    Value x = Value::argument(1, DType::Float32);
    Value acc = 0.5f;
    Value last = -1.0f;
    For(0, x.size(), 1, [&](Value i) {
      Value t = Value(x[i]) * 2.0f;
      acc = acc + t;
      last = t;
    });
    out[0] = acc;
    out[1] = last;
    return builder.finish();
  };
  for (const std::size_t n : {0, 1, 37}) {
    HostArgs args;
    args.addFloat({0.0f, 0.0f});
    args.addFloat(ramp(n, 0.25f, 0.125f));
    const RunResult vm = expectVmMatchesWalk(trace(), args);
    const float last = n == 0 ? -1.0f : args.floats(1)[n - 1] * 2.0f;
    EXPECT_EQ(vm.args.floats(0)[1], last);
  }
}

TEST(WholeCodelet, KernelsOnSharedAndOverlappingSpansMatchTheWalk) {
  // Each kernel stores argument 0 and loads argument 1 (and 2). The run
  // binds the stored span onto the first loaded one, then one element
  // ahead of it and one behind, so the walk's in-order schedule reads
  // elements the loop itself wrote. The blocked VM's same-span and overlap
  // rules must keep that schedule, and each kernel its operand order. No
  // kernel writes anything back, so on one shared span 16 elements run as
  // one 16-lane block and 30 as blocks of 16, 8, 4 and 2, with no
  // per-element run; 47 runs blocks of 16, 8, 4 and 2 and one element.
  using Body = std::function<void(Value&, Value&, Value&, Value&)>;
  const std::pair<const char*, Body> kernels[] = {
      {"x = x + s*p",
       [](Value& out, Value& a, Value& b, Value& i) {
         out[i] = Value(a[i]) + Value(0.75f) * Value(b[i]);
       }},
      {"x = p*s - x",
       [](Value& out, Value& a, Value& b, Value& i) {
         out[i] = Value(b[i]) * Value(0.75f) - Value(a[i]);
       }},
      {"x = x - y",
       [](Value& out, Value& a, Value& b, Value& i) {
         out[i] = Value(a[i]) - Value(b[i]);
       }},
      {"x = x", [](Value& out, Value& a, Value&, Value& i) { out[i] = a[i]; }},
      {"x = 3x",
       [](Value& out, Value& a, Value&, Value& i) {
         out[i] = Value(a[i]) * 3.0f;
       }},
      {"x reversed",
       [](Value& out, Value& a, Value&, Value& i) {
         out[i] = a[a.size() - 1 - i];
       }},
  };
  for (const auto& [name, body] : kernels) {
    CodeletBuilder builder;
    builder.setNumArgs(3);
    Value out = Value::argument(0, DType::Float32);
    Value a = Value::argument(1, DType::Float32);
    Value b = Value::argument(2, DType::Float32);
    For(0, out.size(), 1, [&](Value i) { body(out, a, b, i); });
    const CodeletIR ir = builder.finish();
    for (const std::size_t n : {16, 30, 47}) {
      for (const int shift : {0, 1, -1}) {
        SCOPED_TRACE(std::string(name) + ", " + std::to_string(n) +
                     " elements, stored span shifted by " +
                     std::to_string(shift));
        HostArgs args;
        args.addFloat(std::vector<float>(n, 0.0f));
        args.addFloat(ramp(n + 1, 1.0f, 0.25f));
        args.addFloat(ramp(n, -2.0f, 0.5f));
        const SpanRewrite rewrite = [n, shift](std::vector<graph::ArgSpan>& s) {
          float* base = static_cast<float*>(s[1].data);
          s[0] = {base + (shift > 0 ? 1 : 0), n, DType::Float32};
          s[1] = {base + (shift < 0 ? 1 : 0), n, DType::Float32};
        };
        expectVmMatchesWalk(ir, args, /*onVm=*/true, rewrite);
      }
    }
  }
}

TEST(WholeCodelet, BlockedKernelWritesBackTheLastElement) {
  // t = x[i] * 2; out[i] = t; last = t carries no register from one element
  // to the next, so it runs in lane blocks, but it writes `last` back: its
  // last element must still run per element, so that `last` reads the
  // final element's value. 2 elements run per element only; 3, 16, 17 and
  // 30 run blocks of 2; 8, 4 and 2; 16; and 16, 8 and 4 first, then one or
  // two elements per element. Without the write-back, 2, 16 and 30 would
  // run whole in blocks.
  CodeletBuilder builder;
  builder.setNumArgs(3);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  Value result = Value::argument(2, DType::Float32);
  Value last = -1.0f;
  For(0, x.size(), 1, [&](Value i) {
    Value t = Value(x[i]) * 2.0f;
    out[i] = t;
    last = t;
  });
  result[0] = last;
  const CodeletIR ir = builder.finish();
  const std::string shape = codeletShape(*compileForTest(ir));
  EXPECT_NE(shape.find("kernels=[none+blocked]"), std::string::npos) << shape;
  for (const std::size_t n : {2, 3, 16, 17, 30}) {
    SCOPED_TRACE(std::to_string(n) + " elements");
    HostArgs args;
    args.addFloat(std::vector<float>(n, 0.0f));
    args.addFloat(ramp(n, 0.25f, 0.125f));
    args.addFloat({0.0f});
    const RunResult vm = expectVmMatchesWalk(ir, args);
    EXPECT_EQ(vm.args.floats(2)[0], args.floats(1)[n - 1] * 2.0f);
  }
}

TEST(WholeCodelet, LoopLocalVariableReadAfterTheLoopKeepsTheWalk) {
  // `t` is first assigned inside the loop: after a zero-trip loop the walk
  // reads its initial Float32 zero, so the codelet stays on the walk.
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  std::optional<Value> t;
  For(0, x.size(), 1, [&](Value i) { t.emplace(x[i]); });
  out[0] = *t;
  CompiledCodeletPtr cc = compileForTest(builder.finish());
  ASSERT_TRUE(codeletWalkReason(*cc) != nullptr);
  EXPECT_EQ(std::string(codeletWalkReason(*cc)),
            "variable read outside the scope that defines it");
  HostArgs args;
  args.addFloat({0.0f});
  args.addFloat({1.5f, 2.5f});
  EXPECT_TRUE(runOnce(*cc, args, true).walked);
}

// ---------------------------------------------------------------------------
// Native triangular rows: a level-set substitution row runs as a native
// scalar loop priced in closed form, and must match the walk bit for bit on
// every taken pattern, and fail like it on every out-of-slice index.
// ---------------------------------------------------------------------------

namespace {

/// Variants of traceTriRows. Only Plain, GatherFromOut and StepFromArg have
/// the native row's shape.
enum class TriVariant {
  Plain,
  GatherFromOut,  // x is the stored span, as in ILU's rows
  StepFromArg,    // the inner loop's step is steps[0]
  AccReadAfter,   // acc outlives the row: out[0] = acc after the ParFor
  ExtraLoad,      // the row also loads x[i], which nothing reads
  EndAtWorkerId,  // the inner loop ends at rp[i + WorkerId()]
};

/// One triangular-substitution row per ParFor iteration, the shape
/// IluSolver::apply traces:
///   i = order[idx]; acc = seed[i]
///   for k in [rp[i], rp[i + 1]):
///     c = col[k]; if (c < i) acc = acc - val[k] * x[c]
///   out[i] = acc
/// The backward row's guard is c > i, and it stores acc / val[di[i]].
/// Args: 0 out, 1 seed, 2 x, 3 val, 4 col, 5 rp, 6 di, 7 order, 8 steps.
CodeletIR traceTriRows(bool backward, TriVariant variant = TriVariant::Plain) {
  CodeletBuilder builder;
  builder.setNumArgs(9);
  Value out = Value::argument(0, DType::Float32);
  Value seed = Value::argument(1, DType::Float32);
  Value x = variant == TriVariant::GatherFromOut
                ? out
                : Value::argument(2, DType::Float32);
  Value val = Value::argument(3, DType::Float32);
  Value col = Value::argument(4, DType::Int32);
  Value rp = Value::argument(5, DType::Int32);
  Value di = Value::argument(6, DType::Int32);
  Value order = Value::argument(7, DType::Int32);
  Value steps = Value::argument(8, DType::Int32);
  Value step = variant == TriVariant::StepFromArg ? Value(steps[0]) : Value(1);
  std::optional<Value> outer;
  if (variant == TriVariant::AccReadAfter) outer.emplace(0.0f);
  ParallelFor(0, out.size(), [&](Value idx) {
    Value i = order[idx];
    if (variant == TriVariant::ExtraLoad) Value unused = x[i];
    std::optional<Value> local;
    if (outer) {
      *outer = seed[i];
    } else {
      local.emplace(seed[i]);
    }
    Value& acc = outer ? *outer : *local;
    Value s = variant == TriVariant::EndAtWorkerId ? WorkerId() : Value(1);
    For(rp[i], rp[i + s], step, [&](Value k) {
      Value c = col[k];
      If(backward ? c > i : c < i,
         [&] { acc = acc - Value(val[k]) * Value(x[c]); });
    });
    if (backward) {
      out[i] = acc / Value(val[di[i]]);
    } else {
      out[i] = acc;
    }
  });
  if (outer) out[0] = *outer;
  return builder.finish();
}

/// traceTriRows' argument columns for a matrix whose row i holds the
/// columns rows[i]; ParFor iteration idx visits row order[idx]. val has one
/// spare entry past the last column, and di points every row at a nonzero.
struct TriCols {
  std::vector<float> out, seed, x, val;
  std::vector<std::int32_t> col, rp{0}, di, order, steps{1};

  TriCols(const std::vector<std::vector<std::int32_t>>& rows,
          std::vector<std::int32_t> visit)
      : order(std::move(visit)) {
    const std::size_t n = rows.size();
    for (const std::vector<std::int32_t>& r : rows) {
      col.insert(col.end(), r.begin(), r.end());
      rp.push_back(static_cast<std::int32_t>(col.size()));
    }
    val = ramp(col.size() + 1, 0.5f, 0.125f);
    for (std::size_t i = 0; i < n; ++i) {
      di.push_back(static_cast<std::int32_t>((i * 5) % val.size()));
    }
    out.assign(n, -1.0f);
    seed = ramp(n, 1.0f, 0.5f);
    x = ramp(n, -0.75f, 0.375f);
  }

  HostArgs args() const {
    HostArgs a;
    a.addFloat(out);
    a.addFloat(seed);
    a.addFloat(x);
    a.addFloat(val);
    a.addInt(col);
    a.addInt(rp);
    a.addInt(di);
    a.addInt(order);
    a.addInt(steps);
    return a;
  }
};

/// Columns for row i of n whose guard is taken at each 'T' of `pattern` and
/// not at each 'N': below i for the forward row, above it for the backward
/// one. An untaken column may be the diagonal.
std::vector<std::int32_t> guardPattern(std::int32_t i, std::int32_t n,
                                       bool backward,
                                       const std::string& pattern) {
  std::vector<std::int32_t> cols;
  for (std::size_t j = 0; j < pattern.size(); ++j) {
    const auto s = static_cast<std::int32_t>(j);
    const bool taken = pattern[j] == 'T';
    if (backward) {
      cols.push_back(taken ? i + 1 + s % (n - 1 - i) : s % (i + 1));
    } else {
      cols.push_back(taken ? s % i : i + s % (n - i));
    }
  }
  return cols;
}

/// Rows 1 .. n-2 of an n-row matrix follow `pattern`; rows 0 and n-1 are
/// empty. The rows are visited out of order.
TriCols patternRows(bool backward, const std::string& pattern) {
  constexpr std::int32_t kN = 9;
  std::vector<std::vector<std::int32_t>> rows(kN);
  for (std::int32_t i = 1; i + 1 < kN; ++i) {
    rows[static_cast<std::size_t>(i)] = guardPattern(i, kN, backward, pattern);
  }
  return TriCols(rows, {4, 0, 7, 2, 8, 5, 1, 6, 3});
}

/// `n` rows of mixed lengths and taken patterns, visited out of order: row
/// i of 1 .. n-2 follows one of six patterns in turn; rows 0 and n-1 are
/// empty.
TriCols mixedTriRows(bool backward, std::int32_t n) {
  const std::string patterns[] = {"T", "NT", "TTN", "", "NNTT", "TNTNT"};
  std::vector<std::vector<std::int32_t>> rows(static_cast<std::size_t>(n));
  std::vector<std::int32_t> visit;
  for (std::int32_t i = 0; i < n; ++i) {
    if (i > 0 && i + 1 < n) {
      rows[static_cast<std::size_t>(i)] =
          guardPattern(i, n, backward, patterns[i % 6]);
    }
    visit.push_back(i * 7 % n);
  }
  return TriCols(rows, visit);
}

/// `ir` with each read of a variable assigned WorkerId() replaced by the
/// worker id itself. The DSL traces WorkerId() into a variable, which the VM
/// copies out of the worker-id register; IR built by hand reads the register
/// straight, and a row plan must not take it for a value fixed across rows.
CodeletIR readWorkerIdStraight(CodeletIR ir) {
  std::set<int> ids;
  std::function<void(const StmtList&)> find = [&](const StmtList& list) {
    for (const StmtPtr& s : list) {
      if (s->kind == Stmt::Kind::Assign &&
          s->value->kind == Expr::Kind::WorkerId) {
        ids.insert(s->var);
      }
      find(s->body);
      find(s->elseBody);
    }
  };
  find(ir.statements);
  std::function<ExprPtr(const ExprPtr&)> expr =
      [&](const ExprPtr& e) -> ExprPtr {
    if (e == nullptr) return e;
    auto copy = std::make_shared<Expr>(*e);
    if (e->kind == Expr::Kind::Var && ids.contains(e->var)) {
      copy->kind = Expr::Kind::WorkerId;
      copy->var = -1;
    }
    copy->a = expr(e->a);
    copy->b = expr(e->b);
    copy->c = expr(e->c);
    return copy;
  };
  std::function<StmtList(const StmtList&)> stmts = [&](const StmtList& list) {
    StmtList out;
    for (const StmtPtr& s : list) {
      auto copy = std::make_shared<Stmt>(*s);
      for (ExprPtr* e : {&copy->index, &copy->value, &copy->cond, &copy->begin,
                         &copy->end, &copy->step}) {
        *e = expr(*e);
      }
      copy->body = stmts(s->body);
      copy->elseBody = stmts(s->elseBody);
      out.push_back(copy);
    }
    return out;
  };
  ir.statements = stmts(ir.statements);
  return ir;
}

bool hasTriRows(const CodeletIR& ir, int n) {
  const std::string shape = codeletShape(*compileForTest(ir));
  return shape.find(" tri=" + std::to_string(n)) != std::string::npos;
}

}  // namespace

TEST(TriangularRows, EveryTakenPatternMatchesTheWalk) {
  // None, all, only the first and only the last iteration taken, a mix, and
  // zero-trip rows (the first and last row, and every row of the last
  // case), gathering from x or, as ILU does, from the span the rows store.
  for (const bool backward : {false, true}) {
    for (const TriVariant variant :
         {TriVariant::Plain, TriVariant::GatherFromOut}) {
      const CodeletIR ir = traceTriRows(backward, variant);
      ASSERT_TRUE(hasTriRows(ir, 1));
      double cost[2] = {0, 0};
      for (const std::string pattern :
           {"NNN", "TTTT", "TNN", "NNT", "NTTNT", ""}) {
        SCOPED_TRACE(std::string(backward ? "backward" : "forward") +
                     (variant == TriVariant::Plain ? "" : ", gathering out") +
                     ", '" + pattern + "'");
        const RunResult vm =
            expectVmMatchesWalk(ir, patternRows(backward, pattern).args());
        if (pattern == "TNN") cost[0] = vm.cost.workerCycles;
        if (pattern == "NNT") cost[1] = vm.cost.workerCycles;
      }
      // The last taken body's lanes join the trailing store's block.
      EXPECT_NE(cost[0], cost[1]);
    }
  }
}

TEST(TriangularRows, IluSubstitutionMatchesTheWalk) {
  // Both rows of IluSolver::apply over a 5-point Laplacian pattern on a 4x4
  // grid, each level set a single level in its sweep order.
  constexpr std::int32_t kSide = 4, kN = kSide * kSide;
  std::vector<std::int32_t> col, rp{0}, di, fwd, bwd;
  for (std::int32_t i = 0; i < kN; ++i) {
    for (const std::int32_t c : {i - kSide, i - 1, i, i + 1, i + kSide}) {
      const bool wraps = (c == i - 1 || c == i + 1) && c / kSide != i / kSide;
      if (c < 0 || c >= kN || wraps) continue;
      if (c == i) di.push_back(static_cast<std::int32_t>(col.size()));
      col.push_back(c);
    }
    rp.push_back(static_cast<std::int32_t>(col.size()));
    fwd.push_back(i);
    bwd.push_back(kN - 1 - i);
  }
  HostArgs args;
  args.addFloat(std::vector<float>(kN, 0.0f));                 // z
  args.addFloat(ramp(kN, 1.0f, 0.25f));                        // r
  args.addFloat(std::vector<float>(kN, 0.0f));                 // y
  args.addFloat(ramp(col.size(), 4.0f, -0.0625f));             // L\U values
  args.addInt(col);
  args.addInt(rp);
  args.addInt(di);
  args.addInt(fwd);
  args.addInt({0, kN});
  args.addInt(bwd);
  args.addInt({0, kN});
  expectVmMatchesWalk(traceIluSolve(), args);
}

TEST(TriangularRows, OutOfSliceIndicesReportTheWalksError) {
  // Every index the row reads or writes through, checked on the native row
  // and reported by the program it hands the row back to. A slice is cut
  // short by rebinding its span, so the memory past it stays readable, as a
  // neighbouring tile's region would be: a skipped check would go unseen.
  const std::string range = "tensor index out of range in codelet";
  const std::string negative = "negative tensor index in codelet";
  enum Arg { kOut, kSeed, kX, kVal, kCol, kRp, kDi, kOrder };
  auto shorten = [](Arg arg, std::size_t size) -> SpanRewrite {
    return [=](std::vector<graph::ArgSpan>& s) { s[arg].size = size; };
  };
  for (const bool backward : {false, true}) {
    SCOPED_TRACE(backward ? "backward" : "forward");
    const CodeletIR ir = traceTriRows(backward);
    const TriCols base = patternRows(backward, "NTTNT");
    // idx past order's; rp[i + 1] past rp's; k past col's; i past out's
    // (row 8 is visited fifth).
    expectSameError(ir, base.args(), range, shorten(kOrder, 8));
    expectSameError(ir, base.args(), range, shorten(kRp, 9));
    expectSameError(ir, base.args(), range,
                    shorten(kCol, base.col.size() - 1));
    expectSameError(ir, base.args(), range, shorten(kOut, 8));
    for (const auto& [i, what] :
         {std::pair{9, range}, std::pair{-1, negative}}) {
      TriCols t = base;  // order names a row outside every slice
      t.order[3] = i;
      expectSameError(ir, t.args(), what);
    }
    // A gathered x[c] or a val[k] outside its slice fails on a taken
    // iteration and is never loaded on an untaken one. Row 6 holds its
    // diagonal, then at k = 1 column 4 or 7, whichever is taken (or not)
    // in this direction; x and val are cut to 3 and 1 elements.
    for (const bool taken : {true, false}) {
      SCOPED_TRACE(taken ? "taken" : "untaken");
      std::vector<std::vector<std::int32_t>> rows(9);
      rows[6] = {6, taken == backward ? 7 : 4};
      TriCols t(rows, base.order);
      t.di.assign(9, 0);
      for (const SpanRewrite& cut : {shorten(kX, 3), shorten(kVal, 1)}) {
        if (taken) {
          expectSameError(ir, t.args(), range, cut);
        } else {
          expectVmMatchesWalk(ir, t.args(), /*onVm=*/true, cut);
        }
      }
    }
    // Columns outside the whole tensor: 99 lies above every row, -1 below.
    const auto k = static_cast<std::size_t>(base.rp[3]) + 1;  // taken
    for (const std::int32_t c : {99, -1}) {
      SCOPED_TRACE("column " + std::to_string(c));
      TriCols t = base;
      t.col[k] = c;
      if (backward ? c > 3 : c < 3) {
        expectSameError(ir, t.args(), c < 0 ? negative : range);
      } else {
        expectVmMatchesWalk(ir, t.args());
      }
    }
    if (!backward) continue;
    // i past di's slice; di[i] outside val's slice, and outside val.
    expectSameError(ir, base.args(), range, shorten(kDi, 3));
    TriCols cut = base;
    for (std::int32_t& d : cut.di) d = 0;
    cut.di[5] = 1;
    expectSameError(ir, cut.args(), range, shorten(kVal, 1));
    for (const auto& [d, what] :
         {std::pair{1000, range}, std::pair{-1, negative}}) {
      TriCols t = base;
      t.di[5] = d;
      expectSameError(ir, t.args(), what);
    }
  }
}

TEST(TriangularRows, NonUnitStepRunsOnTheProgram) {
  // No row of a non-unit step has the native loop's unit step, so the whole
  // range runs on the program. Under step 2 every non-empty row skips a
  // taken entry, so a row run natively would differ from the walk's.
  for (const bool backward : {false, true}) {
    SCOPED_TRACE(backward ? "backward" : "forward");
    const CodeletIR ir = traceTriRows(backward, TriVariant::StepFromArg);
    ASSERT_TRUE(hasTriRows(ir, 1));
    std::vector<float> out[4];
    for (const std::int32_t step : {1, 2, 3}) {
      TriCols t = patternRows(backward, "NTTNT");
      t.steps = {step};
      out[step] = expectVmMatchesWalk(ir, t.args()).args.floats(0);
    }
    for (std::size_t i = 1; i + 1 < out[1].size(); ++i) {
      EXPECT_NE(out[1][i], out[2][i]) << "row " << i;
    }
    TriCols t = patternRows(backward, "NTTNT");
    t.steps = {0};
    expectSameError(ir, t.args(), "For loops require a positive step");
  }
}

TEST(TriangularRows, RowsDealtToOneFiveOrSevenWorkersMatchTheWalk) {
  // 15 rows of mixed lengths on pools of 1, 5 and 7 workers, whose spawn
  // shares 18/5 and 18/7 are inexact in binary: each worker's clock must
  // add the same row prices in the walk's order.
  for (const bool backward : {false, true}) {
    SCOPED_TRACE(backward ? "backward" : "forward");
    const CodeletIR ir = traceTriRows(backward);
    const TriCols t = mixedTriRows(backward, 15);
    for (const std::size_t workers : {1, 5, 7}) {
      SCOPED_TRACE(testing::Message() << workers << " workers");
      expectVmMatchesWalk(*compileCodelet(ir, ipu::CostModel{}, workers),
                          t.args());
    }
  }
}

TEST(TriangularRows, RowsOffTheShapeStayOnTheProgram) {
  for (const bool backward : {false, true}) {
    SCOPED_TRACE(backward ? "backward" : "forward");
    // acc outlives the row: the native row would leave it unset.
    const CodeletIR readAfter =
        traceTriRows(backward, TriVariant::AccReadAfter);
    EXPECT_TRUE(hasTriRows(readAfter, 0));
    expectVmMatchesWalk(readAfter, patternRows(backward, "NTTNT").args());
    // One op more than the shape: the native row would skip its check.
    const CodeletIR extra = traceTriRows(backward, TriVariant::ExtraLoad);
    EXPECT_TRUE(hasTriRows(extra, 0));
    TriCols t = patternRows(backward, "NTTNT");
    expectVmMatchesWalk(extra, t.args());
    t.x.resize(6);
    expectSameError(extra, t.args(), "tensor index out of range in codelet");
    // s is the worker id, which varies by row and which the native row never
    // writes: on 5 workers each row ends its run at rp[i + w] for its own w.
    const CodeletIR worker = readWorkerIdStraight(
        traceTriRows(backward, TriVariant::EndAtWorkerId));
    EXPECT_TRUE(hasTriRows(worker, 0));
    TriCols mixed = mixedTriRows(backward, 15);
    mixed.rp.insert(mixed.rp.end(), 4, mixed.rp.back());  // rp[i + w], w < 5
    expectVmMatchesWalk(*compileCodelet(worker, ipu::CostModel{}, 5),
                        mixed.args());
  }
}

// ---------------------------------------------------------------------------
// Native CSR rows: a two-run SpMV row runs as a native scalar loop priced in
// closed form, and must match the walk bit for bit on every run pattern, fail
// like it on every out-of-slice index, and leave every row off its shape to
// the program.
// ---------------------------------------------------------------------------

namespace {

/// Variants of traceCsrRows. Only Plain, HeadDFirst and HeadXFirst have the
/// native row's shape.
enum class CsrVariant {
  Plain,            // the head loads d[r] and x[r] in the compiler's order
  HeadDFirst,       // the head loads d[r], then x[r]
  HeadXFirst,       // the head loads x[r], then d[r]; the product is d * x
  ProductSwapped,   // the owned run multiplies x[c[k]] * a[k]
  HeadSquared,      // the head multiplies x[r] * x[r]; d[r] is loaded, unread
  OwnedFromRp,      // the runs are [rp[r], rp[r]) and [rp[r], rp[r + 1]);
                    // c[r] is loaded, unread
  GatherFromD,      // the owned run gathers d[c[k]]
  HaloValuesFromX,  // the halo run multiplies x[k]
  HaloColumnsFromRp,  // the halo run gathers h[rp[k] - owned]
  AccReadAfter,     // acc outlives the row: y[0] = acc after the ParFor
  OwnedReassigned,  // the halo run sets the owned count to c[k] - owned
  OwnedStepTwo,     // the owned run's step is 2
  HaloStepTwo,      // the halo run's step is 2
  RpPlusTwo,        // the halo run ends at rp[r + 2]
  DeadLoadTop,      // the row also loads x[r + 1000], which nothing reads,
  DeadLoadOwned,    // in the owned run's body
  DeadLoadHalo,     // or in the halo run's body
  OwnedIsWorkerId,  // the halo run gathers h[c[k] - WorkerId()]
};

/// The two-run CSR SpMV row of traceCsrSpmv():
///   acc = d[r] * x[r]
///   for k in [rp[r], sp[r]):    acc = acc + a[k] * x[c[k]]
///   for k in [sp[r], rp[r+1]):  acc = acc + a[k] * h[c[k] - owned]
///   y[r] = acc
/// The row range is an argument of its own, so that every slice the row
/// indexes by r can be cut short and the range can start anywhere. Args:
/// 0 y, 1 x, 2 h, 3 d, 4 a, 5 c, 6 rp, 7 sp, 8 n (rows n[1] .. n[0]).
CodeletIR traceCsrRows(CsrVariant variant = CsrVariant::Plain) {
  using V = CsrVariant;
  const DType F = DType::Float32, I = DType::Int32;
  return traceOnHandles(
      {F, F, F, F, F, I, I, I, I}, [&](std::vector<Value>& args) {
        Value yv = args[0], xv = args[1], hv = args[2], dv = args[3],
              av = args[4], cv = args[5], rp = args[6], sp = args[7],
              n = args[8];
        Value numOwned = xv.size();
        auto deadLoad = [&](V at, const Value& r) {
          if (variant == at) Value unused = xv[r + 1000];
        };
        auto step = [&](V at) { return Value(variant == at ? 2 : 1); };
        auto row = [&](const Value& r, Value& acc) {
          auto ownedRun = [&](const Value& begin, const Value& end) {
            For(begin, end, step(V::OwnedStepTwo), [&](Value k) {
              deadLoad(V::DeadLoadOwned, r);
              const Value& gathered = variant == V::GatherFromD ? dv : xv;
              if (variant == V::ProductSwapped) {
                acc = acc + Value(gathered[cv[k]]) * Value(av[k]);
              } else {
                acc = acc + Value(av[k]) * Value(gathered[cv[k]]);
              }
            });
          };
          if (variant == V::OwnedFromRp) {
            Value begin = rp[r];
            Value unused = cv[r];
            ownedRun(begin, begin);
          } else {
            ownedRun(rp[r], sp[r]);
          }
          For(variant == V::OwnedFromRp ? rp[r] : sp[r],
              rp[r + (variant == V::RpPlusTwo ? 2 : 1)], step(V::HaloStepTwo),
              [&](Value k) {
                deadLoad(V::DeadLoadHalo, r);
                if (variant == V::OwnedReassigned) {
                  numOwned = Value(cv[k]) - numOwned;
                  acc = acc + Value(av[k]) * Value(hv[numOwned]);
                  return;
                }
                if (variant == V::OwnedIsWorkerId) {
                  acc = acc +
                        Value(av[k]) * Value(hv[Value(cv[k]) - WorkerId()]);
                  return;
                }
                const Value& values = variant == V::HaloValuesFromX ? xv : av;
                const Value& cols = variant == V::HaloColumnsFromRp ? rp : cv;
                acc = acc +
                      Value(values[k]) * Value(hv[Value(cols[k]) - numOwned]);
              });
          yv[r] = acc;
        };
        // d[r] * x[r], assigned straight to the accumulator.
        auto head = [&](const Value& r) -> Value {
          if (variant == V::HeadDFirst || variant == V::HeadSquared) {
            Value dr = dv[r];
            Value xr = xv[r];
            return variant == V::HeadSquared ? xr * xr : dr * xr;
          }
          if (variant == V::HeadXFirst) {
            Value xr = xv[r];
            Value dr = dv[r];
            return dr * xr;
          }
          return Value(dv[r]) * Value(xv[r]);
        };
        if (variant == V::AccReadAfter) {
          Value acc = 0.0f;
          ParallelFor(Value(n[1]), Value(n[0]), [&](Value r) {
            acc = head(r);
            row(r, acc);
          });
          yv[0] = acc;
          return;
        }
        ParallelFor(Value(n[1]), Value(n[0]), [&](Value r) {
          deadLoad(V::DeadLoadTop, r);
          Value acc = head(r);
          row(r, acc);
        });
      });
}

/// The owned-column run and the halo run of one CSR row.
struct CsrRuns {
  std::vector<std::int32_t> owned;  // columns below the owned count
  std::vector<std::int32_t> halo;   // halo slots
};

/// traceCsrRows' argument columns for a tile owning xSize columns: row r
/// holds the columns rows[r].owned, then the halo slots rows[r].halo (column
/// xSize + slot) of a halo of kHalo values.
struct CsrCols {
  static constexpr std::int32_t kHalo = 5;
  std::vector<float> y, x, h, d, a;
  std::vector<std::int32_t> c, rp{0}, sp, n;

  explicit CsrCols(const std::vector<CsrRuns>& rows, std::size_t xSize = 6) {
    for (const CsrRuns& r : rows) {
      c.insert(c.end(), r.owned.begin(), r.owned.end());
      sp.push_back(static_cast<std::int32_t>(c.size()));
      for (const std::int32_t s : r.halo) {
        c.push_back(static_cast<std::int32_t>(xSize) + s);
      }
      rp.push_back(static_cast<std::int32_t>(c.size()));
    }
    y.assign(rows.size(), -1.0f);
    x = ramp(xSize, -0.75f, 0.3f);
    h = ramp(kHalo, 1.1f, -0.45f);
    d = ramp(rows.size(), 2.2f, 0.15f);
    a = ramp(c.size(), 0.35f, 0.1f);
    n = {static_cast<std::int32_t>(rows.size()), 0};
  }

  HostArgs args() const {
    HostArgs out;
    for (const std::vector<float>* f : {&y, &x, &h, &d, &a}) out.addFloat(*f);
    for (const std::vector<std::int32_t>* i : {&c, &rp, &sp, &n}) {
      out.addInt(*i);
    }
    return out;
  }
};

/// Six rows: both runs non-empty, both empty, an empty halo run, an empty
/// owned run, and several entries in each.
const std::vector<CsrRuns> kCsrPatterns = {
    {{0, 2}, {1}},  {{}, {}},  {{1, 3, 5}, {}}, {{}, {0, 4}},
    {{4, 1, 0}, {2, 3, 1}},    {{5}, {4}}};

bool hasCsrRows(const CodeletIR& ir, int n) {
  const std::string shape = codeletShape(*compileForTest(ir));
  return shape.find(" csr=" + std::to_string(n) + " ") != std::string::npos;
}

/// `n` rows of mixed run lengths over `n` owned columns: row r holds r % 4
/// owned entries and (r + 1) % 3 halo entries.
CsrCols mixedCsrRows(std::size_t n) {
  std::vector<CsrRuns> rows(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < r % 4; ++j) {
      rows[r].owned.push_back(static_cast<std::int32_t>((r + 5 * j) % n));
    }
    for (std::size_t j = 0; j < (r + 1) % 3; ++j) {
      rows[r].halo.push_back(static_cast<std::int32_t>((r + j) % 5));
    }
  }
  return CsrCols(rows, n);
}

}  // namespace

TEST(CsrRows, EveryRunPatternMatchesTheWalk) {
  // Each pattern alone, so that the VertexCost is that row's cost, then all
  // six rows in one tile; the head's loads in either order.
  using V = CsrVariant;
  for (const auto& [variant, name] :
       {std::pair{V::Plain, "plain"}, std::pair{V::HeadDFirst, "d first"},
        std::pair{V::HeadXFirst, "x first"}}) {
    SCOPED_TRACE(name);
    const CodeletIR ir = traceCsrRows(variant);
    ASSERT_TRUE(hasCsrRows(ir, 1));
    for (const CsrRuns& runs : kCsrPatterns) {
      SCOPED_TRACE(testing::Message() << runs.owned.size() << " owned, "
                                      << runs.halo.size() << " halo");
      expectVmMatchesWalk(ir, CsrCols({runs}).args());
    }
    expectVmMatchesWalk(ir, CsrCols(kCsrPatterns).args());
    // A halo entry costs its extra subtraction: three owned entries and
    // three halo entries are priced apart.
    const RunResult owned = expectVmMatchesWalk(ir, CsrCols({{{0, 1, 2}, {}}}).args());
    const RunResult halo = expectVmMatchesWalk(ir, CsrCols({{{}, {0, 1, 2}}}).args());
    EXPECT_NE(owned.cost.workerCycles, halo.cost.workerCycles);
  }
}

TEST(CsrRows, OutOfSliceIndicesReportTheWalksError) {
  // Every index the row reads or writes through, checked on the native row
  // and reported by the program it hands the row back to. A slice is cut
  // short by rebinding its span, so the memory past it stays readable, as a
  // neighbouring tile's region would be: a skipped check would go unseen.
  const std::string range = "tensor index out of range in codelet";
  const std::string negative = "negative tensor index in codelet";
  enum Arg { kY, kX, kH, kD, kA, kC, kRp, kSp };
  auto shorten = [](Arg arg, std::size_t size) -> SpanRewrite {
    return [=](std::vector<graph::ArgSpan>& s) { s[arg].size = size; };
  };
  const CodeletIR ir = traceCsrRows();
  const CsrCols base(kCsrPatterns);
  // The last row's y, d, x and sp; rp at row 0, and rp[r + 1] at the last
  // row.
  for (const Arg arg : {kY, kD, kX, kSp}) {
    SCOPED_TRACE(testing::Message() << "arg " << arg);
    expectSameError(ir, base.args(), range, shorten(arg, 5));
  }
  expectSameError(ir, base.args(), range, shorten(kRp, 0));
  expectSameError(ir, base.args(), range, shorten(kRp, 6));
  // c and a at row 2's second owned entry and at row 4's second halo entry.
  const auto owned = static_cast<std::size_t>(base.rp[2]) + 1;
  const auto halo = static_cast<std::size_t>(base.sp[4]) + 1;
  for (const std::size_t k : {owned, halo}) {
    for (const Arg arg : {kC, kA}) {
      SCOPED_TRACE(testing::Message() << "arg " << arg << " cut at " << k);
      expectSameError(ir, base.args(), range, shorten(arg, k));
    }
  }
  // An owned column past x's slice, and a negative one.
  CsrCols past = base;
  past.x.push_back(0.5f);
  past.c[owned] = 6;
  expectSameError(ir, past.args(), range, shorten(kX, 6));
  CsrCols below = base;
  below.c[owned] = -1;
  expectSameError(ir, below.args(), negative);
  // A halo column past h's slice, and one below the owned count.
  past = base;
  past.h.push_back(0.5f);
  past.c[halo] = 6 + CsrCols::kHalo;
  expectSameError(ir, past.args(), range, shorten(kH, CsrCols::kHalo));
  below = base;
  below.c[halo] = 5;
  expectSameError(ir, below.args(), negative);
  // A split below the row's start: the halo run then reads row 0's owned
  // column 3, and nothing past the split.
  CsrCols split({{{3}, {1}}, {{}, {}}});
  split.rp[0] = 1;
  split.sp[0] = 0;
  expectSameError(ir, split.args(), negative);
}

TEST(CsrRows, RangeStopsAtTheFirstRowItCannotRun) {
  // A planned ParFor's rows run natively in one pass up to the first row
  // that cannot run; the program runs that row and reports the walk's error.
  // The rows before it hold the walk's bits, and the rows from it on stay
  // unwritten. Slices are cut short by rebinding their spans, so a range
  // that ran past its clamp would read on, unseen.
  const std::string range = "tensor index out of range in codelet";
  const std::string negative = "negative tensor index in codelet";
  enum Arg { kY, kX, kH, kD, kA, kC, kRp, kSp };
  const CodeletIR ir = traceCsrRows();
  constexpr std::size_t kRows = 13, kMiddle = 6;
  const CsrCols base = mixedCsrRows(kRows);
  auto expectStopsAt = [&](const CsrCols& cols, std::size_t stop,
                           const std::string& what,
                           const SpanRewrite& rewrite = {}) {
    const std::array<HostArgs, 2> left =
        expectSameError(ir, cols.args(), what, rewrite);
    EXPECT_EQ(left[0].bits(), left[1].bits());
    for (std::size_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(left[0].floats(kY)[r] != -1.0f, r < stop) << "row " << r;
    }
  };
  // d, sp or rp ends two rows before y.
  for (const auto& [arg, size] :
       {std::pair{kD, kRows - 2}, std::pair{kSp, kRows - 2},
        std::pair{kRp, kRows - 1}}) {
    SCOPED_TRACE(testing::Message() << "arg " << arg << " cut to " << size);
    expectStopsAt(base, kRows - 2, range,
                  [=](std::vector<graph::ArgSpan>& s) { s[arg].size = size; });
  }
  // The range starts at row -1.
  CsrCols early = base;
  early.n[1] = -1;
  expectStopsAt(early, 0, negative);
  // The middle row gathers an owned column past x, or a halo column below
  // the owned count (row 6 holds two owned entries, then one halo entry).
  ASSERT_EQ(base.sp[kMiddle] - base.rp[kMiddle], 2);
  ASSERT_EQ(base.rp[kMiddle + 1] - base.sp[kMiddle], 1);
  CsrCols bad = base;
  bad.c[static_cast<std::size_t>(base.rp[kMiddle]) + 1] = kRows;
  expectStopsAt(bad, kMiddle, range);
  bad = base;
  bad.c[static_cast<std::size_t>(base.sp[kMiddle])] = kRows - 1;
  expectStopsAt(bad, kMiddle, negative);
}

TEST(CsrRows, RowsDealtToOneFiveOrSevenWorkersMatchTheWalk) {
  // 15 rows of mixed run lengths on pools of 1, 5 and 7 workers. The
  // spawn shares 18/5 and 18/7 are inexact in binary, so each worker's
  // clock must add the same row prices in the walk's order.
  const CodeletIR ir = traceCsrRows();
  const CsrCols cols = mixedCsrRows(15);
  for (const std::size_t workers : {1, 5, 7}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    expectVmMatchesWalk(*compileCodelet(ir, ipu::CostModel{}, workers),
                        cols.args());
  }
}

TEST(CsrRows, RowsOffTheShapeStayOnTheProgram) {
  using V = CsrVariant;
  const std::string range = "tensor index out of range in codelet";
  // Off the shape, each for its own reason: the native row would compute
  // another product order, gather from x, leave acc unset, run unit steps,
  // or read the owned count once.
  for (const auto& [variant, name] :
       {std::pair{V::ProductSwapped, "product swapped"},
        std::pair{V::GatherFromD, "gathering d"},
        std::pair{V::AccReadAfter, "acc read after"},
        std::pair{V::OwnedStepTwo, "owned step 2"},
        std::pair{V::HaloStepTwo, "halo step 2"}}) {
    SCOPED_TRACE(name);
    const CodeletIR ir = traceCsrRows(variant);
    EXPECT_TRUE(hasCsrRows(ir, 0));
    expectVmMatchesWalk(ir, CsrCols(kCsrPatterns).args());
  }
  // The owned count follows the halo entries (6, then 10 - 6, 8 - 4,
  // 6 - 4 and 6 - 2), each inside the halo.
  const CodeletIR reassigned = traceCsrRows(V::OwnedReassigned);
  EXPECT_TRUE(hasCsrRows(reassigned, 0));
  expectVmMatchesWalk(
      reassigned,
      CsrCols({{{0, 2}, {4}}, {{}, {}}, {{3}, {2, 0}}, {{1}, {0}}}).args());
  // The native row would multiply by a[k], not by x[k]: five entries, so
  // that x[k] stays inside x.
  const CodeletIR fromX = traceCsrRows(V::HaloValuesFromX);
  EXPECT_TRUE(hasCsrRows(fromX, 0));
  expectVmMatchesWalk(fromX, CsrCols({{{0}, {1}}, {{}, {2}}, {{1}, {}},
                                      {{}, {0}}, {{}, {}}, {{}, {}}})
                                 .args());
  // The native row would gather h[c[k] - owned]. One row over a one-column
  // x, behind a spare leading entry, so that rp[1] - 1 is a halo slot.
  const CodeletIR fromRp = traceCsrRows(V::HaloColumnsFromRp);
  EXPECT_TRUE(hasCsrRows(fromRp, 0));
  CsrCols spare({{{}, {3}}}, 1);
  spare.c.insert(spare.c.begin(), 0);
  spare.a.insert(spare.a.begin(), 0.75f);
  for (std::int32_t* p : {&spare.rp[0], &spare.rp[1], &spare.sp[0]}) ++*p;
  expectVmMatchesWalk(fromRp, spare.args());
  // The halo run subtracts the worker id, which varies by row and which the
  // native row never writes: on 5 workers each row gathers h[c[k] - w] for
  // its own w. h holds every slot c[k] - w reaches.
  const CodeletIR worker =
      readWorkerIdStraight(traceCsrRows(V::OwnedIsWorkerId));
  EXPECT_TRUE(hasCsrRows(worker, 0));
  CsrCols mixed = mixedCsrRows(13);
  mixed.h = ramp(mixed.x.size() + CsrCols::kHalo, 1.1f, -0.45f);
  expectVmMatchesWalk(*compileCodelet(worker, ipu::CostModel{}, 5),
                      mixed.args());
  // rp[r + 2] reaches into the next row: rows of halo entries only, and a
  // spare row pointer.
  const CodeletIR rpPlusTwo = traceCsrRows(V::RpPlusTwo);
  EXPECT_TRUE(hasCsrRows(rpPlusTwo, 0));
  CsrCols haloOnly({{{}, {1}}, {{}, {0, 4}}, {{}, {}}, {{}, {3, 2}}});
  haloOnly.rp.push_back(haloOnly.rp.back());
  expectVmMatchesWalk(rpPlusTwo, haloOnly.args());
  // One load more than the shape, at the row's top or in either run's
  // body: the native row would skip its bounds check.
  for (const auto& [variant, name] :
       {std::pair{V::DeadLoadTop, "dead load at the top"},
        std::pair{V::DeadLoadOwned, "dead load in the owned run"},
        std::pair{V::DeadLoadHalo, "dead load in the halo run"}}) {
    SCOPED_TRACE(name);
    const CodeletIR ir = traceCsrRows(variant);
    EXPECT_TRUE(hasCsrRows(ir, 0));
    expectVmMatchesWalk(ir, CsrCols(kCsrPatterns, 6 + 1000).args());
    expectSameError(ir, CsrCols(kCsrPatterns).args(), range);
  }
  // The same for a load whose register the row reads, but whose consumer
  // takes another load's twice: x[r] * x[r] leaves d[r] unread (d is cut
  // short), and the owned run [rp[r], rp[r]) leaves c[r] unread (c holds
  // five entries for six rows).
  const CodeletIR squared = traceCsrRows(V::HeadSquared);
  EXPECT_TRUE(hasCsrRows(squared, 0));
  expectVmMatchesWalk(squared, CsrCols(kCsrPatterns).args());
  expectSameError(squared, CsrCols(kCsrPatterns).args(), range,
                  [](std::vector<graph::ArgSpan>& s) { s[3].size = 5; });
  const CodeletIR fromRpOnly = traceCsrRows(V::OwnedFromRp);
  EXPECT_TRUE(hasCsrRows(fromRpOnly, 0));
  expectVmMatchesWalk(fromRpOnly, CsrCols({{{}, {1}}, {{}, {0, 3}}, {{}, {4}},
                                           {{}, {2}}, {{}, {}}, {{}, {1}}})
                                      .args());
  expectSameError(fromRpOnly,
                  CsrCols({{{}, {1}}, {{}, {0, 3}}, {{}, {4}}, {{}, {2}},
                           {{}, {}}, {{}, {}}})
                      .args(),
                  range);
}

// ---------------------------------------------------------------------------
// Compile passes. The compiler shares a copy's register with its source,
// produces values straight into their homes, pools constants, fuses an If's
// int comparison into its branch and deletes ops nothing reads. Each codelet
// below is a case one of those passes' guards exists for.
// ---------------------------------------------------------------------------

TEST(CompilePasses, TakeOverLeavesAPooledConstantAlone) {
  // `acc` is first assigned a copy of the constant 1 that nothing else
  // reads. It must not take over the register 1 lives in: `out[1]` indexes
  // with it.
  CodeletBuilder builder;
  builder.setNumArgs(1);
  Value out = Value::argument(0, DType::Int32);
  Value one = 1;
  Value acc = one;
  acc = acc + 5;
  out[0] = acc;
  out[1] = 1;
  HostArgs args;
  args.addInt({0, 0});
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  EXPECT_EQ(vm.args.ints(0), (std::vector<std::int32_t>{6, 1}));
}

TEST(CompilePasses, TakeOverLeavesTheInductionRegisterAlone) {
  // The body copies its induction variable into a variable it reassigns:
  // sharing the induction register would step the loop twice per pass.
  CodeletBuilder builder;
  builder.setNumArgs(1);
  Value out = Value::argument(0, DType::Int32);
  Value acc = 0;
  For(0, 10, 1, [&](Value i) {
    Value j = i;
    j = j + 1;
    If(j > 0, [&] { acc = acc + j; });
  });
  out[0] = acc;
  HostArgs args;
  args.addInt({0});
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  EXPECT_EQ(vm.args.ints(0)[0], 55);
}

TEST(CompilePasses, TakeOverOnlyWithinTheSourcesLoop) {
  // `s` is defined before the loop and read only by `t = s`. `t` may not
  // take s's register over: the loop reassigns t, and every pass copies s.
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  Value s = x[0];
  For(0, out.size(), 1, [&](Value i) {
    Value t = s;
    t = t * 2.0f;
    out[i] = t;
  });
  HostArgs args;
  args.addFloat(std::vector<float>(4, 0.0f));
  args.addFloat({1.5f});
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  EXPECT_EQ(vm.args.floats(0), std::vector<float>(4, 3.0f));
}

TEST(CompilePasses, CopyOfAVariableReassignedLaterKeepsItsValue) {
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  Value a = x[0];
  Value b = a;
  a = a * 2.0f;
  out[0] = b;
  out[1] = a;
  HostArgs args;
  args.addFloat({0.0f, 0.0f});
  args.addFloat({1.5f});
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  EXPECT_EQ(vm.args.floats(0), (std::vector<float>{1.5f, 3.0f}));
}

TEST(CompilePasses, ProducerOfAnAliasedValueIsNotRetargeted) {
  // `b` shares a's register, and `acc = b` reads b only once; the load must
  // still write a's register, which `out[1]` reads.
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  Value acc = 0.0f;
  Value a = x[0];
  Value b = a;
  acc = b;
  out[0] = acc;
  out[1] = a;
  HostArgs args;
  args.addFloat({0.0f, 0.0f});
  args.addFloat({1.2345f});
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  EXPECT_EQ(vm.args.floats(0), (std::vector<float>{1.2345f, 1.2345f}));
}

TEST(CompilePasses, LoopEndReassignedInTheBodyKeepsItsSnapshot) {
  // The walk evaluates a For's end once. The body lowers the variable the
  // end was read from, so the loop must run on a snapshot of it.
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value out = Value::argument(0, DType::Int32);
  Value lim = Value::argument(1, DType::Int32);
  Value n = lim[0];
  Value count = 0;
  For(0, n, 1, [&](Value i) {
    If(i < n, [&] { count = count + 1; });
    n = n - 1;
  });
  out[0] = count;
  out[1] = n;
  HostArgs args;
  args.addInt({0, 0});
  args.addInt({6});
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  EXPECT_EQ(vm.args.ints(0), (std::vector<std::int32_t>{3, 0}));
}

TEST(CompilePasses, WorkerIdCopiesFollowTheirRow) {
  // Register 0 holds the worker id and changes with every ParFor row. A copy
  // made before the rows keeps worker 0's id; one made in a row follows it.
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value before = Value::argument(0, DType::Int32);
  Value inRow = Value::argument(1, DType::Int32);
  Value w = WorkerId();
  Value wCopy = w;
  ParallelFor(0, inRow.size(), [&](Value r) {
    Value v = WorkerId();
    Value vCopy = v;
    before[r] = wCopy * 100 + r;
    inRow[r] = vCopy * 100 + r;
  });
  constexpr std::size_t kRows = 8;
  HostArgs args;
  args.addInt(std::vector<std::int32_t>(kRows, -1));
  args.addInt(std::vector<std::int32_t>(kRows, -1));
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto row = static_cast<std::int32_t>(r);
    EXPECT_EQ(vm.args.ints(0)[r], row) << "row " << r;
    EXPECT_EQ(vm.args.ints(1)[r], static_cast<std::int32_t>(r % 6) * 100 + row)
        << "row " << r;
  }
}

TEST(CompilePasses, VariableReadBeforeItsOnlyAssignmentIsNotAliased) {
  // IR the DSL cannot trace directly: `c = v` reads v before v's only
  // assignment, so c holds the walk's Float32 zero while v's register then
  // takes the load. `d = v` after the assignment copies the loaded value.
  CodeletBuilder builder;
  builder.setNumArgs(2);
  Value out = Value::argument(0, DType::Float32);
  Value x = Value::argument(1, DType::Float32);
  Value v = x[0];
  Value c = v;
  Value d = v;
  out[0] = c;
  out[1] = d;
  CodeletIR ir = builder.finish();
  // The trace is `i0 = 0; v = x[i0]; c = v; d = v; ...`: move c = v first.
  std::swap(ir.statements[1], ir.statements[2]);
  ASSERT_EQ(ir.statements[1]->value->kind, Expr::Kind::Var);
  ASSERT_EQ(ir.statements[2]->value->kind, Expr::Kind::ArgLoad);
  HostArgs args;
  args.addFloat({-1.0f, -1.0f});
  args.addFloat({2.5f});
  const RunResult vm = expectVmMatchesWalk(ir, args);
  EXPECT_EQ(vm.args.floats(0), (std::vector<float>{0.0f, 2.5f}));
}

TEST(CompilePasses, DeadLoadStillChecksItsIndex) {
  // Nothing reads the load, but the walk throws on its index: so must the VM.
  // In the loop, the kernel is a copy plus that load, and the blocked VM
  // must check the load's span before it runs the copy in lanes.
  for (const bool inLoop : {false, true}) {
    CodeletBuilder builder;
    builder.setNumArgs(3);
    Value out = Value::argument(0, DType::Float32);
    Value x = Value::argument(1, DType::Float32);
    Value y = Value::argument(2, DType::Float32);
    if (inLoop) {
      For(0, out.size(), 1, [&](Value i) {
        Value unused = y[i];
        out[i] = x[i];
      });
    } else {
      Value unused = x[5];
      out[0] = 1.0f;
    }
    HostArgs args;
    args.addFloat({0.0f, 0.0f, 0.0f});
    args.addFloat({1.0f, 2.0f, 3.0f});
    args.addFloat({4.0f, 5.0f});
    SCOPED_TRACE(inLoop ? "in a loop kernel" : "in the program");
    expectSameError(builder.finish(), args,
                    "tensor index out of range in codelet");
  }
}

TEST(CompilePasses, DeadDivisionStillChecksItsDivisor) {
  for (const bool modulo : {false, true}) {
    CodeletBuilder builder;
    builder.setNumArgs(2);
    Value out = Value::argument(0, DType::Int32);
    Value a = Value::argument(1, DType::Int32);
    Value unused = modulo ? Value(a[0]) % Value(a[1]) : Value(a[0]) / Value(a[1]);
    out[0] = 1;
    HostArgs args;
    args.addInt({0});
    args.addInt({7, 0});
    expectSameError(builder.finish(), args,
                    modulo ? "integer modulo by zero in codelet"
                           : "integer division by zero in codelet");
  }
}

TEST(CompilePasses, IfOnEachIntComparisonMatchesTheWalk) {
  // Each comparison fuses into its If's branch. Rows cover a < b, a == b and
  // a > b, so every If is taken and not taken.
  using Cmp = std::function<Value(const Value&, const Value&)>;
  using Ref = std::function<bool(std::int32_t, std::int32_t)>;
  const std::vector<std::tuple<const char*, Cmp, Ref>> cmps = {
      {"<", [](const Value& a, const Value& b) { return a < b; },
       [](std::int32_t a, std::int32_t b) { return a < b; }},
      {"<=", [](const Value& a, const Value& b) { return a <= b; },
       [](std::int32_t a, std::int32_t b) { return a <= b; }},
      {">", [](const Value& a, const Value& b) { return a > b; },
       [](std::int32_t a, std::int32_t b) { return a > b; }},
      {">=", [](const Value& a, const Value& b) { return a >= b; },
       [](std::int32_t a, std::int32_t b) { return a >= b; }},
      {"==", [](const Value& a, const Value& b) { return a == b; },
       [](std::int32_t a, std::int32_t b) { return a == b; }},
      {"!=", [](const Value& a, const Value& b) { return a != b; },
       [](std::int32_t a, std::int32_t b) { return a != b; }}};
  const std::vector<std::int32_t> as = {1, 2, 3, -4, 5, 0};
  const std::vector<std::int32_t> bs = {2, 2, 1, -4, -5, 0};
  for (const auto& [name, cmp, ref] : cmps) {
    for (const bool withElse : {false, true}) {
      CodeletBuilder builder;
      builder.setNumArgs(3);
      Value a = Value::argument(0, DType::Int32);
      Value b = Value::argument(1, DType::Int32);
      Value out = Value::argument(2, DType::Int32);
      For(0, out.size(), 1, [&](Value i) {
        Value ai = a[i];
        Value bi = b[i];
        std::function<void()> otherwise;
        if (withElse) otherwise = [&] { out[i] = ai - bi; };
        If(cmp(ai, bi), [&] { out[i] = ai + bi; }, otherwise);
      });
      HostArgs args;
      args.addInt(as);
      args.addInt(bs);
      args.addInt(std::vector<std::int32_t>(as.size(), 100));
      SCOPED_TRACE(std::string(name) + (withElse ? " with else" : ""));
      const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
      for (std::size_t r = 0; r < as.size(); ++r) {
        const std::int32_t want = ref(as[r], bs[r])
                                      ? as[r] + bs[r]
                                      : (withElse ? as[r] - bs[r] : 100);
        EXPECT_EQ(vm.args.ints(2)[r], want) << "row " << r;
      }
    }
  }
}

TEST(CompilePasses, ComparisonOverwritingItsOperandIsNotFused) {
  // `flag = flag < b[i]` produces the comparison straight into flag's home,
  // one of its own operands. Branching on a fused comparison would compare
  // the overwritten flag again.
  CodeletBuilder builder;
  builder.setNumArgs(3);
  Value a = Value::argument(0, DType::Int32);
  Value b = Value::argument(1, DType::Int32);
  Value out = Value::argument(2, DType::Int32);
  For(0, out.size(), 1, [&](Value i) {
    Value flag = a[i];
    flag = flag < Value(b[i]);
    If(flag, [&] { out[i] = 1; }, [&] { out[i] = 2; });
  });
  HostArgs args;
  args.addInt({1, 5, 3, 0});
  args.addInt({2, 2, 3, 9});
  args.addInt(std::vector<std::int32_t>(4, -1));
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  EXPECT_EQ(vm.args.ints(2), (std::vector<std::int32_t>{1, 2, 2, 1}));
}

TEST(CompilePasses, SelectResultsLandInOnceAndReassignedVariables) {
  CodeletBuilder builder;
  builder.setNumArgs(4);
  Value flags = Value::argument(0, DType::Int32);
  Value x = Value::argument(1, DType::Float32);
  Value y = Value::argument(2, DType::Float32);
  Value out = Value::argument(3, DType::Float32);
  For(0, out.size(), 1, [&](Value i) {
    Value f = flags[i];
    Value once = Select(f > 0, x[i], y[i]);
    Value again = 0.0f;
    again = Select(f > 1, y[i], x[i]);
    out[i] = once * 10.0f + again;
  });
  HostArgs args;
  args.addInt({0, 1, 2, 1, 0});
  args.addFloat(ramp(5, 1.0f, 1.0f));
  args.addFloat(ramp(5, -1.0f, -1.0f));
  args.addFloat(std::vector<float>(5, 0.0f));
  const RunResult vm = expectVmMatchesWalk(builder.finish(), args);
  EXPECT_EQ(vm.args.floats(3),
            (std::vector<float>{-9.0f, 22.0f, 27.0f, 44.0f, -45.0f}));
}

TEST(CompilePasses, OpCountsOfTheSolversHotCodelets) {
  // Program plus lifted-kernel ops. Each comment gives the count before the
  // compile passes.
  // An elementwise fill, as Tensor assignment traces it (was 9 + 4).
  const CodeletIR fill =
      traceOnHandles({DType::Float32}, [](std::vector<Value>& handles) {
        Value dst = handles[0];
        For(0, dst.size(), 1, [&](Value i) { dst[i] = Value(0.0f); });
      });
  EXPECT_EQ(codeletOpCount(*compileForTest(fill)), 4u);
  // The two-run CSR SpMV DistMatrix::spmv emits (was 64).
  EXPECT_EQ(codeletOpCount(*compileForTest(traceCsrSpmv())), 29u);
  // The ILU(0) substitution IluSolver::apply emits as `ilu_solve` (was 116).
  EXPECT_EQ(codeletOpCount(*compileForTest(traceIluSolve())), 52u);
}
