#include "dsl/interpreter.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <bitset>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>

// A blocked loop kernel checks its spans for aliasing at run time
// (blockedRangeOk), so its elementwise loads and stores can promise no-alias
// to the auto-vectorizer (the build keeps -ffp-contract=off, so vectorized
// lanes stay bit-identical to the scalar walk: elementwise float ops, no FMA
// contraction, no reassociation).
#if defined(__GNUC__) || defined(__clang__)
#define GRAPHENE_RESTRICT __restrict__
#else
#define GRAPHENE_RESTRICT
#endif

#include "ipu/worker_pool.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace graphene::dsl {

using graph::promote;
using twofloat::Float2;
using twofloat::SoftDouble;

namespace {

template <typename T>
Scalar binNumeric(BinOp op, T a, T b) {
  switch (op) {
    case BinOp::Add: return Scalar(a + b);
    case BinOp::Sub: return Scalar(a - b);
    case BinOp::Mul: return Scalar(a * b);
    case BinOp::Div: return Scalar(a / b);
    case BinOp::Lt: return Scalar(a < b);
    case BinOp::Le: return Scalar(a <= b);
    case BinOp::Gt: return Scalar(a > b);
    case BinOp::Ge: return Scalar(a >= b);
    case BinOp::Eq: return Scalar(a == b);
    case BinOp::Ne: return Scalar(!(a == b));
    case BinOp::Min: return Scalar(b < a ? b : a);
    case BinOp::Max: return Scalar(a < b ? b : a);
    default: break;
  }
  GRAPHENE_UNREACHABLE("binary op not defined for this type");
}

}  // namespace

Scalar evalBinaryScalar(BinOp op, const Scalar& lhs, const Scalar& rhs) {
  DType common = promote(lhs.type(), rhs.type());
  // Logic ops work on bools without promotion.
  if (op == BinOp::And || op == BinOp::Or) {
    bool a = lhs.truthy(), b = rhs.truthy();
    return Scalar(op == BinOp::And ? (a && b) : (a || b));
  }
  if (common == DType::Bool) common = DType::Int32;  // bool arithmetic
  Scalar a = lhs.castTo(common);
  Scalar b = rhs.castTo(common);
  switch (common) {
    case DType::Int32: {
      if (op == BinOp::Mod) {
        GRAPHENE_CHECK(b.asInt() != 0, "integer modulo by zero in codelet");
        return Scalar(a.asInt() % b.asInt());
      }
      if (op == BinOp::Div) {
        GRAPHENE_CHECK(b.asInt() != 0, "integer division by zero in codelet");
      }
      return binNumeric<std::int32_t>(op, a.asInt(), b.asInt());
    }
    case DType::Float32:
      GRAPHENE_CHECK(op != BinOp::Mod, "modulo needs integer operands");
      return binNumeric<float>(op, a.asFloat(), b.asFloat());
    case DType::Float64:
      GRAPHENE_CHECK(op != BinOp::Mod, "modulo needs integer operands");
      return binNumeric<SoftDouble>(op, a.asSoftDouble(), b.asSoftDouble());
    case DType::DoubleWord:
      GRAPHENE_CHECK(op != BinOp::Mod, "modulo needs integer operands");
      return binNumeric<Float2>(op, a.asDoubleWord(), b.asDoubleWord());
    default:
      break;
  }
  GRAPHENE_UNREACHABLE("bad promoted type");
}

Scalar evalUnaryScalar(UnOp op, const Scalar& x) {
  switch (op) {
    case UnOp::Not:
      return Scalar(!x.truthy());
    case UnOp::Neg:
      switch (x.type()) {
        case DType::Bool:
        case DType::Int32: return Scalar(-x.castTo(DType::Int32).asInt());
        case DType::Float32: return Scalar(-x.asFloat());
        case DType::Float64: return Scalar(-x.asSoftDouble());
        case DType::DoubleWord: return Scalar(-x.asDoubleWord());
      }
      break;
    case UnOp::Abs:
      switch (x.type()) {
        case DType::Bool:
        case DType::Int32: {
          std::int32_t v = x.castTo(DType::Int32).asInt();
          return Scalar(v < 0 ? -v : v);
        }
        case DType::Float32: return Scalar(std::fabs(x.asFloat()));
        case DType::Float64: return Scalar(SoftDouble::abs(x.asSoftDouble()));
        case DType::DoubleWord: return Scalar(twofloat::abs(x.asDoubleWord()));
      }
      break;
    case UnOp::Sqrt:
      switch (x.type()) {
        case DType::Bool:
        case DType::Int32:
        case DType::Float32:
          return Scalar(std::sqrt(x.castTo(DType::Float32).asFloat()));
        case DType::Float64: return Scalar(SoftDouble::sqrt(x.asSoftDouble()));
        case DType::DoubleWord: return Scalar(twofloat::sqrt(x.asDoubleWord()));
      }
      break;
  }
  GRAPHENE_UNREACHABLE("bad unary op");
}

// ---------------------------------------------------------------------------
// Flattening: shared_ptr statement trees → index-linked arrays.
// ---------------------------------------------------------------------------

namespace {

class Flattener {
 public:
  explicit Flattener(FlatCodelet& out) : out_(out) {}

  std::int32_t expr(const ExprPtr& e) {
    if (!e) return -1;
    FlatExpr fe;
    fe.kind = e->kind;
    fe.type = e->type;
    fe.constant = e->constant;
    fe.var = e->var;
    fe.arg = e->arg;
    fe.bop = e->bop;
    fe.uop = e->uop;
    fe.a = expr(e->a);
    fe.b = expr(e->b);
    fe.c = expr(e->c);
    out_.exprs.push_back(fe);
    return static_cast<std::int32_t>(out_.exprs.size()) - 1;
  }

  std::int32_t list(const StmtList& stmts) {
    std::vector<std::int32_t> ids;
    ids.reserve(stmts.size());
    for (const StmtPtr& s : stmts) ids.push_back(stmt(*s));
    out_.lists.push_back(std::move(ids));
    return static_cast<std::int32_t>(out_.lists.size()) - 1;
  }

  std::int32_t stmt(const Stmt& s) {
    FlatStmt fs;
    fs.kind = s.kind;
    fs.var = s.var;
    fs.arg = s.arg;
    fs.type = s.type;
    fs.index = expr(s.index);
    fs.value = expr(s.value);
    fs.cond = expr(s.cond);
    fs.begin = expr(s.begin);
    fs.end = expr(s.end);
    fs.step = expr(s.step);
    const bool hasBody = s.kind == Stmt::Kind::If || s.kind == Stmt::Kind::While ||
                         s.kind == Stmt::Kind::For || s.kind == Stmt::Kind::ParFor;
    fs.body = hasBody ? list(s.body) : -1;
    fs.elseBody = s.kind == Stmt::Kind::If ? list(s.elseBody) : -1;
    out_.stmts.push_back(fs);
    return static_cast<std::int32_t>(out_.stmts.size()) - 1;
  }

 private:
  FlatCodelet& out_;
};

}  // namespace

FlatCodelet flattenCodelet(const CodeletIR& ir) {
  FlatCodelet out;
  out.numVars = ir.numVars;
  out.usesWorkers = ir.usesWorkers;
  out.numArgs = ir.numArgs;
  Flattener f(out);
  out.root = f.list(ir.statements);
  return out;
}

// ---------------------------------------------------------------------------
// The register VM. Every codelet compiles to one Program: a flat vector of
// ops over four register files — int32 (bools live there as 0/1), float32,
// double-word pairs and float64 — with jumps for its control flow. A vertex
// runs its whole codelet on the VM, or, when the program's argument dtypes
// do not hold for it (decided once per vertex when the engine builds its
// plan) or the codelet did not compile, whole on the generic statement walk.
//
// Cycle accounting reproduces the walk exactly. The walk accumulates each
// op's charge into an open lane block (fp/mem dual issue) and closes the
// block at control flow. The compiler prices every op at compile time and
// attaches the lane sums of each straight-line run to the control op that
// ends it (VmOp::run); executing a control op adds its run to the open block
// and closes the block exactly where the walk does. Every priced constant is
// an integral double (the compiler refuses a cost model where one is not),
// so these regrouped sums equal the walk's per-op accumulation bit for bit.
//
// A program holds only the work the walk's values need. The DSL traces every
// Value as a variable, so most of a trace is copies and literals. A copy
// shares its source's register when neither can change while the copy is
// readable; a result is produced straight into the home it is assigned to;
// each distinct constant lives in one register set at entry; an If on an
// int comparison branches on it; and a pure op whose result nothing reads
// is deleted. Since charges are priced per DSL op as the compiler reads it
// and ride on control ops, which no pass deletes, none of this moves a
// cycle (ProgramCompiler).
//
// Serial counted loops whose bodies are straight-line Float32/Int32
// arithmetic additionally lower to a LoopKernel with its own small register
// file, charged n × (per-iteration lanes) in bulk. A Float32 dot partial
// runs as one named span loop; every other kernel runs on one lane
// executor, in blocks of lanes where no register is loop-carried and per
// element for the rest. Each op of that subset is defined once (kop), for
// the program VM and every lane width. ParFor rows of the two-run CSR SpMV
// shape and of the ILU(0) level-set substitution run as native scalar
// loops.
// ---------------------------------------------------------------------------

namespace {

ipu::Op costOpFor(BinOp op, DType t) {
  if (t == DType::Int32 || t == DType::Bool) return ipu::Op::IntArith;
  switch (op) {
    case BinOp::Add: return ipu::Op::Add;
    case BinOp::Sub: return ipu::Op::Sub;
    case BinOp::Mul: return ipu::Op::Mul;
    case BinOp::Div: return ipu::Op::Div;
    case BinOp::Mod: return ipu::Op::IntArith;
    case BinOp::And:
    case BinOp::Or: return ipu::Op::Logic;
    default: return ipu::Op::Compare;  // relational, min, max
  }
}

ipu::Op costOpFor(UnOp op) {
  switch (op) {
    case UnOp::Neg: return ipu::Op::Neg;
    case UnOp::Abs: return ipu::Op::Abs;
    case UnOp::Sqrt: return ipu::Op::Sqrt;
    case UnOp::Not: return ipu::Op::Logic;
  }
  return ipu::Op::Logic;
}

/// Register kinds of the program VM, in the walk's promotion order. Bools
/// are Int registers holding 0 or 1: every operation the walk performs on a
/// Bool scalar (promotion, truthiness, stores, charges) gives exactly what it
/// gives on the Int32 0 or 1. None marks an op field that names no register.
enum class RegKind : std::uint8_t { Int, Float, Dw, F64, None };

std::size_t kindIndex(RegKind k) { return static_cast<std::size_t>(k); }

DType dtypeOf(RegKind k) {
  switch (k) {
    case RegKind::Float: return DType::Float32;
    case RegKind::Dw: return DType::DoubleWord;
    case RegKind::F64: return DType::Float64;
    default: return DType::Int32;
  }
}

/// Lane sums of a straight-line stretch of ops, priced at compile time.
struct LaneSums {
  double fp = 0, mem = 0, ctrl = 0;
  /// Cost of a lane block holding exactly these charges.
  double total() const { return (fp > mem ? fp : mem) + ctrl; }
  void add(const LaneSums& r) {
    fp += r.fp;
    mem += r.mem;
    ctrl += r.ctrl;
  }
};

struct VmOp {
  enum class K : std::uint8_t {
    // Straight-line ops. Serial loop kernels use the Float32/Int32 subset
    // up to IFromFloat. Comparisons and truth tests set an int register to
    // 1 or 0 (the walk's bool); Gt/Ge are emitted as Lt/Le with swapped
    // operands. Constants are not ops: Program::entry sets their registers.
    FMov, FLoad, FStore,
    FAdd, FSub, FMul, FDiv, FMin, FMax,
    FNeg, FAbs, FSqrt, FFromInt,
    IMov, ILoad,
    IAdd, ISub, IMul, IMin, IMax,
    INeg, IAbs, IFromFloat,
    IStore, ISize, IDiv, IMod, BLoad, BStore,
    ILt, ILe, IEq, INe, FLt, FLe, FEq, FNe,
    FTruth, INot, LAnd, LOr,
    // Double-word pairs, with the walk's Float2 (Joldes et al.) arithmetic.
    DMov, DLoad, DStore,
    DAdd, DSub, DMul, DDiv, DMin, DMax,
    DNeg, DAbs, DSqrt, DLt, DLe, DEq, DNe,
    DFromF, DFromI, DHi, DToInt, DTruth,
    // Float64 (SoftDouble bit patterns).
    SMov, SLoad, SStore,
    SAdd, SSub, SMul, SDiv, SMin, SMax,
    SNeg, SAbs, SSqrt, SLt, SLe, SEq, SNe,
    SFromI, SFromF, SFromD, SToInt, SToF, SToD, STruth,
    // Control ops. Each first adds `run` to the open lane block. A jump
    // resumes at the op after pc iimm, so it always lands at the start of a
    // run.
    // Jmp: jumps to iimm; the last branch of an If or Select points at
    //   itself and only adds its run.
    // JmpZ (If): a = condition. Closes the block plus a branch, then jumps
    //   to iimm (the then-branch's Jmp) when the condition is 0.
    // IfLt, IfLe, IfEq, IfNe (If on an int comparison fused into its
    //   branch): as JmpZ, jumping when a < b (a <= b, a == b, a != b) is
    //   false.
    // SelZ (Select): like JmpZ but leaves the block open; the Select's
    //   branch charge is already in `run`.
    // LBegin (For): a/b/c = begin/end/step regs, dst = induction reg,
    //   iimm = pc of the LEnd. Checks the step, closes the block plus a
    //   branch, and skips the loop when it runs zero times.
    // LEnd: a = induction reg, b/c = end/step regs, iimm = pc of the LBegin.
    // WBegin (While): dst = pass counter, reset here.
    // WTest: a = condition, iimm = pc of the WEnd. Closes the block plus a
    //   branch; leaves the loop when the condition is 0.
    // WEnd: dst = pass counter (the walk's runaway guard), iimm = pc of the
    //   WBegin.
    // PBegin (ParFor): as LBegin, but closes the block without a branch and
    //   runs every row through the worker-pool model, each row executing the
    //   ops up to the matching PEnd (iimm) from a fresh block; arg = native
    //   row plan (Program::rowPlans) or -1.
    // PEnd: ends a row: its cost is the closed blocks plus the open one.
    // FastFor (For lowered to a LoopKernel): a/b/c as LBegin, iimm = kernel.
    //   Closes the block plus a branch, then charges the kernel's trip count
    //   times its per-iteration lanes into the new block.
    // Halt: ends the program.
    Jmp, JmpZ, IfLt, IfLe, IfEq, IfNe, SelZ, LBegin, LEnd, WBegin, WTest,
    WEnd, PBegin, PEnd, FastFor, Halt,
  };
  K k{};
  // Load/store index register proven equal to the induction value at this op
  // (analyzeBlockable dataflow): the blocked VM may use a contiguous,
  // pre-bounds-checked span access for it.
  bool ew = false;
  std::int16_t dst = -1, a = -1, b = -1, c = -1;
  std::int16_t arg = -1;
  std::int32_t iimm = 0;  // control ops: a pc, or FastFor's kernel index
  // Control ops: lane charges of the straight-line ops since the previous
  // control op in program order.
  LaneSums run;
};

bool isControl(VmOp::K k) { return k >= VmOp::K::Jmp; }

/// What an op's fields name: the register kind dst writes and a, b and c
/// read (None: the field names no register), plus flags. Pure ops do nothing
/// but write dst, so an op whose dst nothing reads may be deleted; loads are
/// not pure, nor are IDiv/IMod, because the walk throws on a bad index or a
/// zero divisor. Kernel ops are the subset serial loop kernels run. A jump's
/// iimm is a pc. The compiler's passes read operands only through this
/// table.
struct OpShape {
  static constexpr std::uint8_t kPure = 1, kKernel = 2, kJump = 4;
  RegKind dst, a, b, c;
  std::uint8_t flags;
  bool pure() const { return (flags & kPure) != 0; }
  bool kernel() const { return (flags & kKernel) != 0; }
  bool jump() const { return (flags & kJump) != 0; }
};

const OpShape& shapeOf(VmOp::K k) {
  constexpr RegKind I = RegKind::Int, F = RegKind::Float, D = RegKind::Dw,
                    S = RegKind::F64, N = RegKind::None;
  constexpr std::uint8_t P = OpShape::kPure, L = OpShape::kKernel,
                         J = OpShape::kJump;
  // In VmOp::K order.
  static constexpr OpShape kShapes[] = {
      // FMov FLoad FStore
      {F, F, N, N, P | L}, {F, I, N, N, L}, {N, I, F, N, L},
      // FAdd FSub FMul FDiv FMin FMax
      {F, F, F, N, P | L}, {F, F, F, N, P | L}, {F, F, F, N, P | L},
      {F, F, F, N, P | L}, {F, F, F, N, P | L}, {F, F, F, N, P | L},
      // FNeg FAbs FSqrt FFromInt
      {F, F, N, N, P | L}, {F, F, N, N, P | L}, {F, F, N, N, P | L},
      {F, I, N, N, P | L},
      // IMov ILoad
      {I, I, N, N, P | L}, {I, I, N, N, L},
      // IAdd ISub IMul IMin IMax
      {I, I, I, N, P | L}, {I, I, I, N, P | L}, {I, I, I, N, P | L},
      {I, I, I, N, P | L}, {I, I, I, N, P | L},
      // INeg IAbs IFromFloat
      {I, I, N, N, P | L}, {I, I, N, N, P | L}, {I, F, N, N, P | L},
      // IStore ISize IDiv IMod BLoad BStore
      {N, I, I, N, 0}, {I, N, N, N, P}, {I, I, I, N, 0}, {I, I, I, N, 0},
      {I, I, N, N, 0}, {N, I, I, N, 0},
      // ILt ILe IEq INe FLt FLe FEq FNe
      {I, I, I, N, P}, {I, I, I, N, P}, {I, I, I, N, P}, {I, I, I, N, P},
      {I, F, F, N, P}, {I, F, F, N, P}, {I, F, F, N, P}, {I, F, F, N, P},
      // FTruth INot LAnd LOr
      {I, F, N, N, P}, {I, I, N, N, P}, {I, I, I, N, P}, {I, I, I, N, P},
      // DMov DLoad DStore
      {D, D, N, N, P}, {D, I, N, N, 0}, {N, I, D, N, 0},
      // DAdd DSub DMul DDiv DMin DMax
      {D, D, D, N, P}, {D, D, D, N, P}, {D, D, D, N, P}, {D, D, D, N, P},
      {D, D, D, N, P}, {D, D, D, N, P},
      // DNeg DAbs DSqrt DLt DLe DEq DNe
      {D, D, N, N, P}, {D, D, N, N, P}, {D, D, N, N, P},
      {I, D, D, N, P}, {I, D, D, N, P}, {I, D, D, N, P}, {I, D, D, N, P},
      // DFromF DFromI DHi DToInt DTruth
      {D, F, N, N, P}, {D, I, N, N, P}, {F, D, N, N, P}, {I, D, N, N, P},
      {I, D, N, N, P},
      // SMov SLoad SStore
      {S, S, N, N, P}, {S, I, N, N, 0}, {N, I, S, N, 0},
      // SAdd SSub SMul SDiv SMin SMax
      {S, S, S, N, P}, {S, S, S, N, P}, {S, S, S, N, P}, {S, S, S, N, P},
      {S, S, S, N, P}, {S, S, S, N, P},
      // SNeg SAbs SSqrt SLt SLe SEq SNe
      {S, S, N, N, P}, {S, S, N, N, P}, {S, S, N, N, P},
      {I, S, S, N, P}, {I, S, S, N, P}, {I, S, S, N, P}, {I, S, S, N, P},
      // SFromI SFromF SFromD SToInt SToF SToD STruth
      {S, I, N, N, P}, {S, F, N, N, P}, {S, D, N, N, P}, {I, S, N, N, P},
      {F, S, N, N, P}, {D, S, N, N, P}, {I, S, N, N, P},
      // Jmp JmpZ IfLt IfLe IfEq IfNe SelZ
      {N, N, N, N, J}, {N, I, N, N, J}, {N, I, I, N, J}, {N, I, I, N, J},
      {N, I, I, N, J}, {N, I, I, N, J}, {N, I, N, N, J},
      // LBegin LEnd WBegin WTest WEnd PBegin PEnd FastFor Halt
      {I, I, I, I, J}, {N, I, I, I, J}, {I, N, N, N, 0}, {N, I, N, N, J},
      {I, N, N, N, J}, {I, I, I, I, J}, {N, N, N, N, 0}, {N, I, I, I, 0},
      {N, N, N, N, 0}};
  static_assert(std::size(kShapes) ==
                static_cast<std::size_t>(VmOp::K::Halt) + 1);
  return kShapes[static_cast<std::size_t>(k)];
}

/// How many times each program register is read, per kind: what dead-op
/// elimination and branch fusion decide by.
class ReadCounts {
 public:
  ReadCounts(int numInt, int numFloat, int numDw, int numF64)
      : n_{std::vector<std::uint32_t>(static_cast<std::size_t>(numInt)),
           std::vector<std::uint32_t>(static_cast<std::size_t>(numFloat)),
           std::vector<std::uint32_t>(static_cast<std::size_t>(numDw)),
           std::vector<std::uint32_t>(static_cast<std::size_t>(numF64))} {}

  std::uint32_t& at(RegKind k, std::int16_t reg) {
    return n_[kindIndex(k)][static_cast<std::size_t>(reg)];
  }
  void add(RegKind k, std::int16_t reg) {
    if (k != RegKind::None) ++at(k, reg);
  }
  void drop(RegKind k, std::int16_t reg) {
    if (k != RegKind::None) --at(k, reg);
  }
  /// Counts the registers `op` reads.
  void addReads(const VmOp& op) {
    const OpShape& s = shapeOf(op.k);
    add(s.a, op.a);
    add(s.b, op.b);
    add(s.c, op.c);
  }

 private:
  std::array<std::vector<std::uint32_t>, 4> n_;
};

/// Deletes, in one backward pass, every pure op whose destination nothing
/// reads. A deleted op's operands each lose a reader as it goes, so a chain
/// that only fed dead ops goes too (loop-carried chains may stay: no
/// fixpoint). Control ops always stay. Returns each old index's new one.
std::vector<std::int32_t> deleteDeadOps(std::vector<VmOp>& ops,
                                        ReadCounts& reads) {
  std::vector<bool> dead(ops.size());
  for (std::size_t i = ops.size(); i-- > 0;) {
    const VmOp& op = ops[i];
    const OpShape& s = shapeOf(op.k);
    if (!s.pure() || reads.at(s.dst, op.dst) != 0) continue;
    dead[i] = true;
    reads.drop(s.a, op.a);
    reads.drop(s.b, op.b);
    reads.drop(s.c, op.c);
  }
  std::vector<std::int32_t> newIndex(ops.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    newIndex[i] = static_cast<std::int32_t>(n);
    if (!dead[i]) ops[n++] = ops[i];
  }
  ops.resize(n);
  return newIndex;
}

/// The one named loop kernel, a Float32 reduction partial at unit step:
/// acc = acc + a[i] * b[i], or acc = acc + a[i], matched on a lifted
/// kernel's ops (matchDot). Its sum is loop-carried, so lanes cannot run it
/// without changing the summation order; a native span loop runs it in the
/// walk's order instead.
struct DotKernel {
  std::int16_t aArg = -1, bArg = -1;  // bArg -1: acc += a[i]
  bool accFirst = true;               // acc is the left addend
  // The program register of the accumulator: the kernel's one seed it
  // writes, and its one write-back.
  std::int16_t accReg = -1;
};

/// Recognised whole-row parallel kernel: the two-run CSR SpMV row shape
/// DistMatrix::spmv traces (owned-column run, then halo run):
///   acc = d[r] * x[r]
///   for k in [rp[r], sp[r]):    acc = acc + a[k] * x[c[k]]
///   for k in [sp[r], rp[r+1]):  acc = acc + a[k] * h[c[k] - owned]
///   y[r] = acc
/// Matched on the compiled ops (matchCsrRow). A ParFor's rows run as one
/// native scalar loop (same float ops in the same order, so bit-identical),
/// each priced by the closed form of the program's block charges; from the
/// first row whose indices fall outside the bound slices, the program runs
/// the rest and reports the walk's error.
struct CsrRow {
  std::int16_t yArg = -1, dArg = -1, xArg = -1, aArg = -1, hArg = -1;
  std::int16_t cArg = -1, rpArg = -1, spArg = -1;
  std::int16_t ownedReg = -1;  // holds the owned-row count; the row reads it
  // Closed-form charges: three lane blocks (the entry; the owned run's t0
  // bodies plus the second entry; the halo run's t1 bodies plus the tail)
  // and two loop-entry branches. Each run's block is its lead lanes plus t
  // bodies, so `fixed` holds the first block, both branches and the leads'
  // ctrl lanes, and a row's price needs only t0 and t1.
  double fixed = 0;
  LaneSums lead[2], body[2];  // the leads' ctrl lanes are 0

  double price(std::int32_t t0, std::int32_t t1) const {
    auto run = [](const LaneSums& lead, const LaneSums& per, double n) {
      const double fp = lead.fp + n * per.fp, mem = lead.mem + n * per.mem;
      return (fp > mem ? fp : mem) + n * per.ctrl;
    };
    return fixed + run(lead[0], body[0], t0) + run(lead[1], body[1], t1);
  }
};

/// Recognised whole-row parallel kernel: one row of a level-set triangular
/// substitution, the two rows IluSolver::apply traces for ILU(0):
///   i = order[idx]; acc = seed[i]
///   for k in [rp[i], rp[i + s]):
///     c = col[k]; if (c < i) acc = acc - v[k] * x[c]
///   y[i] = acc                  (forward)
///   y[i] = acc / v[di[i]]       (backward, whose guard is i < c)
/// Matched on the compiled ops (matchTriRow). A ParFor's rows run as one
/// native scalar loop, the same float ops in the same order, each priced by
/// the closed form of the program's block charges; from the first row with
/// an index outside its slice, the program runs the rest and reports the
/// walk's error, and with a non-unit step it runs them all.
struct TriRow {
  std::int16_t orderArg = -1, seedArg = -1, rpArg = -1, colArg = -1;
  std::int16_t vArg = -1, xArg = -1, yArg = -1;
  std::int16_t diArg = -1;  // backward only
  // Registers the row reads but never writes: s, and the inner loop's step.
  std::int16_t sReg = -1, stepReg = -1;
  bool colFirst = true;  // the guard is c < i, else i < c
  // Closed-form charges (nativeTriRows): the head block plus a branch; the
  // first iteration's If block plus a branch; each later iteration's block
  // plus a branch, after a taken or an untaken iteration; and the tail
  // block after a taken, an untaken or no iteration.
  double head = 0, firstIf = 0, afterTaken = 0, afterUntaken = 0;
  double tailTaken = 0, tailUntaken = 0, tailEmpty = 0;
};

/// A ParFor's native row plan, kept on its PBegin (VmOp::arg).
using RowPlan = std::variant<CsrRow, TriRow>;

/// A serial For lowered to its own small register program: the loop body's
/// ops with registers renumbered compactly (int register 0 is the induction
/// variable).
struct LoopKernel {
  static constexpr std::size_t kMaxRegs = 64;
  static constexpr std::size_t kMaxArgs = 16;

  std::vector<VmOp> ops;
  // Once-per-entry register seeds: argument sizes, and the program
  // registers the body reads before writing, as (kernel reg, arg) and
  // (program reg, kernel reg).
  std::vector<std::pair<std::int16_t, std::int16_t>> sizeSeeds;
  std::vector<std::pair<std::int16_t, std::int16_t>> seedFloat, seedInt;
  // Program registers of variables that outlive the loop and are assigned
  // in the body, written back after the last iteration: (program reg,
  // kernel reg).
  std::vector<std::pair<std::int16_t, std::int16_t>> writeFloat, writeInt;
  int numFloatRegs = 0, numIntRegs = 0;
  // Per-iteration lane charges: the run of the loop's LEnd.
  LaneSums iter;
  std::optional<DotKernel> dot;
  // Block-vectorizable serial loops: no register is loop-carried (read
  // before its first write while also written), so elements are independent
  // and can run in lanes with each op applied lane-wise — the same scalar
  // operations in the same per-element order, hence bit-identical. Aliasing
  // between stored and loaded spans is re-checked at run time
  // (blockedRangeOk); args flagged elementwiseOnly are only ever indexed by
  // the induction variable.
  struct ArgUse {
    std::int16_t arg = -1;
    bool elementwiseOnly = true;   // every access at the element's own index
    bool anyElementwise = false;   // at least one such access (needs bounds
                                   // pre-check: ew ops skip per-lane checks)
  };
  bool blockable = false;
  std::vector<ArgUse> loadFloat, storeFloat, loadInt;
};

/// Decides whether a serial kernel can run block-vectorized and classifies
/// its float-arg accesses (see LoopKernel::blockable). The induction register
/// (int 0) is reset by the driver every element and is exempt.
void analyzeBlockable(LoopKernel& k) {
  k.blockable = false;
  constexpr std::size_t R = LoopKernel::kMaxRegs;
  // Per kind (Int, Float): registers written so far, and registers read
  // before the body writes them.
  std::array<std::bitset<R>, 2> written, readEarly;
  // Forward dataflow over the straight-line body: which int registers hold
  // exactly the induction value right now.
  std::bitset<R> isIv;
  isIv[0] = true;
  std::array<LoopKernel::ArgUse, LoopKernel::kMaxArgs> loads, stores,
      intLoads;
  auto access = [&](std::array<LoopKernel::ArgUse, LoopKernel::kMaxArgs>& m,
                    const VmOp& op) {
    LoopKernel::ArgUse& u = m[static_cast<std::size_t>(op.arg)];
    u.arg = op.arg;
    if (op.ew) {
      u.anyElementwise = true;
    } else {
      u.elementwiseOnly = false;
    }
  };
  auto read = [&](RegKind kind, std::int16_t r) {
    if (kind == RegKind::None) return;
    const auto reg = static_cast<std::size_t>(r);
    if (!written[kindIndex(kind)][reg]) readEarly[kindIndex(kind)][reg] = true;
  };
  using K = VmOp::K;
  for (VmOp& op : k.ops) {
    const OpShape& s = shapeOf(op.k);
    read(s.a, op.a);
    read(s.b, op.b);
    if (op.k == K::FLoad || op.k == K::FStore || op.k == K::ILoad) {
      op.ew = isIv[static_cast<std::size_t>(op.a)];
      access(op.k == K::FLoad ? loads : op.k == K::FStore ? stores : intLoads,
             op);
    }
    if (s.dst == RegKind::None) continue;
    const auto dst = static_cast<std::size_t>(op.dst);
    if (s.dst == RegKind::Int) {
      if (dst == 0) return;  // the induction register must stay driver-owned
      isIv[dst] = op.k == K::IMov && isIv[static_cast<std::size_t>(op.a)];
    }
    written[kindIndex(s.dst)][dst] = true;
  }
  // A loop-carried register (read before its first write while also
  // written) makes elements depend on each other.
  if ((readEarly[0] & written[0]).any() || (readEarly[1] & written[1]).any()) {
    return;
  }
  // Stores must be at the element's own index: lane j of a blocked store
  // then touches exactly the index element iv+j touches in the scalar walk,
  // so write order per address is preserved. A scattered store could let two
  // ops' lanes collide in a different order than the scalar schedule.
  for (std::size_t arg = 0; arg < LoopKernel::kMaxArgs; ++arg) {
    const LoopKernel::ArgUse& su = stores[arg];
    if (su.arg < 0) continue;
    if (!su.elementwiseOnly) return;
    // Same span loaded and stored: each lane may only see its own element.
    if (loads[arg].arg >= 0 && !loads[arg].elementwiseOnly) return;
  }
  for (std::size_t arg = 0; arg < LoopKernel::kMaxArgs; ++arg) {
    if (loads[arg].arg >= 0) k.loadFloat.push_back(loads[arg]);
    if (stores[arg].arg >= 0) k.storeFloat.push_back(stores[arg]);
    if (intLoads[arg].arg >= 0) k.loadInt.push_back(intLoads[arg]);
  }
  k.blockable = true;
}

/// Matches a lifted kernel's ops against the dot partial (DotKernel), after
/// analyzeBlockable has marked its elementwise accesses. The span loop runs
/// none of the ops, so every op must belong to the shape (a stray load
/// would skip its bounds check), each float register is written at most
/// once, and the kernel writes nothing back but the accumulator, seeded
/// from and written back to one program register: no per-iteration temp
/// outlives the loop. A non-unit step is refused at run time.
void matchDot(LoopKernel& k) {
  using K = VmOp::K;
  const std::vector<VmOp>& ops = k.ops;
  constexpr std::size_t kMaxOps = 4;  // two loads, their product, the sum
  if (ops.empty() || ops.size() > kMaxOps || !k.writeInt.empty() ||
      k.writeFloat.size() != 1) {
    return;
  }
  // The op writing each float register, -1 for none.
  std::array<std::int32_t, LoopKernel::kMaxRegs> def;
  def.fill(-1);
  for (std::size_t pc = 0; pc < ops.size(); ++pc) {
    const VmOp& op = ops[pc];
    if (op.k == K::FLoad ? !op.ew : op.k != K::FAdd && op.k != K::FMul) {
      return;
    }
    std::int32_t& d = def[static_cast<std::size_t>(op.dst)];
    if (d >= 0) return;
    d = static_cast<std::int32_t>(pc);
  }
  std::bitset<kMaxOps> used;  // the ops the shape accounts for
  // The op that wrote register r before op `at` in the same element.
  auto producer = [&](std::int16_t r, const VmOp& at) -> const VmOp* {
    const std::int32_t d = def[static_cast<std::size_t>(r)];
    if (d < 0 || &ops[static_cast<std::size_t>(d)] >= &at) return nullptr;
    used[static_cast<std::size_t>(d)] = true;
    return &ops[static_cast<std::size_t>(d)];
  };
  auto loadArg = [](const VmOp* op) -> std::int16_t {
    return op != nullptr && op->k == K::FLoad ? op->arg : -1;
  };
  // acc = acc + X, acc the one write-back.
  const VmOp& last = ops.back();
  used[ops.size() - 1] = true;
  const std::int16_t acc = last.dst;
  if (last.k != K::FAdd || k.writeFloat[0].second != acc ||
      std::find(k.seedFloat.begin(), k.seedFloat.end(), k.writeFloat[0]) ==
          k.seedFloat.end()) {
    return;
  }
  DotKernel dot;
  dot.accReg = k.writeFloat[0].first;
  dot.accFirst = last.a == acc;
  if (!dot.accFirst && last.b != acc) return;
  const VmOp* v = producer(dot.accFirst ? last.b : last.a, last);
  if (loadArg(v) >= 0) {
    dot.aArg = v->arg;
  } else if (v != nullptr && v->k == K::FMul) {
    dot.aArg = loadArg(producer(v->a, *v));
    dot.bArg = loadArg(producer(v->b, *v));
    if (dot.aArg < 0 || dot.bArg < 0) return;
  } else {
    return;
  }
  if (used.count() != ops.size()) return;
  k.dot = dot;
}

/// A register the VM sets before a program's first op: a pooled constant, or
/// the Float32 zero a variable read before its first assignment starts as in
/// the walk.
struct EntryLoad {
  RegKind kind;
  std::int16_t reg;
  // The value's bits: an Int's two's complement, a Float's, a double-word's
  // hi in the low half and lo in the high half, a Float64's SoftDouble bits.
  std::uint64_t bits;
};

/// A whole codelet lowered to the register VM.
struct Program {
  static constexpr std::size_t kMaxRegs = 512;  // per register kind

  std::vector<VmOp> ops;  // ends with Halt
  std::vector<LoopKernel> kernels;
  std::vector<RowPlan> rowPlans;
  std::vector<EntryLoad> entry;
  // The trace-time dtype of every argument the program loads or stores; a
  // vertex whose arguments differ runs on the walk (codeletBinds).
  std::vector<std::pair<std::int32_t, DType>> argTypes;
  int numFloat = 0, numInt = 1, numDw = 0, numF64 = 0;  // int reg 0: worker
  double branchCost = 0;
};

/// Matches one ParFor row, from its PBegin at ops[head] to its PEnd, on the
/// ops the program runs (matchCsrRow, matchTriRow). A native row runs none
/// of them, so every op of the row must belong to the shape (a stray load
/// would skip its bounds check), in any order that reads each register only
/// after the row wrote it. Each Int and Float register holds a role: Outside
/// until the row writes it, then what the one op that wrote it computed.
class RowMatch {
 public:
  enum class R : std::uint8_t {
    None, Outside,
    InPlace,  // marks the op that updates its a register
    One,      // the pooled Int constant 1
    Idx, I, Acc, Begin, EndAt, End, K, C, V, G, M, D, Q, Quot,
    // The CSR row's: its head's loads at the row index, and its halo run's.
    RowF, RowI, Split, K2, C2, V2, H, G2, M2
  };
  struct Step {
    VmOp::K k;
    R a, b;  // what the op's a and b registers hold
    R dst;   // what its dst holds after it
    std::int16_t* arg = nullptr;  // receives the op's argument
    const VmOp** op = nullptr;    // receives the op
  };

  RowMatch(const std::vector<VmOp>& ops, std::size_t head)
      : ops_(ops), tail_(static_cast<std::size_t>(ops[head].iimm)) {
    for (auto& r : role_) r.fill(R::Outside);
    // The worker id varies by row but a native loop never writes it, so no
    // plan may read it: no step matches None in a register operand.
    set(RegKind::Int, 0, R::None);
    set(RegKind::Int, ops[head].dst, R::Idx);
    for (std::size_t pc = head + 1; pc < tail_; ++pc) {
      if (isControl(ops[pc].k)) ctl_.push_back(pc);
    }
  }

  /// The pcs of the row's control ops between its PBegin and its PEnd.
  const std::vector<std::size_t>& ctl() const { return ctl_; }
  /// The pc of its PEnd.
  std::size_t tail() const { return tail_; }

  R read(RegKind kind, std::int16_t reg) const {
    return kind == RegKind::Int || kind == RegKind::Float
               ? role_[kindIndex(kind)][static_cast<std::size_t>(reg)]
               : R::None;
  }

  /// The argument of the load that gave `reg` its role.
  std::int16_t argOf(RegKind kind, std::int16_t reg) const {
    return arg_[kindIndex(kind)][static_cast<std::size_t>(reg)];
  }

  /// Gives `reg`, Outside so far, role r: what an op, a loop's induction
  /// register or a pooled constant holds. False when the row already gave it
  /// one.
  bool set(RegKind kind, std::int16_t reg, R r) {
    if (read(kind, reg) != R::Outside) return false;
    role_[kindIndex(kind)][static_cast<std::size_t>(reg)] = r;
    return true;
  }

  /// True when the ops at pcs `begin` and `end` are one serial loop's
  /// LBegin and LEnd.
  bool loop(std::size_t begin, std::size_t end) const {
    const VmOp& b = ops_[begin];
    const VmOp& e = ops_[end];
    return b.k == VmOp::K::LBegin && e.k == VmOp::K::LEnd &&
           static_cast<std::size_t>(b.iimm) == end &&
           static_cast<std::size_t>(e.iimm) == begin && e.a == b.dst &&
           e.b == b.b && e.c == b.c;
  }

  /// Matches ops [from, to) one for one against `steps`.
  bool match(std::size_t from, std::size_t to,
             std::initializer_list<Step> steps) {
    constexpr std::size_t kMaxSteps = 6;
    if (to - from != steps.size() || steps.size() > kMaxSteps) return false;
    std::bitset<kMaxSteps> used;
    for (std::size_t pc = from; pc < to; ++pc) {
      const VmOp& op = ops_[pc];
      const OpShape& s = shapeOf(op.k);
      std::size_t j = 0;
      for (const Step& st : steps) {
        if (!used[j] && st.k == op.k && read(s.a, op.a) == st.a &&
            read(s.b, op.b) == st.b) {
          break;
        }
        ++j;
      }
      if (j == steps.size()) return false;
      used[j] = true;
      const Step& st = steps.begin()[j];
      if (st.arg != nullptr) *st.arg = op.arg;
      if (st.op != nullptr) *st.op = &op;
      if (st.dst == R::InPlace) {
        if (op.dst != op.a) return false;
      } else if (st.dst != R::None) {
        if (!set(s.dst, op.dst, st.dst)) return false;
        arg_[kindIndex(s.dst)][static_cast<std::size_t>(op.dst)] = op.arg;
      }
    }
    return true;
  }

 private:
  const std::vector<VmOp>& ops_;
  std::size_t tail_;
  std::vector<std::size_t> ctl_;
  std::array<std::array<R, Program::kMaxRegs>, 2> role_;
  std::array<std::array<std::int16_t, Program::kMaxRegs>, 2> arg_{};
};

/// Matches the ParFor row of the PBegin at ops[head] against CsrRow's shape
/// (RowMatch) and prices it. `one` is the register of the pooled
/// Int constant 1, or -1: the `+ 1` of rp[r + 1] and both inner steps must
/// read it, since the native row runs unit steps. The register the halo
/// run's owned count comes from is read when a row runs, so the row must not
/// write it. The head loads d[r], x[r], rp[r] and sp[r], all at the row
/// index: their consumers tell them apart, the product's operand order and
/// the first loop's begin and end, each reading a different load.
bool matchCsrRow(const std::vector<VmOp>& ops, std::size_t head,
                 std::int16_t one, double branchCost, CsrRow& m) {
  using K = VmOp::K;
  using R = RowMatch::R;
  constexpr RegKind I = RegKind::Int, F = RegKind::Float;
  const R N = R::None;
  RowMatch rm(ops, head);
  const std::vector<std::size_t>& ctl = rm.ctl();
  if (one < 0 || ctl.size() != 4 || !rm.loop(ctl[0], ctl[1]) ||
      !rm.loop(ctl[2], ctl[3]) || !rm.set(I, one, R::One)) {
    return false;
  }
  const VmOp& owned = ops[ctl[0]];
  const VmOp& halo = ops[ctl[2]];
  const VmOp* mul = nullptr;
  if (!rm.match(head + 1, ctl[0],
                {{K::FLoad, R::Idx, N, R::RowF},
                 {K::FLoad, R::Idx, N, R::RowF},
                 {K::FMul, R::RowF, R::RowF, R::Acc, nullptr, &mul},
                 {K::ILoad, R::Idx, N, R::RowI},
                 {K::ILoad, R::Idx, N, R::RowI}}) ||
      mul->a == mul->b || owned.a == owned.b ||
      rm.read(I, owned.a) != R::RowI || rm.read(I, owned.b) != R::RowI ||
      rm.read(I, owned.c) != R::One || !rm.set(I, owned.dst, R::K)) {
    return false;
  }
  m.dArg = rm.argOf(F, mul->a);
  m.xArg = rm.argOf(F, mul->b);
  m.rpArg = rm.argOf(I, owned.a);
  m.spArg = rm.argOf(I, owned.b);
  std::int16_t xAgain = -1, spAgain = -1, rpAgain = -1, aAgain = -1,
               cAgain = -1;
  const VmOp* sub = nullptr;
  if (!rm.match(ctl[0] + 1, ctl[1],
                {{K::ILoad, R::K, N, R::C, &m.cArg},
                 {K::FLoad, R::K, N, R::V, &m.aArg},
                 {K::FLoad, R::C, N, R::G, &xAgain},
                 {K::FMul, R::V, R::G, R::M},
                 {K::FAdd, R::Acc, R::M, R::InPlace}}) ||
      !rm.match(ctl[1] + 1, ctl[2],
                {{K::ILoad, R::Idx, N, R::Split, &spAgain},
                 {K::IAdd, R::Idx, R::One, R::EndAt},
                 {K::ILoad, R::EndAt, N, R::End, &rpAgain}}) ||
      rm.read(I, halo.a) != R::Split || rm.read(I, halo.b) != R::End ||
      rm.read(I, halo.c) != R::One || !rm.set(I, halo.dst, R::K2) ||
      !rm.match(ctl[2] + 1, ctl[3],
                {{K::FLoad, R::K2, N, R::V2, &aAgain},
                 {K::ILoad, R::K2, N, R::C2, &cAgain},
                 {K::ISub, R::C2, R::Outside, R::H, nullptr, &sub},
                 {K::FLoad, R::H, N, R::G2, &m.hArg},
                 {K::FMul, R::V2, R::G2, R::M2},
                 {K::FAdd, R::Acc, R::M2, R::InPlace}}) ||
      !rm.match(ctl[3] + 1, rm.tail(),
                {{K::FStore, R::Idx, R::Acc, N, &m.yArg}}) ||
      xAgain != m.xArg || spAgain != m.spArg || rpAgain != m.rpArg ||
      aAgain != m.aArg || cAgain != m.cArg ||
      rm.read(I, sub->b) != R::Outside) {
    return false;
  }
  m.ownedReg = sub->b;
  const LaneSums& tail = ops[rm.tail()].run;
  m.fixed = owned.run.total() + halo.run.ctrl + tail.ctrl + 2 * branchCost;
  m.lead[0] = {halo.run.fp, halo.run.mem, 0};
  m.lead[1] = {tail.fp, tail.mem, 0};
  m.body[0] = ops[ctl[1]].run;
  m.body[1] = ops[ctl[3]].run;
  return true;
}

/// Matches the ParFor row of the PBegin at ops[head] against TriRow's shape
/// (RowMatch) and prices it. Each register the row writes is written once
/// per row (the accumulator's update excepted), and the two it reads from
/// outside, s and the step, not at all. So the native loop computes what
/// the ops do.
bool matchTriRow(const std::vector<VmOp>& ops, std::size_t head,
                 double branchCost, TriRow& m) {
  using K = VmOp::K;
  using R = RowMatch::R;
  RowMatch rm(ops, head);
  const std::vector<std::size_t>& ctl = rm.ctl();
  if (ctl.size() != 4 || !rm.loop(ctl[0], ctl[3])) return false;
  const VmOp& loop = ops[ctl[0]];
  const VmOp& guard = ops[ctl[1]];
  const VmOp& thenEnd = ops[ctl[2]];
  const VmOp& loopEnd = ops[ctl[3]];
  auto jumpsTo = [](const VmOp& op, std::size_t pc) {
    return static_cast<std::size_t>(op.iimm) == pc;
  };
  if (guard.k != K::IfLt || thenEnd.k != K::Jmp || !jumpsTo(guard, ctl[2]) ||
      !jumpsTo(thenEnd, ctl[2]) || ctl[2] + 1 != ctl[3]) {
    return false;
  }
  const R N = R::None;
  std::int16_t rpAgain = -1, vAgain = -1;
  const VmOp* add = nullptr;
  if (!rm.match(head + 1, ctl[0],
                {{K::ILoad, R::Idx, N, R::I, &m.orderArg},
                 {K::FLoad, R::I, N, R::Acc, &m.seedArg},
                 {K::ILoad, R::I, N, R::Begin, &m.rpArg},
                 {K::IAdd, R::I, R::Outside, R::EndAt, nullptr, &add},
                 {K::ILoad, R::EndAt, N, R::End, &rpAgain}}) ||
      rpAgain != m.rpArg) {
    return false;
  }
  m.sReg = add->b;
  if (rm.read(RegKind::Int, loop.a) != R::Begin ||
      rm.read(RegKind::Int, loop.b) != R::End ||
      rm.read(RegKind::Int, loop.c) != R::Outside ||
      !rm.set(RegKind::Int, loop.dst, R::K)) {
    return false;
  }
  m.stepReg = loop.c;
  if (!rm.match(ctl[0] + 1, ctl[1], {{K::ILoad, R::K, N, R::C, &m.colArg}})) {
    return false;
  }
  const R ga = rm.read(RegKind::Int, guard.a);
  const R gb = rm.read(RegKind::Int, guard.b);
  m.colFirst = ga == R::C;
  if (!(ga == R::C && gb == R::I) && !(ga == R::I && gb == R::C)) return false;
  if (!rm.match(ctl[1] + 1, ctl[2],
                {{K::FLoad, R::K, N, R::V, &m.vArg},
                 {K::FLoad, R::C, N, R::G, &m.xArg},
                 {K::FMul, R::V, R::G, R::M},
                 {K::FSub, R::Acc, R::M, R::InPlace}})) {
    return false;
  }
  const bool forward = rm.match(ctl[3] + 1, rm.tail(),
                                {{K::FStore, R::I, R::Acc, N, &m.yArg}});
  if (!forward &&
      (!rm.match(ctl[3] + 1, rm.tail(),
                 {{K::ILoad, R::I, N, R::D, &m.diArg},
                  {K::FLoad, R::D, N, R::Q, &vAgain},
                  {K::FDiv, R::Acc, R::Q, R::Quot},
                  {K::FStore, R::I, R::Quot, N, &m.yArg}}) ||
       vAgain != m.vArg)) {
    return false;
  }
  if (rm.read(RegKind::Int, m.sReg) != R::Outside ||
      rm.read(RegKind::Int, m.stepReg) != R::Outside) {
    return false;
  }
  auto block = [](std::initializer_list<const LaneSums*> runs) {
    LaneSums sum;
    for (const LaneSums* r : runs) sum.add(*r);
    return sum.total();
  };
  const LaneSums& rowEnd = ops[rm.tail()].run;
  m.head = loop.run.total() + branchCost;
  m.firstIf = guard.run.total() + branchCost;
  m.afterTaken = block({&thenEnd.run, &loopEnd.run, &guard.run}) + branchCost;
  m.afterUntaken = block({&loopEnd.run, &guard.run}) + branchCost;
  m.tailTaken = block({&thenEnd.run, &loopEnd.run, &rowEnd});
  m.tailUntaken = block({&loopEnd.run, &rowEnd});
  m.tailEmpty = rowEnd.total();
  return true;
}

/// Lowers a whole flattened codelet to one Program, or reports the construct
/// that keeps it on the walk. Variables live in home registers of a fixed
/// kind; a variable whose value on some path the VM cannot give the walk's
/// type or value bails: it changes kind, or it is read outside the scope
/// (loop body, If branch) whose assignment defines it.
///
/// The program holds only the work (DESIGN.md §8). A copy shares its
/// source's register when neither can change while the copy is readable; a
/// value is produced straight into the home it is assigned to; each
/// distinct constant lives in one register set at entry; an If on an int
/// comparison branches on it; and a pure op whose result nothing reads is
/// deleted. No cycle moves: every DSL op is priced into the running lane
/// sums as its expression compiles, those sums ride on control ops, and no
/// pass deletes a control op.
class ProgramCompiler {
 public:
  ProgramCompiler(const FlatCodelet& flat, const ipu::CostModel& cost)
      : flat_(flat), cost_(cost) {}

  std::optional<Program> compile() {
    try {
      countUses();
      p_.branchCost = priced(ipu::Op::Branch, DType::Int32);
      shared_[kindIndex(RegKind::Int)][0] = true;  // the worker id
      compileList(flat_.root);
      emitControl(VmOp::K::Halt);
      finish();
    } catch (const Bail& b) {
      why_ = b.why;
      return std::nullopt;
    }
    return std::move(p_);
  }

  /// The construct that stopped the last failed compile().
  const char* why() const { return why_; }

 private:
  struct Bail {
    const char* why;
  };
  struct Val {
    std::int16_t reg;
    RegKind kind;
    // A variable's, loop's or constant's register, not a fresh temporary.
    bool home = false;
    std::int32_t var = -1;  // the variable read, when it is one
  };
  /// What the compiler knows of one variable.
  struct Var {
    enum class Role : std::uint8_t { Plain, Induction, Retired };
    std::int16_t reg = -1;  // home register; -1: none yet
    RegKind kind = RegKind::Float;
    Role role = Role::Plain;  // or an open or closed loop's variable
    int scope = -1;  // conditional scope whose assignment defined it, -1 = none
    int assigns = 0, reads = 0;  // Assign statements and reads in the codelet
  };

  [[noreturn]] static void bail(const char* why) { throw Bail{why}; }

  Var& var(std::int32_t id) { return vars_[static_cast<std::size_t>(id)]; }

  /// Sizes the variable table and counts each variable's Assign statements
  /// and reads (every FlatExpr is one read site).
  void countUses() {
    vars_.resize(static_cast<std::size_t>(flat_.numVars));
    auto touch = [&](std::int32_t id) -> Var& {
      if (id < 0) bail("negative variable id");
      if (static_cast<std::size_t>(id) >= vars_.size()) {
        vars_.resize(static_cast<std::size_t>(id) + 1);
      }
      return var(id);
    };
    for (const FlatExpr& e : flat_.exprs) {
      if (e.kind == Expr::Kind::Var) ++touch(e.var).reads;
    }
    for (const FlatStmt& s : flat_.stmts) {
      if (s.kind == Stmt::Kind::Assign) ++touch(s.var).assigns;
      if ((s.kind == Stmt::Kind::For || s.kind == Stmt::Kind::ParFor) &&
          s.var >= 0) {
        touch(s.var);
      }
    }
  }

  // ---- registers, ops and charges ----------------------------------------

  std::int16_t newReg(RegKind k) {
    int& n = k == RegKind::Int     ? p_.numInt
             : k == RegKind::Float ? p_.numFloat
             : k == RegKind::Dw    ? p_.numDw
                                   : p_.numF64;
    if (n >= static_cast<int>(Program::kMaxRegs)) bail("register limit");
    return static_cast<std::int16_t>(n++);
  }

  std::int32_t emit(VmOp::K k, std::int16_t dst, std::int16_t a = -1,
                    std::int16_t b = -1) {
    VmOp op;
    op.k = k;
    op.dst = dst;
    op.a = a;
    op.b = b;
    p_.ops.push_back(op);
    return static_cast<std::int32_t>(p_.ops.size()) - 1;
  }

  Val emitVal(VmOp::K k, RegKind kind, std::int16_t a = -1,
              std::int16_t b = -1) {
    const std::int16_t dst = newReg(kind);
    emit(k, dst, a, b);
    return {dst, kind};
  }

  /// Emits a control op that takes over the current run's lane charges
  /// (VmOp::run) and starts a new run. Returns its pc.
  std::int32_t emitControl(VmOp::K k) {
    VmOp op;
    op.k = k;
    op.run = run_;
    run_ = LaneSums{};
    p_.ops.push_back(op);
    return static_cast<std::int32_t>(p_.ops.size()) - 1;
  }

  VmOp& at(std::int32_t pc) { return p_.ops[static_cast<std::size_t>(pc)]; }

  /// A cost-model charge, refused unless integral (see the VM overview).
  double priced(ipu::Op op, DType t) {
    const double c = cost_.workerCycles(op, t);
    if (std::floor(c) != c) bail("non-integral cycle cost");
    return c;
  }

  void chargeLane(ipu::Lane lane, double cycles) {
    switch (lane) {
      case ipu::Lane::Fp: run_.fp += cycles; break;
      case ipu::Lane::Mem: run_.mem += cycles; break;
      case ipu::Lane::Ctrl: run_.ctrl += cycles; break;
    }
  }

  void charge(ipu::Op op, DType t) {
    chargeLane(ipu::CostModel::lane(op), priced(op, t));
  }

  /// Records the dtype the program assumes for argument `arg`.
  void requireArg(std::int32_t arg, DType t) {
    if (arg < 0 || static_cast<std::size_t>(arg) >= flat_.numArgs) {
      bail("argument index beyond the codelet's arguments");
    }
    for (const auto& [a, at] : p_.argTypes) {
      if (a != arg) continue;
      if (at != t) bail("argument used with two dtypes");
      return;
    }
    p_.argTypes.emplace_back(arg, t);
  }

  // ---- register sharing ------------------------------------------------------

  // Per kind and register. A stable register cannot change while any name
  // reading it is live: a pooled constant, a loop's induction register, or
  // the home a once-assigned variable's assignment created. A copy may share
  // one instead of moving it. A shared register is read by more than one
  // name: a pooled constant, an induction register, the worker id, or an
  // alias target. No op may be retargeted into one.
  bool stable(const Val& v) const {
    return v.home && stable_[kindIndex(v.kind)][static_cast<std::size_t>(v.reg)];
  }
  bool shared(const Val& v) const {
    return v.home && shared_[kindIndex(v.kind)][static_cast<std::size_t>(v.reg)];
  }
  /// Marks a pooled constant's or a loop induction register.
  void pin(RegKind k, std::int16_t reg) {
    stable_[kindIndex(k)][static_cast<std::size_t>(reg)] = true;
    shared_[kindIndex(k)][static_cast<std::size_t>(reg)] = true;
  }

  // ---- conversions ---------------------------------------------------------

  /// The register kind holding an element of a (non-Float64) argument.
  static RegKind kindOf(DType t) {
    switch (t) {
      case DType::Float32: return RegKind::Float;
      case DType::DoubleWord: return RegKind::Dw;
      case DType::Float64: return RegKind::F64;
      default: return RegKind::Int;
    }
  }

  static VmOp::K loadOf(DType t) {
    switch (t) {
      case DType::Bool: return VmOp::K::BLoad;
      case DType::Int32: return VmOp::K::ILoad;
      case DType::Float32: return VmOp::K::FLoad;
      case DType::DoubleWord: return VmOp::K::DLoad;
      case DType::Float64: return VmOp::K::SLoad;
    }
    return VmOp::K::ILoad;
  }

  static VmOp::K storeOf(DType t) {
    switch (t) {
      case DType::Bool: return VmOp::K::BStore;
      case DType::Int32: return VmOp::K::IStore;
      case DType::Float32: return VmOp::K::FStore;
      case DType::DoubleWord: return VmOp::K::DStore;
      case DType::Float64: return VmOp::K::SStore;
    }
    return VmOp::K::IStore;
  }

  static RegKind wider(RegKind a, RegKind b) {
    return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a
                                                                          : b;
  }

  /// Scalar::castTo(kind k), uncharged: the op converting from each kind
  /// (indexed [to][from]; None for the identity).
  Val toKind(Val v, RegKind k) {
    using K = VmOp::K;
    static constexpr K kNone = K::Halt;
    static constexpr K kConv[4][4] = {
        {kNone, K::IFromFloat, K::DToInt, K::SToInt},
        {K::FFromInt, kNone, K::DHi, K::SToF},
        {K::DFromI, K::DFromF, kNone, K::SToD},
        {K::SFromI, K::SFromF, K::SFromD, kNone}};
    if (v.kind == k) return v;
    return emitVal(kConv[kindIndex(k)][kindIndex(v.kind)], k, v.reg);
  }
  Val toInt(Val v) { return toKind(v, RegKind::Int); }
  Val toFloat(Val v) { return toKind(v, RegKind::Float); }

  std::int16_t emitTruth(VmOp::K k, Val v) {
    return emitVal(k, RegKind::Int, v.reg).reg;
  }

  /// An int register that is nonzero exactly when Scalar::truthy() holds.
  std::int16_t truth(Val v) {
    switch (v.kind) {
      case RegKind::Float: return emitTruth(VmOp::K::FTruth, v);
      case RegKind::Dw: return emitTruth(VmOp::K::DTruth, v);
      case RegKind::F64: return emitTruth(VmOp::K::STruth, v);
      default: return v.reg;
    }
  }

  static VmOp::K movOf(RegKind k) {
    static constexpr VmOp::K kMov[4] = {VmOp::K::IMov, VmOp::K::FMov,
                                        VmOp::K::DMov, VmOp::K::SMov};
    return kMov[kindIndex(k)];
  }

  /// A register holding `v` that nothing else writes while it is live: loop
  /// bounds must not follow later assignments to the variables they read.
  std::int16_t snapshot(Val v) {
    if (!v.home || stable(v)) return v.reg;
    return emitVal(movOf(v.kind), v.kind, v.reg).reg;
  }

  /// Retargets the op that just produced `v` (the last op emitted) onto
  /// `home`, when nothing else can observe v's register: v is a fresh
  /// temporary, or a variable read nowhere else whose register no other
  /// name reads. An ISize stays put: liftKernel hoists it and refuses a
  /// kernel that writes its register.
  bool retarget(std::int16_t home, const Val& v) {
    if (v.home && (v.var < 0 || var(v.var).reads != 1 || shared(v))) {
      return false;
    }
    if (p_.ops.empty()) return false;
    VmOp& last = p_.ops.back();
    if (isControl(last.k) || last.k == VmOp::K::ISize ||
        shapeOf(last.k).dst != v.kind || last.dst != v.reg) {
      return false;
    }
    last.dst = home;
    return true;
  }

  /// Lands `v` in register `home`: retargeted, else moved.
  void move(std::int16_t home, const Val& v) {
    if (!retarget(home, v)) emit(movOf(v.kind), home, v.reg);
  }

  // ---- scopes --------------------------------------------------------------

  bool scopeOpen(int scope) const {
    return scope < 0 ||
           std::find(scopes_.begin(), scopes_.end(), scope) != scopes_.end();
  }

  int innermostScope() const { return scopes_.empty() ? -1 : scopes_.back(); }

  /// Compiles a statement list as a conditional scope: variables it first
  /// assigns are unreadable once it closes.
  void compileScope(std::int32_t listId) {
    scopes_.push_back(nextScope_++);
    compileList(listId);
    scopes_.pop_back();
  }

  void compileList(std::int32_t listId) {
    if (listId < 0) return;
    for (std::int32_t sid : flat_.lists[static_cast<std::size_t>(listId)]) {
      compileStmt(sid);
    }
  }

  /// The home register a read of `id` sees, creating the walk's Float32
  /// zero for a first touch.
  Val readVar(std::int32_t id) {
    Var& v = var(id);
    if (v.role == Var::Role::Retired) bail("loop variable read after its loop");
    if (v.reg >= 0) {
      if (!scopeOpen(v.scope)) {
        bail("variable read outside the scope that defines it");
      }
      return {v.reg, v.kind, true, id};
    }
    v.reg = newReg(RegKind::Float);
    v.kind = RegKind::Float;
    p_.entry.push_back({RegKind::Float, v.reg, 0});
    return {v.reg, RegKind::Float, true, id};
  }

  /// Compiles `id = v`. Its first assignment makes v's register the home
  /// when v is a fresh temporary, or when the variable is assigned only here
  /// and v's register is stable (the copy aliases it). Any other assignment
  /// lands in the home. A home whose defining scope has closed is dead and
  /// may be redefined.
  void assign(std::int32_t id, const Val& v) {
    Var& x = var(id);
    if (x.role != Var::Role::Plain) bail("assignment to a loop variable");
    if (x.reg >= 0 && !scopeOpen(x.scope)) {
      if (x.kind == v.kind) {
        x.scope = innermostScope();
      } else {
        x.reg = -1;
      }
    }
    if (x.reg >= 0) {
      if (x.kind != v.kind) bail("variable changes type");
      move(x.reg, v);
      return;
    }
    x.kind = v.kind;
    x.scope = innermostScope();
    const std::size_t k = kindIndex(v.kind);
    if (!v.home) {
      x.reg = v.reg;
    } else if (x.assigns == 1 && stable(v)) {
      x.reg = v.reg;
      shared_[k][static_cast<std::size_t>(v.reg)] = true;
      return;
    } else {
      x.reg = newReg(v.kind);
      emit(movOf(v.kind), x.reg, v.reg);
    }
    stable_[k][static_cast<std::size_t>(x.reg)] = x.assigns == 1;
  }

  /// True when a statement of `listId`, at any depth, assigns a variable
  /// that is readable here: one that outlives the scope just compiled.
  bool assignsLiveVar(std::int32_t listId) const {
    for (std::int32_t sid : flat_.lists[static_cast<std::size_t>(listId)]) {
      const FlatStmt& s = flat_.stmts[static_cast<std::size_t>(sid)];
      if (s.kind == Stmt::Kind::Assign) {
        const Var& v = vars_[static_cast<std::size_t>(s.var)];
        if (v.reg >= 0 && scopeOpen(v.scope)) return true;
      }
      if ((s.body >= 0 && assignsLiveVar(s.body)) ||
          (s.elseBody >= 0 && assignsLiveVar(s.elseBody))) {
        return true;
      }
    }
    return false;
  }

  // ---- expressions ---------------------------------------------------------

  Val compileExpr(std::int32_t id) {
    if (id < 0) bail("missing expression");
    const FlatExpr& e = flat_.exprs[static_cast<std::size_t>(id)];
    switch (e.kind) {
      case Expr::Kind::Const: return compileConst(e.constant);
      case Expr::Kind::Var: return readVar(e.var);
      case Expr::Kind::ArgLoad: {
        const Val idx = toInt(compileExpr(e.a));
        requireArg(e.arg, e.type);
        charge(ipu::Op::Load, e.type);
        const Val v = emitVal(loadOf(e.type), kindOf(e.type), idx.reg);
        at(static_cast<std::int32_t>(p_.ops.size()) - 1).arg =
            static_cast<std::int16_t>(e.arg);
        return v;
      }
      case Expr::Kind::ArgSize: {
        if (e.arg < 0 || static_cast<std::size_t>(e.arg) >= flat_.numArgs) {
          bail("argument index beyond the codelet's arguments");
        }
        charge(ipu::Op::IntArith, DType::Int32);
        const Val v = emitVal(VmOp::K::ISize, RegKind::Int);
        at(static_cast<std::int32_t>(p_.ops.size()) - 1).arg =
            static_cast<std::int16_t>(e.arg);
        return v;
      }
      case Expr::Kind::WorkerId:
        return {0, RegKind::Int, true};
      case Expr::Kind::Binary: return compileBinary(e);
      case Expr::Kind::Unary: return compileUnary(e);
      case Expr::Kind::Cast: return compileCast(e);
      case Expr::Kind::Select: return compileSelect(e);
    }
    GRAPHENE_UNREACHABLE("bad expr kind");
  }

  /// The pooled register holding constant `c`: one per register kind and
  /// bit pattern, set at entry.
  Val compileConst(const Scalar& c) {
    RegKind k = RegKind::Int;
    std::uint64_t bits = 0;
    switch (c.type()) {
      case DType::Bool:
      case DType::Int32:
        bits = static_cast<std::uint32_t>(c.castTo(DType::Int32).asInt());
        break;
      case DType::Float32:
        k = RegKind::Float;
        bits = std::bit_cast<std::uint32_t>(c.asFloat());
        break;
      case DType::DoubleWord:
        k = RegKind::Dw;
        bits = std::bit_cast<std::uint32_t>(c.asDoubleWord().hi) |
               std::uint64_t{std::bit_cast<std::uint32_t>(
                   c.asDoubleWord().lo)}
                   << 32;
        break;
      case DType::Float64:
        k = RegKind::F64;
        bits = c.asSoftDouble().bits();
        break;
    }
    for (const EntryLoad& e : pool_) {
      if (e.kind == k && e.bits == bits) return {e.reg, k, true};
    }
    const std::int16_t reg = newReg(k);
    pool_.push_back({k, reg, bits});
    pin(k, reg);
    return {reg, k, true};
  }

  /// evalBinaryScalar, priced like the walk's Binary case.
  Val compileBinary(const FlatExpr& e) {
    const Val a = compileExpr(e.a);
    const Val b = compileExpr(e.b);
    const RegKind k = wider(a.kind, b.kind);
    const DType t = dtypeOf(k);
    using K = VmOp::K;
    if (e.bop == BinOp::And || e.bop == BinOp::Or) {
      charge(costOpFor(e.bop, t), t);
      const std::int16_t ta = truth(a);
      const std::int16_t tb = truth(b);
      return emitVal(e.bop == BinOp::And ? K::LAnd : K::LOr, RegKind::Int, ta,
                     tb);
    }
    // Mixed double-word × single-word Add/Sub/Mul/Div use the cheaper DW∘FP
    // algorithms of Joldes et al. and are priced separately (§III-D), but
    // computed as DW∘DW on the promoted operand, exactly as the walk does.
    double mixed = 0;
    if (k == RegKind::Dw && a.kind != b.kind &&
        (a.kind == RegKind::Float || b.kind == RegKind::Float)) {
      switch (e.bop) {
        case BinOp::Add:
        case BinOp::Sub: mixed = 84.0; break;  // DWPlusFP, 10 flops
        case BinOp::Mul: mixed = 42.0; break;  // DWTimesFP3, 6 flops
        case BinOp::Div: mixed = 66.0; break;  // DWDivFP3, 10 flops
        default: break;
      }
    }
    if (e.bop == BinOp::Mod && k != RegKind::Int) {
      bail("modulo on non-integer operands");  // the walk throws
    }
    if (mixed > 0) {
      chargeLane(ipu::Lane::Fp, mixed);
    } else {
      charge(costOpFor(e.bop, t), t);
    }
    const Val ca = toKind(a, k);
    const Val cb = toKind(b, k);
    // Per kind: Add Sub Mul Div Min Max Lt Le Eq Ne.
    static constexpr K kOps[4][10] = {
        {K::IAdd, K::ISub, K::IMul, K::IDiv, K::IMin, K::IMax, K::ILt, K::ILe,
         K::IEq, K::INe},
        {K::FAdd, K::FSub, K::FMul, K::FDiv, K::FMin, K::FMax, K::FLt, K::FLe,
         K::FEq, K::FNe},
        {K::DAdd, K::DSub, K::DMul, K::DDiv, K::DMin, K::DMax, K::DLt, K::DLe,
         K::DEq, K::DNe},
        {K::SAdd, K::SSub, K::SMul, K::SDiv, K::SMin, K::SMax, K::SLt, K::SLe,
         K::SEq, K::SNe}};
    const auto& ops = kOps[kindIndex(k)];
    switch (e.bop) {
      case BinOp::Add: return emitVal(ops[0], k, ca.reg, cb.reg);
      case BinOp::Sub: return emitVal(ops[1], k, ca.reg, cb.reg);
      case BinOp::Mul: return emitVal(ops[2], k, ca.reg, cb.reg);
      case BinOp::Div: return emitVal(ops[3], k, ca.reg, cb.reg);
      case BinOp::Mod: return emitVal(K::IMod, k, ca.reg, cb.reg);
      case BinOp::Min: return emitVal(ops[4], k, ca.reg, cb.reg);
      case BinOp::Max: return emitVal(ops[5], k, ca.reg, cb.reg);
      case BinOp::Lt: return emitVal(ops[6], RegKind::Int, ca.reg, cb.reg);
      case BinOp::Le: return emitVal(ops[7], RegKind::Int, ca.reg, cb.reg);
      case BinOp::Gt: return emitVal(ops[6], RegKind::Int, cb.reg, ca.reg);
      case BinOp::Ge: return emitVal(ops[7], RegKind::Int, cb.reg, ca.reg);
      case BinOp::Eq: return emitVal(ops[8], RegKind::Int, ca.reg, cb.reg);
      case BinOp::Ne: return emitVal(ops[9], RegKind::Int, ca.reg, cb.reg);
      case BinOp::And:
      case BinOp::Or: break;
    }
    GRAPHENE_UNREACHABLE("bad binary op");
  }

  /// evalUnaryScalar, charged on the operand's type like the walk.
  Val compileUnary(const FlatExpr& e) {
    const Val a = compileExpr(e.a);
    charge(costOpFor(e.uop), dtypeOf(a.kind));
    using K = VmOp::K;
    switch (e.uop) {
      case UnOp::Not:
        return emitVal(K::INot, RegKind::Int, truth(a));
      case UnOp::Neg: {
        static constexpr K kNeg[4] = {K::INeg, K::FNeg, K::DNeg, K::SNeg};
        return emitVal(kNeg[kindIndex(a.kind)], a.kind, a.reg);
      }
      case UnOp::Abs: {
        static constexpr K kAbs[4] = {K::IAbs, K::FAbs, K::DAbs, K::SAbs};
        return emitVal(kAbs[kindIndex(a.kind)], a.kind, a.reg);
      }
      case UnOp::Sqrt:
        if (a.kind == RegKind::Dw) return emitVal(K::DSqrt, RegKind::Dw, a.reg);
        if (a.kind == RegKind::F64) {
          return emitVal(K::SSqrt, RegKind::F64, a.reg);
        }
        return emitVal(K::FSqrt, RegKind::Float, toFloat(a).reg);
    }
    GRAPHENE_UNREACHABLE("bad unary op");
  }

  /// Scalar::castTo(e.type), charged only when an extended type is involved.
  Val compileCast(const FlatExpr& e) {
    const Val a = compileExpr(e.a);
    const bool wideFrom = a.kind == RegKind::Dw || a.kind == RegKind::F64;
    if (e.type == DType::Bool) {
      if (wideFrom) charge(ipu::Op::Cast, DType::Bool);
      if (a.kind == RegKind::Int) {
        return emitVal(VmOp::K::INot, RegKind::Int,
                       emitVal(VmOp::K::INot, RegKind::Int, a.reg).reg);
      }
      return {truth(a), RegKind::Int};
    }
    const RegKind k = kindOf(e.type);
    if (k != a.kind &&
        (k == RegKind::Dw || k == RegKind::F64 || wideFrom)) {
      charge(ipu::Op::Cast, e.type);
    }
    return toKind(a, k);
  }

  /// Select evaluates only the chosen side; its branch charge joins the open
  /// lane block.
  Val compileSelect(const FlatExpr& e) {
    const std::int16_t cond = truth(compileExpr(e.a));
    charge(ipu::Op::Branch, DType::Int32);
    const std::int32_t sel = emitControl(VmOp::K::SelZ);
    at(sel).a = cond;
    const Val t = compileExpr(e.b);
    const std::int16_t dst = newReg(t.kind);
    move(dst, t);
    const std::int32_t thenEnd = emitControl(VmOp::K::Jmp);
    at(sel).iimm = thenEnd;
    const Val f = compileExpr(e.c);
    if (f.kind != t.kind) bail("Select sides of different types");
    move(dst, f);
    const std::int32_t elseEnd = emitControl(VmOp::K::Jmp);
    at(thenEnd).iimm = elseEnd;
    at(elseEnd).iimm = elseEnd;
    return {dst, t.kind};
  }

  // ---- statements -----------------------------------------------------------

  void compileStmt(std::int32_t sid) {
    const FlatStmt& s = flat_.stmts[static_cast<std::size_t>(sid)];
    switch (s.kind) {
      case Stmt::Kind::Assign:
        assign(s.var, compileExpr(s.value));
        return;
      case Stmt::Kind::StoreArg: {
        const Val idx = toInt(compileExpr(s.index));
        const Val v = compileExpr(s.value);
        requireArg(s.arg, s.type);
        // The storage converts with Scalar::castTo, uncharged.
        const std::int16_t stored = s.type == DType::Bool
                                        ? truth(v)
                                        : toKind(v, kindOf(s.type)).reg;
        charge(ipu::Op::Store, s.type);
        const std::int32_t pc =
            emit(storeOf(s.type), -1, idx.reg, stored);
        at(pc).arg = static_cast<std::int16_t>(s.arg);
        return;
      }
      case Stmt::Kind::If: {
        const std::int16_t cond = truth(compileExpr(s.cond));
        const std::int32_t jz = emitControl(VmOp::K::JmpZ);
        at(jz).a = cond;
        compileScope(s.body);
        const std::int32_t thenEnd = emitControl(VmOp::K::Jmp);
        at(jz).iimm = thenEnd;
        at(thenEnd).iimm = thenEnd;
        if (s.elseBody >= 0 &&
            !flat_.lists[static_cast<std::size_t>(s.elseBody)].empty()) {
          compileScope(s.elseBody);
          const std::int32_t elseEnd = emitControl(VmOp::K::Jmp);
          at(elseEnd).iimm = elseEnd;
          at(thenEnd).iimm = elseEnd;
        }
        return;
      }
      case Stmt::Kind::While: {
        const std::int32_t begin = emitControl(VmOp::K::WBegin);
        at(begin).dst = newReg(RegKind::Int);
        const std::int16_t cond = truth(compileExpr(s.cond));
        const std::int32_t test = emitControl(VmOp::K::WTest);
        at(test).a = cond;
        compileScope(s.body);
        const std::int32_t end = emitControl(VmOp::K::WEnd);
        at(end).dst = at(begin).dst;
        at(end).iimm = begin;
        at(test).iimm = end;
        return;
      }
      case Stmt::Kind::For:
      case Stmt::Kind::ParFor:
        compileLoop(s);
        return;
    }
    GRAPHENE_UNREACHABLE("bad stmt kind");
  }

  void compileLoop(const FlatStmt& s) {
    if (s.var < 0 || s.body < 0) bail("loop without a body");
    Var& v = var(s.var);
    if (v.reg >= 0 || v.role != Var::Role::Plain) bail("reused loop variable");
    const bool par = s.kind == Stmt::Kind::ParFor;
    const std::int16_t begin = toInt(compileExpr(s.begin)).reg;
    const std::int16_t end = snapshot(toInt(compileExpr(s.end)));
    std::int16_t step;
    if (s.step >= 0) {
      step = snapshot(toInt(compileExpr(s.step)));
    } else {
      step = compileConst(Scalar(std::int32_t{1})).reg;
    }
    // Counted loops compile to the IPU's hardware-loop instructions: setup
    // costs one integer op plus the entry branch. A ParFor's cost is its
    // worker pool's.
    if (!par) charge(ipu::Op::IntArith, DType::Int32);
    const std::int16_t iv = newReg(RegKind::Int);
    pin(RegKind::Int, iv);
    const std::int32_t head =
        emitControl(par ? VmOp::K::PBegin : VmOp::K::LBegin);
    at(head).a = begin;
    at(head).b = end;
    at(head).c = step;
    at(head).dst = iv;
    at(head).arg = -1;
    v.role = Var::Role::Induction;
    v.reg = iv;
    v.kind = RegKind::Int;
    if (par) ++parDepth_;
    compileScope(s.body);
    if (par) --parDepth_;
    v.role = Var::Role::Retired;
    const std::int32_t tail =
        emitControl(par ? VmOp::K::PEnd : VmOp::K::LEnd);
    at(head).iimm = tail;
    if (par) {
      // Native rows skip the row's ops, so nothing they assign may be
      // readable after the row. finish() matches the rows on the ops it
      // leaves.
      if (!assignsLiveVar(s.body)) rowHeads_.push_back(head);
      return;
    }
    at(tail).a = iv;
    at(tail).b = end;
    at(tail).c = step;
    at(tail).iimm = head;
    if (parDepth_ == 0) liftKernel(head, tail);
  }

  /// Lifts an inline serial loop whose body is straight-line Float32/Int32
  /// arithmetic into a LoopKernel run by one FastFor op: the body's ops move
  /// into the kernel with registers renumbered compactly, so the kernel can
  /// run as the named dot partial or block-vectorized. The FastFor keeps the
  /// LBegin's run and charges the LEnd's per iteration. Loops inside a
  /// ParFor row stay inline: their rows are short, and the native row plans
  /// need them.
  void liftKernel(std::int32_t head, std::int32_t tail) {
    using K = VmOp::K;
    constexpr std::size_t R = Program::kMaxRegs;
    LoopKernel k;
    k.iter = at(tail).run;
    // Program register → kernel register per kind (Int, Float), -1 while
    // unmapped; the induction variable is kernel int register 0.
    std::array<std::array<std::int16_t, R>, 2> map;
    for (auto& m : map) m.fill(-1);
    std::array<std::bitset<R>, 2> written;
    std::bitset<R> sizeRegs;
    map[0][static_cast<std::size_t>(at(head).dst)] = 0;
    k.numIntRegs = 1;
    bool ok = true;
    // A read before any write seeds the kernel register.
    auto mapReg = [&](RegKind kind, std::int16_t reg,
                      bool read) -> std::int16_t {
      std::int16_t& kr = map[kindIndex(kind)][static_cast<std::size_t>(reg)];
      if (kr >= 0) return kr;
      const bool isInt = kind == RegKind::Int;
      int& count = isInt ? k.numIntRegs : k.numFloatRegs;
      if (count >= static_cast<int>(LoopKernel::kMaxRegs)) {
        ok = false;
        return 0;
      }
      kr = static_cast<std::int16_t>(count++);
      if (read) (isInt ? k.seedInt : k.seedFloat).emplace_back(reg, kr);
      return kr;
    };
    for (std::int32_t pc = head + 1; ok && pc < tail; ++pc) {
      VmOp op = at(pc);
      const auto dst = static_cast<std::size_t>(op.dst);
      if (op.k == K::ISize) {
        // An argument size is loop-invariant: seed it once per entry.
        if (map[0][dst] >= 0) ok = false;
        k.sizeSeeds.emplace_back(mapReg(RegKind::Int, op.dst, false), op.arg);
        sizeRegs[dst] = true;
        continue;
      }
      const OpShape& s = shapeOf(op.k);
      if (!s.kernel()) return;  // control flow or an op outside the subset
      if (op.arg >= static_cast<std::int16_t>(LoopKernel::kMaxArgs)) ok = false;
      if (s.a != RegKind::None) op.a = mapReg(s.a, op.a, true);
      if (s.b != RegKind::None) op.b = mapReg(s.b, op.b, true);
      if (s.dst != RegKind::None) {
        // ISize hoisting needs its register unwritten.
        if (s.dst == RegKind::Int && sizeRegs[dst]) ok = false;
        written[kindIndex(s.dst)][dst] = true;
        op.dst = mapReg(s.dst, op.dst, false);
      }
      k.ops.push_back(op);
    }
    if (!ok) return;
    // Write back, once each, the registers of variables that outlive the
    // loop.
    for (const Var& v : vars_) {
      if (v.reg < 0 || v.role != Var::Role::Plain || !scopeOpen(v.scope) ||
          (v.kind != RegKind::Int && v.kind != RegKind::Float)) {
        continue;
      }
      const std::size_t kind = kindIndex(v.kind);
      const auto reg = static_cast<std::size_t>(v.reg);
      if (!written[kind][reg]) continue;
      written[kind][reg] = false;
      (v.kind == RegKind::Float ? k.writeFloat : k.writeInt)
          .emplace_back(v.reg, map[kind][reg]);
    }
    analyzeBlockable(k);
    matchDot(k);
    at(head).k = K::FastFor;
    at(head).iimm = static_cast<std::int32_t>(p_.kernels.size());
    p_.kernels.push_back(std::move(k));
    p_.ops.resize(static_cast<std::size_t>(head) + 1);
  }

  // ---- after the last op -----------------------------------------------------

  /// Fuses each If's int comparison into its branch, deletes every pure op
  /// whose result nothing reads (no op or kernel seed), remaps the jump
  /// targets, keeps only the entry loads something reads, and plans the
  /// native rows on the ops that remain.
  void finish() {
    ReadCounts reads(p_.numInt, p_.numFloat, p_.numDw, p_.numF64);
    for (const VmOp& op : p_.ops) reads.addReads(op);
    for (const LoopKernel& k : p_.kernels) {
      for (const auto& [reg, kr] : k.seedFloat) reads.add(RegKind::Float, reg);
      for (const auto& [reg, kr] : k.seedInt) reads.add(RegKind::Int, reg);
    }
    fuseCompareBranches(reads);
    const std::vector<std::int32_t> newPc = deleteDeadOps(p_.ops, reads);
    for (VmOp& op : p_.ops) {
      if (shapeOf(op.k).jump()) {
        op.iimm = newPc[static_cast<std::size_t>(op.iimm)];
      }
    }
    p_.entry.insert(p_.entry.end(), pool_.begin(), pool_.end());
    std::erase_if(p_.entry, [&](const EntryLoad& e) {
      return reads.at(e.kind, e.reg) == 0;
    });
    std::int16_t one = -1;  // the pooled Int constant 1
    for (const EntryLoad& e : pool_) {
      if (e.kind == RegKind::Int && e.bits == 1) one = e.reg;
    }
    for (const std::int32_t head : rowHeads_) {
      const auto pc =
          static_cast<std::size_t>(newPc[static_cast<std::size_t>(head)]);
      CsrRow csr;
      TriRow tri;
      const bool isCsr = matchCsrRow(p_.ops, pc, one, p_.branchCost, csr);
      if (!isCsr && !matchTriRow(p_.ops, pc, p_.branchCost, tri)) continue;
      p_.ops[pc].arg = static_cast<std::int16_t>(p_.rowPlans.size());
      p_.rowPlans.push_back(isCsr ? RowPlan(csr) : RowPlan(tri));
    }
  }

  /// An If whose condition is an int comparison made by the op just before
  /// its JmpZ branches on the comparison itself: no jump lands between the
  /// two, since every jump resumes after a control op. The condition must
  /// have no other reader, the comparison included: one produced straight
  /// into a home may have overwritten its own operand.
  void fuseCompareBranches(ReadCounts& reads) {
    using K = VmOp::K;
    for (std::size_t pc = 1; pc < p_.ops.size(); ++pc) {
      VmOp& br = p_.ops[pc];
      const VmOp& cmp = p_.ops[pc - 1];
      if (br.k != K::JmpZ || cmp.dst != br.a ||
          reads.at(RegKind::Int, br.a) != 1) {
        continue;
      }
      switch (cmp.k) {
        case K::ILt: br.k = K::IfLt; break;
        case K::ILe: br.k = K::IfLe; break;
        case K::IEq: br.k = K::IfEq; break;
        case K::INe: br.k = K::IfNe; break;
        default: continue;
      }
      br.a = cmp.a;
      br.b = cmp.b;
      reads.addReads(br);
      reads.drop(RegKind::Int, cmp.dst);  // dead-op elimination deletes it
    }
  }

  const FlatCodelet& flat_;
  const ipu::CostModel& cost_;
  Program p_;
  LaneSums run_;  // charges since the last control op
  const char* why_ = "";
  std::vector<Var> vars_;          // indexed by variable id
  std::vector<EntryLoad> pool_;    // the constants, one per kind and value
  std::array<std::bitset<Program::kMaxRegs>, 4> stable_, shared_;
  std::vector<int> scopes_;  // open conditional scopes, innermost last
  int nextScope_ = 0;
  int parDepth_ = 0;  // enclosing ParFor rows
  // PBegin pcs, before dead-op elimination, of the rows finish() tries as
  // native rows: nothing they assign outlives them.
  std::vector<std::int32_t> rowHeads_;
};

}  // namespace

// ---------------------------------------------------------------------------
// CompiledCodelet.
// ---------------------------------------------------------------------------

class CompiledCodelet {
 public:
  FlatCodelet flat;
  std::optional<Program> program;  // empty: every vertex walks
  const char* walkReason = nullptr;
  ipu::CostModel cost;
  std::size_t numWorkers = 6;
};

namespace {

std::atomic<bool> g_fastPaths{!support::envFlag("GRAPHENE_NO_FASTPATH")};
std::atomic<std::uint64_t> g_walkEntries{0};

/// Throws the walk's error for an element index outside [0, size).
[[noreturn]] void throwIndexError(std::int64_t i, std::size_t size) {
  GRAPHENE_CHECK(i >= 0, "negative tensor index in codelet");
  GRAPHENE_CHECK(static_cast<std::size_t>(i) < size,
                 "tensor index out of range in codelet");
  GRAPHENE_UNREACHABLE("index in range");
}

/// The generic statement walk: one execution of a codelet over a vertex with
/// dynamically typed Scalars. It is the reference semantics the VM is held
/// to (GRAPHENE_NO_FASTPATH runs it everywhere) and the fallback for a
/// codelet that did not compile or a vertex whose argument dtypes differ
/// from trace time. Ops accumulate into a LaneCycles block (fp/mem overlap);
/// control flow flushes the block.
class FlatExec {
 public:
  FlatExec(const CompiledCodelet& cc, graph::VertexContext& ctx)
      : cc_(cc), ctx_(ctx),
        vars_(static_cast<std::size_t>(cc.flat.numVars)) {}

  double run() {
    runList(cc_.flat.root);
    flush();
    return total_;
  }

 private:
  void flush() {
    total_ += lanes_.total();
    lanes_ = ipu::LaneCycles{};
  }

  void charge(ipu::Op op, DType t) { lanes_.add(cc_.cost, op, t); }

  void chargeBranch() {
    flush();
    total_ += cc_.cost.workerCycles(ipu::Op::Branch, DType::Int32);
  }

  const FlatExpr& expr(std::int32_t id) const {
    return cc_.flat.exprs[static_cast<std::size_t>(id)];
  }

  /// The slice-relative element index `idx` names in argument `arg`.
  std::size_t elementIndex(const Scalar& idx, std::int32_t arg) const {
    const std::int32_t i = idx.castTo(DType::Int32).asInt();
    GRAPHENE_CHECK(i >= 0, "negative tensor index in codelet");
    GRAPHENE_CHECK(static_cast<std::size_t>(i) <
                       ctx_.argSize(static_cast<std::size_t>(arg)),
                   "tensor index out of range in codelet");
    return static_cast<std::size_t>(i);
  }

  Scalar eval(std::int32_t id) {
    GRAPHENE_DCHECK(id >= 0, "null expression");
    const FlatExpr& e = expr(id);
    switch (e.kind) {
      case Expr::Kind::Const:
        return e.constant;
      case Expr::Kind::Var:
        GRAPHENE_DCHECK(e.var >= 0 &&
                            static_cast<std::size_t>(e.var) < vars_.size(),
                        "bad var slot");
        return vars_[static_cast<std::size_t>(e.var)];
      case Expr::Kind::ArgLoad: {
        const std::size_t i = elementIndex(eval(e.a), e.arg);
        charge(ipu::Op::Load, ctx_.argType(static_cast<std::size_t>(e.arg)));
        return ctx_.load(static_cast<std::size_t>(e.arg), i);
      }
      case Expr::Kind::ArgSize:
        charge(ipu::Op::IntArith, DType::Int32);
        return Scalar(static_cast<std::int32_t>(
            ctx_.argSize(static_cast<std::size_t>(e.arg))));
      case Expr::Kind::Binary: {
        Scalar a = eval(e.a);
        Scalar b = eval(e.b);
        DType common = promote(a.type(), b.type());
        // Mixed double-word × single-word operations use the cheaper
        // DW∘FP algorithms of Joldes et al. (6–10 flops instead of 9–31):
        // price them separately instead of as full DW∘DW (§III-D).
        if (common == DType::DoubleWord && a.type() != b.type() &&
            (a.type() == DType::Float32 || b.type() == DType::Float32)) {
          double cycles = 0;
          switch (e.bop) {
            case BinOp::Add:
            case BinOp::Sub: cycles = 84.0; break;   // DWPlusFP, 10 flops
            case BinOp::Mul: cycles = 42.0; break;   // DWTimesFP3, 6 flops
            case BinOp::Div: cycles = 66.0; break;   // DWDivFP3, 10 flops
            default: cycles = 0; break;              // fall through below
          }
          if (cycles > 0) {
            lanes_.add(ipu::Lane::Fp, cycles);
            return evalBinaryScalar(e.bop, a, b);
          }
        }
        charge(costOpFor(e.bop, common), common);
        return evalBinaryScalar(e.bop, a, b);
      }
      case Expr::Kind::Unary: {
        Scalar a = eval(e.a);
        charge(costOpFor(e.uop), a.type());
        return evalUnaryScalar(e.uop, a);
      }
      case Expr::Kind::Cast: {
        Scalar a = eval(e.a);
        if (a.type() != e.type &&
            (e.type == DType::DoubleWord || e.type == DType::Float64 ||
             a.type() == DType::DoubleWord || a.type() == DType::Float64)) {
          charge(ipu::Op::Cast, e.type);
        }
        return a.castTo(e.type);
      }
      case Expr::Kind::Select: {
        Scalar c = eval(e.a);
        // Single-cycle conditional select on the IPU.
        charge(ipu::Op::Branch, DType::Int32);
        return c.truthy() ? eval(e.b) : eval(e.c);
      }
      case Expr::Kind::WorkerId:
        return Scalar(static_cast<std::int32_t>(worker_));
    }
    GRAPHENE_UNREACHABLE("bad expr kind");
  }

  void runList(std::int32_t listId) {
    if (listId < 0) return;
    for (std::int32_t sid : cc_.flat.lists[static_cast<std::size_t>(listId)]) {
      runStmt(cc_.flat.stmts[static_cast<std::size_t>(sid)]);
    }
  }

  void runStmt(const FlatStmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        Scalar v = eval(s.value);
        GRAPHENE_DCHECK(s.var >= 0 &&
                            static_cast<std::size_t>(s.var) < vars_.size(),
                        "bad var slot");
        vars_[static_cast<std::size_t>(s.var)] = v;
        return;
      }
      case Stmt::Kind::StoreArg: {
        Scalar idx = eval(s.index);
        Scalar v = eval(s.value);
        const std::size_t i = elementIndex(idx, s.arg);
        charge(ipu::Op::Store, ctx_.argType(static_cast<std::size_t>(s.arg)));
        ctx_.store(static_cast<std::size_t>(s.arg), i, v);
        return;
      }
      case Stmt::Kind::If: {
        Scalar c = eval(s.cond);
        chargeBranch();
        if (c.truthy()) {
          runList(s.body);
        } else {
          runList(s.elseBody);
        }
        return;
      }
      case Stmt::Kind::While: {
        int guard = 0;
        while (true) {
          Scalar c = eval(s.cond);
          chargeBranch();
          if (!c.truthy()) break;
          runList(s.body);
          GRAPHENE_CHECK(++guard < (1 << 26), "runaway While loop in codelet");
        }
        return;
      }
      case Stmt::Kind::For: {
        runFor(s, /*parallel=*/false);
        return;
      }
      case Stmt::Kind::ParFor: {
        runFor(s, /*parallel=*/true);
        return;
      }
    }
    GRAPHENE_UNREACHABLE("bad stmt kind");
  }

  void runFor(const FlatStmt& s, bool parallel) {
    const std::int32_t begin = eval(s.begin).castTo(DType::Int32).asInt();
    const std::int32_t end = eval(s.end).castTo(DType::Int32).asInt();
    const std::int32_t step =
        s.step >= 0 ? eval(s.step).castTo(DType::Int32).asInt() : 1;
    GRAPHENE_CHECK(step > 0, "For loops require a positive step");
    GRAPHENE_DCHECK(s.var >= 0, "loop without induction variable");

    if (!parallel) {
      // Counted loops compile to the IPU's hardware-loop (rpt-style)
      // instructions: setup costs one integer op + branch, iterations carry
      // no bookkeeping overhead.
      charge(ipu::Op::IntArith, DType::Int32);
      chargeBranch();
      for (std::int32_t i = begin; i < end; i += step) {
        vars_[static_cast<std::size_t>(s.var)] = Scalar(i);
        runList(s.body);
      }
      return;
    }

    // Worker-parallel loop (iputhreading): iterations are dealt round-robin
    // to the tile's workers. Functionally they run in order (iterations in a
    // level are independent by construction); the clock advances by the
    // slowest worker plus spawn/sync overhead.
    flush();
    ipu::WorkerPool pool(cc_.numWorkers);
    pool.chargeSpawn();
    const std::size_t savedWorker = worker_;
    std::size_t w = 0;
    for (std::int32_t i = begin; i < end; i += step) {
      vars_[static_cast<std::size_t>(s.var)] = Scalar(i);
      worker_ = w;
      const double before = total_;
      runList(s.body);
      flush();
      pool.addCycles(w, total_ - before);
      total_ = before;  // iteration cost moved into the pool
      w = (w + 1) % cc_.numWorkers;
    }
    worker_ = savedWorker;
    total_ += pool.sync();
  }

  const CompiledCodelet& cc_;
  graph::VertexContext& ctx_;
  std::vector<Scalar> vars_;
  ipu::LaneCycles lanes_;
  double total_ = 0;
  std::size_t worker_ = 0;
};

/// The scalar semantics of the serial-kernel subset (Mov, Add, Sub, Mul,
/// Div, Min, Max, Neg, Abs, Sqrt and the int/float casts), one definition
/// per op: the program VM's ops and the lane executor at every width call
/// these. Min and Max break ties like the walk's binNumeric, whatever the
/// register kind.
namespace kop {
constexpr auto mov = [](auto a) { return a; };
constexpr auto add = [](auto a, auto b) { return a + b; };
constexpr auto sub = [](auto a, auto b) { return a - b; };
constexpr auto mul = [](auto a, auto b) { return a * b; };
constexpr auto div = [](auto a, auto b) { return a / b; };
constexpr auto min = [](auto a, auto b) { return b < a ? b : a; };
constexpr auto max = [](auto a, auto b) { return a < b ? b : a; };
constexpr auto neg = [](auto a) { return -a; };
constexpr auto abs = [](auto a) {
  if constexpr (std::is_integral_v<decltype(a)>) {
    return a < 0 ? -a : a;
  } else {
    return std::fabs(a);
  }
};
constexpr auto sqrt = [](float a) { return std::sqrt(a); };
template <typename To>
constexpr auto cast = [](auto a) { return static_cast<To>(a); };
}  // namespace kop

/// Applies a kop definition to every lane. The loop holds no branch on the
/// op, and computes into a local before assigning it: d may alias a or b,
/// which would otherwise keep GCC from vectorizing the loop.
template <typename F, typename D, typename A, std::size_t B>
void lanes(F f, std::array<D, B>& d, const std::array<A, B>& a) {
  std::array<D, B> r;
  for (std::size_t j = 0; j < B; ++j) r[j] = f(a[j]);
  d = r;
}
template <typename F, typename T, std::size_t B>
void lanes(F f, std::array<T, B>& d, const std::array<T, B>& a,
           const std::array<T, B>& b) {
  std::array<T, B> r;
  for (std::size_t j = 0; j < B; ++j) r[j] = f(a[j], b[j]);
  d = r;
}

/// A loop kernel's register files, B lanes per register: lane j holds the
/// register's value for element iv + j. Not zeroed: a kernel writes every
/// register before reading it, except the seeds VmExec::seed sets.
template <std::size_t B>
struct LaneRegs {
  alignas(64) std::array<std::array<float, B>, LoopKernel::kMaxRegs> f;
  alignas(64) std::array<std::array<std::int32_t, B>, LoopKernel::kMaxRegs> i;
};

/// Element `i` of an argument of `size` elements, checked with the walk's
/// messages.
std::size_t checkedIndex(std::int32_t i, std::size_t size) {
  if (static_cast<std::uint32_t>(i) >= size) throwIndexError(i, size);
  return static_cast<std::size_t>(i);
}

/// A double-word register: a Float2 without default member initializers,
/// so a register file on the stack needs no clearing.
struct DwReg {
  float hi, lo;
  DwReg& operator=(const Float2& v) {
    hi = v.hi;
    lo = v.lo;
    return *this;
  }
};

/// One execution of a codelet's Program over a vertex. The register files
/// live on the caller's stack; arguments are the plan-bound spans.
class VmExec {
 public:
  VmExec(const CompiledCodelet& cc, const graph::ArgSpan* args, float* fr,
         std::int32_t* ir, DwReg* dr, std::uint64_t* sr)
      : prog_(*cc.program), numWorkers_(cc.numWorkers), args_(args),
        fr_(fr), ir_(ir), dr_(dr), sr_(sr) {}

  double run() {
    ir_[0] = 0;  // worker id outside any ParFor
    for (const EntryLoad& e : prog_.entry) {
      const auto lo = static_cast<std::uint32_t>(e.bits);
      switch (e.kind) {
        case RegKind::Int: ir_[e.reg] = std::bit_cast<std::int32_t>(lo); break;
        case RegKind::Float: fr_[e.reg] = std::bit_cast<float>(lo); break;
        case RegKind::Dw:
          dr_[e.reg] = DwReg{std::bit_cast<float>(lo),
                             std::bit_cast<float>(
                                 static_cast<std::uint32_t>(e.bits >> 32))};
          break;
        default: sr_[e.reg] = e.bits; break;
      }
    }
    return exec(0);
  }

 private:
  template <typename T>
  T* data(std::int16_t arg) const {
    return static_cast<T*>(args_[arg].data);
  }

  /// Bounds-checks a load/store index with the walk's messages.
  std::size_t index(std::int16_t arg, std::int16_t reg) const {
    return checkedIndex(ir_[reg], args_[arg].size);
  }

  /// Runs from `pc` to the next PEnd or Halt at this nesting level; returns
  /// the cost: closed lane blocks, branches and pool barriers plus the open
  /// block.
  double exec(std::size_t pc) {
    const VmOp* ops = prog_.ops.data();
    float* const fr = fr_;
    std::int32_t* const ir = ir_;
    DwReg* const dr = dr_;
    std::uint64_t* const sr = sr_;
    auto dw = [dr](std::int16_t r) { return Float2(dr[r].hi, dr[r].lo); };
    auto sd = [sr](std::int16_t r) { return SoftDouble::fromBits(sr[r]); };
    LaneSums open;
    double cost = 0;
    auto close = [&] {
      cost += open.total() + prog_.branchCost;
      open = LaneSums{};
    };
    using K = VmOp::K;
    for (;; ++pc) {
      const VmOp& op = ops[pc];
      switch (op.k) {
        case K::FMov: fr[op.dst] = kop::mov(fr[op.a]); break;
        case K::FLoad:
          fr[op.dst] = data<float>(op.arg)[index(op.arg, op.a)];
          break;
        case K::FStore:
          data<float>(op.arg)[index(op.arg, op.a)] = fr[op.b];
          break;
        case K::FAdd: fr[op.dst] = kop::add(fr[op.a], fr[op.b]); break;
        case K::FSub: fr[op.dst] = kop::sub(fr[op.a], fr[op.b]); break;
        case K::FMul: fr[op.dst] = kop::mul(fr[op.a], fr[op.b]); break;
        case K::FDiv: fr[op.dst] = kop::div(fr[op.a], fr[op.b]); break;
        case K::FMin: fr[op.dst] = kop::min(fr[op.a], fr[op.b]); break;
        case K::FMax: fr[op.dst] = kop::max(fr[op.a], fr[op.b]); break;
        case K::FNeg: fr[op.dst] = kop::neg(fr[op.a]); break;
        case K::FAbs: fr[op.dst] = kop::abs(fr[op.a]); break;
        case K::FSqrt: fr[op.dst] = kop::sqrt(fr[op.a]); break;
        case K::FFromInt: fr[op.dst] = kop::cast<float>(ir[op.a]); break;
        case K::IMov: ir[op.dst] = kop::mov(ir[op.a]); break;
        case K::ILoad:
          ir[op.dst] = data<std::int32_t>(op.arg)[index(op.arg, op.a)];
          break;
        case K::IStore:
          data<std::int32_t>(op.arg)[index(op.arg, op.a)] = ir[op.b];
          break;
        case K::ISize:
          ir[op.dst] = static_cast<std::int32_t>(args_[op.arg].size);
          break;
        case K::BLoad:
          ir[op.dst] = data<std::uint8_t>(op.arg)[index(op.arg, op.a)] != 0;
          break;
        case K::BStore:
          data<std::uint8_t>(op.arg)[index(op.arg, op.a)] = ir[op.b] != 0;
          break;
        case K::IAdd: ir[op.dst] = kop::add(ir[op.a], ir[op.b]); break;
        case K::ISub: ir[op.dst] = kop::sub(ir[op.a], ir[op.b]); break;
        case K::IMul: ir[op.dst] = kop::mul(ir[op.a], ir[op.b]); break;
        case K::IDiv:
          GRAPHENE_CHECK(ir[op.b] != 0, "integer division by zero in codelet");
          ir[op.dst] = ir[op.a] / ir[op.b];
          break;
        case K::IMod:
          GRAPHENE_CHECK(ir[op.b] != 0, "integer modulo by zero in codelet");
          ir[op.dst] = ir[op.a] % ir[op.b];
          break;
        case K::IMin: ir[op.dst] = kop::min(ir[op.a], ir[op.b]); break;
        case K::IMax: ir[op.dst] = kop::max(ir[op.a], ir[op.b]); break;
        case K::INeg: ir[op.dst] = kop::neg(ir[op.a]); break;
        case K::IAbs: ir[op.dst] = kop::abs(ir[op.a]); break;
        case K::IFromFloat:
          ir[op.dst] = kop::cast<std::int32_t>(fr[op.a]);
          break;
        case K::ILt: ir[op.dst] = ir[op.a] < ir[op.b]; break;
        case K::ILe: ir[op.dst] = ir[op.a] <= ir[op.b]; break;
        case K::IEq: ir[op.dst] = ir[op.a] == ir[op.b]; break;
        case K::INe: ir[op.dst] = !(ir[op.a] == ir[op.b]); break;
        case K::FLt: ir[op.dst] = fr[op.a] < fr[op.b]; break;
        case K::FLe: ir[op.dst] = fr[op.a] <= fr[op.b]; break;
        case K::FEq: ir[op.dst] = fr[op.a] == fr[op.b]; break;
        case K::FNe: ir[op.dst] = !(fr[op.a] == fr[op.b]); break;
        case K::FTruth: ir[op.dst] = fr[op.a] != 0.0f; break;
        case K::INot: ir[op.dst] = ir[op.a] == 0; break;
        case K::LAnd: ir[op.dst] = ir[op.a] != 0 && ir[op.b] != 0; break;
        case K::LOr: ir[op.dst] = ir[op.a] != 0 || ir[op.b] != 0; break;
        case K::DMov: dr[op.dst] = dr[op.a]; break;
        case K::DLoad:
          dr[op.dst] = data<Float2>(op.arg)[index(op.arg, op.a)];
          break;
        case K::DStore:
          data<Float2>(op.arg)[index(op.arg, op.a)] = dw(op.b);
          break;
        case K::DAdd: dr[op.dst] = dw(op.a) + dw(op.b); break;
        case K::DSub: dr[op.dst] = dw(op.a) - dw(op.b); break;
        case K::DMul: dr[op.dst] = dw(op.a) * dw(op.b); break;
        case K::DDiv: dr[op.dst] = dw(op.a) / dw(op.b); break;
        case K::DMin: dr[op.dst] = kop::min(dw(op.a), dw(op.b)); break;
        case K::DMax: dr[op.dst] = kop::max(dw(op.a), dw(op.b)); break;
        case K::DNeg: dr[op.dst] = -dw(op.a); break;
        case K::DAbs: dr[op.dst] = twofloat::abs(dw(op.a)); break;
        case K::DSqrt: dr[op.dst] = twofloat::sqrt(dw(op.a)); break;
        case K::DLt: ir[op.dst] = dw(op.a) < dw(op.b); break;
        case K::DLe: ir[op.dst] = dw(op.a) <= dw(op.b); break;
        case K::DEq: ir[op.dst] = dw(op.a) == dw(op.b); break;
        case K::DNe: ir[op.dst] = !(dw(op.a) == dw(op.b)); break;
        case K::DFromF: dr[op.dst] = Float2(fr[op.a]); break;
        case K::DFromI:
          dr[op.dst] = Float2::fromWide(static_cast<double>(ir[op.a]));
          break;
        case K::DHi: fr[op.dst] = dr[op.a].hi; break;
        case K::DToInt:
          ir[op.dst] = static_cast<std::int32_t>(dw(op.a).toWide());
          break;
        case K::DTruth:
          ir[op.dst] = dr[op.a].hi != 0.0f || dr[op.a].lo != 0.0f;
          break;
        case K::SMov: sr[op.dst] = sr[op.a]; break;
        case K::SLoad:
          sr[op.dst] = data<SoftDouble>(op.arg)[index(op.arg, op.a)].bits();
          break;
        case K::SStore:
          data<SoftDouble>(op.arg)[index(op.arg, op.a)] = sd(op.b);
          break;
        case K::SAdd: sr[op.dst] = (sd(op.a) + sd(op.b)).bits(); break;
        case K::SSub: sr[op.dst] = (sd(op.a) - sd(op.b)).bits(); break;
        case K::SMul: sr[op.dst] = (sd(op.a) * sd(op.b)).bits(); break;
        case K::SDiv: sr[op.dst] = (sd(op.a) / sd(op.b)).bits(); break;
        case K::SMin: sr[op.dst] = kop::min(sd(op.a), sd(op.b)).bits(); break;
        case K::SMax: sr[op.dst] = kop::max(sd(op.a), sd(op.b)).bits(); break;
        case K::SNeg: sr[op.dst] = (-sd(op.a)).bits(); break;
        case K::SAbs: sr[op.dst] = SoftDouble::abs(sd(op.a)).bits(); break;
        case K::SSqrt: sr[op.dst] = SoftDouble::sqrt(sd(op.a)).bits(); break;
        case K::SLt: ir[op.dst] = sd(op.a) < sd(op.b); break;
        case K::SLe: ir[op.dst] = sd(op.a) <= sd(op.b); break;
        case K::SEq: ir[op.dst] = sd(op.a) == sd(op.b); break;
        case K::SNe: ir[op.dst] = !(sd(op.a) == sd(op.b)); break;
        case K::SFromI:
          sr[op.dst] =
              SoftDouble::fromDouble(static_cast<double>(ir[op.a])).bits();
          break;
        case K::SFromF:
          sr[op.dst] = SoftDouble::fromFloat(fr[op.a]).bits();
          break;
        case K::SFromD:
          // hi + lo, both exact widenings, summed in software float64.
          sr[op.dst] = (SoftDouble::fromFloat(dr[op.a].hi) +
                        SoftDouble::fromFloat(dr[op.a].lo))
                           .bits();
          break;
        case K::SToInt:
          ir[op.dst] = static_cast<std::int32_t>(sd(op.a).toDouble());
          break;
        case K::SToF: fr[op.dst] = sd(op.a).toFloat(); break;
        case K::SToD: dr[op.dst] = Float2::fromWide(sd(op.a).toDouble()); break;
        case K::STruth: ir[op.dst] = !sd(op.a).isZero(); break;
        case K::Jmp:
          open.add(op.run);
          pc = static_cast<std::size_t>(op.iimm);
          break;
        case K::JmpZ:
          open.add(op.run);
          close();
          if (ir[op.a] == 0) pc = static_cast<std::size_t>(op.iimm);
          break;
        case K::IfLt:
          open.add(op.run);
          close();
          if (!(ir[op.a] < ir[op.b])) pc = static_cast<std::size_t>(op.iimm);
          break;
        case K::IfLe:
          open.add(op.run);
          close();
          if (!(ir[op.a] <= ir[op.b])) pc = static_cast<std::size_t>(op.iimm);
          break;
        case K::IfEq:
          open.add(op.run);
          close();
          if (ir[op.a] != ir[op.b]) pc = static_cast<std::size_t>(op.iimm);
          break;
        case K::IfNe:
          open.add(op.run);
          close();
          if (ir[op.a] == ir[op.b]) pc = static_cast<std::size_t>(op.iimm);
          break;
        case K::SelZ:
          open.add(op.run);
          if (ir[op.a] == 0) pc = static_cast<std::size_t>(op.iimm);
          break;
        case K::LBegin: {
          open.add(op.run);
          const std::int32_t b = ir[op.a];
          GRAPHENE_CHECK(ir[op.c] > 0, "For loops require a positive step");
          close();
          if (b < ir[op.b]) {
            ir[op.dst] = b;
          } else {
            pc = static_cast<std::size_t>(op.iimm);  // past the LEnd
          }
          break;
        }
        case K::LEnd: {
          open.add(op.run);
          const std::int64_t next =
              static_cast<std::int64_t>(ir[op.a]) + ir[op.c];
          if (next < ir[op.b]) {
            ir[op.a] = static_cast<std::int32_t>(next);
            pc = static_cast<std::size_t>(op.iimm);  // into the body
          }
          break;
        }
        case K::WBegin:
          open.add(op.run);
          ir[op.dst] = 0;
          break;
        case K::WTest:
          open.add(op.run);
          close();
          if (ir[op.a] == 0) pc = static_cast<std::size_t>(op.iimm);
          break;
        case K::WEnd:
          open.add(op.run);
          GRAPHENE_CHECK(++ir[op.dst] < (1 << 26),
                         "runaway While loop in codelet");
          pc = static_cast<std::size_t>(op.iimm);  // back to the test
          break;
        case K::PBegin:
          open.add(op.run);
          GRAPHENE_CHECK(ir[op.c] > 0, "For loops require a positive step");
          cost += open.total();
          open = LaneSums{};
          cost += runRows(op, pc);
          pc = static_cast<std::size_t>(op.iimm);  // past the PEnd
          break;
        case K::FastFor: {
          open.add(op.run);
          GRAPHENE_CHECK(ir[op.c] > 0, "For loops require a positive step");
          close();
          runKernel(prog_.kernels[static_cast<std::size_t>(op.iimm)],
                    ir[op.a], ir[op.b], ir[op.c], open);
          break;
        }
        case K::PEnd:
        case K::Halt:
          open.add(op.run);
          return cost + open.total();
      }
    }
  }

  /// A ParFor's rows, dealt round-robin to the tile's worker pool exactly
  /// like the walk; returns the pool's barrier time. A planned ParFor hands
  /// its whole range to its plan's native loop; the rows from the first one
  /// that loop could not run go to the program.
  double runRows(const VmOp& op, std::size_t pc) {
    const std::int32_t begin = ir_[op.a], end = ir_[op.b], step = ir_[op.c];
    ipu::WorkerPool pool(numWorkers_);
    pool.chargeSpawn();
    std::size_t w = 0;
    std::int64_t iv = begin;
    if (op.arg >= 0 && step == 1) {
      const RowPlan& plan = prog_.rowPlans[static_cast<std::size_t>(op.arg)];
      const CsrRow* csr = std::get_if<CsrRow>(&plan);
      iv = csr != nullptr
               ? nativeCsrRows(*csr, begin, end, pool, w)
               : nativeTriRows(std::get<TriRow>(plan), begin, end, pool, w);
    }
    const std::int32_t savedWorker = ir_[0];
    for (; iv < end; iv += step) {
      ir_[op.dst] = static_cast<std::int32_t>(iv);
      ir_[0] = static_cast<std::int32_t>(w);
      pool.addCycles(w, exec(pc + 1));
      if (++w == numWorkers_) w = 0;
    }
    ir_[0] = savedWorker;
    return pool.sync();
  }

  /// The triangular-substitution rows [begin, end) as one native scalar
  /// loop: each row the program's float ops in the program's order, priced
  /// by the closed form of its block charges (TriRow) and charged to worker
  /// `w`, which then moves on round-robin. Returns the first row it did not
  /// run, having written nothing for it: every row on a non-unit step, or a
  /// row with an index outside a bound slice. The program then runs that row
  /// and the rest, and reports the walk's error. Only the step check is
  /// hoisted: these ranges average under three rows, and hoisting the span
  /// loads as well measured slower.
  std::int64_t nativeTriRows(const TriRow& m, std::int32_t begin,
                             std::int32_t end, ipu::WorkerPool& pool,
                             std::size_t& w) const {
    if (ir_[m.stepReg] != 1) return begin;
    auto in = [this](std::int64_t i, std::int16_t arg) {
      return i >= 0 && static_cast<std::uint64_t>(i) < args_[arg].size;
    };
    auto row = [&](std::int32_t idx) {
      if (!in(idx, m.orderArg)) return false;
      const std::int32_t i = data<const std::int32_t>(m.orderArg)[idx];
      const std::int64_t iEnd = std::int64_t{i} + ir_[m.sReg];
      if (!in(i, m.seedArg) || !in(i, m.rpArg) || !in(iEnd, m.rpArg) ||
          !in(i, m.yArg)) {
        return false;
      }
      const std::int32_t* rp = data<const std::int32_t>(m.rpArg);
      const std::int32_t* col = data<const std::int32_t>(m.colArg);
      const float* v = data<const float>(m.vArg);
      const float* x = data<const float>(m.xArg);
      const std::int32_t b = rp[i], e = rp[iEnd];
      float acc = data<const float>(m.seedArg)[i];
      std::int32_t nAfterTaken = 0;  // iterations that follow a taken one
      bool taken = false;
      for (std::int32_t k = b; k < e; ++k) {
        if (!in(k, m.colArg)) return false;
        const std::int32_t c = col[k];
        nAfterTaken += taken ? 1 : 0;
        taken = m.colFirst ? c < i : i < c;
        if (taken) {
          if (!in(k, m.vArg) || !in(c, m.xArg)) return false;
          acc = acc - v[k] * x[c];
        }
      }
      if (m.diArg >= 0) {
        if (!in(i, m.diArg)) return false;
        const std::int32_t d = data<const std::int32_t>(m.diArg)[i];
        if (!in(d, m.vArg)) return false;
        acc = acc / v[d];
      }
      data<float>(m.yArg)[i] = acc;
      const std::int32_t n = e > b ? e - b : 0;
      pool.addCycles(w, n == 0 ? m.head + m.tailEmpty
                               : m.head + m.firstIf +
                                     nAfterTaken * m.afterTaken +
                                     (n - 1 - nAfterTaken) * m.afterUntaken +
                                     (taken ? m.tailTaken : m.tailUntaken));
      if (++w == numWorkers_) w = 0;
      return true;
    };
    std::int32_t idx = begin;
    while (idx < end && row(idx)) ++idx;
    return idx;
  }

  /// The CSR SpMV rows [begin, end) as one native scalar loop: each row the
  /// program's float ops in the program's order, priced from its two trip
  /// counts (CsrRow::price) and charged to worker `w`, which then moves on
  /// round-robin. What no row varies, the spans and the owned count, is
  /// read once, and the slices indexed by the row (y, d, x, sp, and rp at
  /// r + 1) clamp the range instead of being checked per row. Returns the
  /// first row it did not run, having written nothing for it: the first row
  /// past the clamp (or a negative begin), or a row whose runs fall outside
  /// c and a or whose columns fall outside x or h. The program then runs
  /// that row and the rest, and reports the walk's error.
  std::int64_t nativeCsrRows(const CsrRow& m, std::int32_t begin,
                             std::int32_t end, ipu::WorkerPool& pool,
                             std::size_t& w) const {
    if (begin < 0) return begin;
    const std::size_t rpSize = args_[m.rpArg].size;
    const std::size_t rows =
        std::min({args_[m.yArg].size, args_[m.dArg].size, args_[m.xArg].size,
                  args_[m.spArg].size, rpSize > 0 ? rpSize - 1 : 0});
    const auto stop = static_cast<std::int32_t>(
        std::min<std::int64_t>(end, static_cast<std::int64_t>(rows)));
    float* y = data<float>(m.yArg);
    const float* d = data<const float>(m.dArg);
    const float* x = data<const float>(m.xArg);
    const float* h = data<const float>(m.hArg);
    const float* a = data<const float>(m.aArg);
    const std::int32_t* c = data<const std::int32_t>(m.cArg);
    const std::int32_t* rp = data<const std::int32_t>(m.rpArg);
    const std::int32_t* sp = data<const std::int32_t>(m.spArg);
    const std::size_t xSize = args_[m.xArg].size, hSize = args_[m.hArg].size;
    const std::size_t limit = std::min(args_[m.aArg].size, args_[m.cArg].size);
    const std::int32_t owned = ir_[m.ownedReg];
    auto runOk = [limit](std::int32_t lo, std::int32_t hi) {
      return lo >= hi || (lo >= 0 && static_cast<std::size_t>(hi) <= limit);
    };
    auto row = [&](std::int32_t r) {
      const std::int32_t b1 = rp[r], e1 = sp[r], e2 = rp[r + 1];
      if (!runOk(b1, e1) || !runOk(e1, e2)) return false;
      float acc = d[r] * x[r];
      for (std::int32_t k = b1; k < e1; ++k) {
        const auto col = static_cast<std::uint32_t>(c[k]);
        if (col >= xSize) return false;
        acc = acc + a[k] * x[col];
      }
      for (std::int32_t k = e1; k < e2; ++k) {
        const std::int64_t col = static_cast<std::int64_t>(c[k]) - owned;
        if (col < 0 || static_cast<std::size_t>(col) >= hSize) return false;
        acc = acc + a[k] * h[col];
      }
      y[r] = acc;
      pool.addCycles(w, m.price(e1 > b1 ? e1 - b1 : 0, e2 > e1 ? e2 - e1 : 0));
      if (++w == numWorkers_) w = 0;
      return true;
    };
    std::int32_t r = begin;
    while (r < stop && row(r)) ++r;
    return r;
  }

  /// Runs a FastFor's kernel over [begin, end) step `step`, charging its
  /// per-iteration lanes in bulk into `open`: every priced constant is an
  /// integral double, so n × perIteration is exactly the walk's sum.
  void runKernel(const LoopKernel& k, std::int32_t begin, std::int32_t end,
                 std::int32_t step, LaneSums& open) {
    if (begin >= end) return;  // zero iterations: setup charges only
    const double n = static_cast<double>(
        (static_cast<std::int64_t>(end) - begin + step - 1) / step);
    open.fp += n * k.iter.fp;
    open.mem += n * k.iter.mem;
    open.ctrl += n * k.iter.ctrl;

    if (k.dot && step == 1 && begin >= 0 && dotBoundsOk(*k.dot, end)) {
      runDot(*k.dot, begin, end);
      return;
    }

    // Lane blocks, then the per-element run. A kernel that writes nothing
    // back runs its whole range in blocks but for an odd last element. One
    // that does leaves at least its last element to the per-element run,
    // so the write-backs below observe exactly the final element's state.
    const std::int64_t stop =
        end - (k.writeFloat.empty() && k.writeInt.empty() ? 0 : 1);
    std::int64_t tail = begin;
    if (k.blockable && step == 1 && begin >= 0 && stop - begin >= 2 &&
        blockedRangeOk(k, end)) {
      tail = runBlockedFront(k, begin, stop);
    }
    LaneRegs<1> r;
    seed(k, r);
    runLanes(k, r, tail, end, step);
    for (const auto& [to, reg] : k.writeFloat) fr_[to] = r.f[reg][0];
    for (const auto& [to, reg] : k.writeInt) ir_[to] = r.i[reg][0];
  }

  /// Run-time guard for the blocked VM: every elementwise span must cover
  /// [0, end), and no stored span may alias a span it doesn't share
  /// elementwise access with. Two args bound to the identical span are safe
  /// when both only touch the element's own index (lane j touches only
  /// iv+j); anything overlapping otherwise runs per element.
  bool blockedRangeOk(const LoopKernel& k, std::int32_t end) const {
    auto covers = [&](const LoopKernel::ArgUse& u) {
      return args_[u.arg].size >= static_cast<std::size_t>(end);
    };
    for (const LoopKernel::ArgUse& u : k.loadFloat) {
      if (u.anyElementwise && !covers(u)) return false;
    }
    for (const LoopKernel::ArgUse& u : k.loadInt) {
      if (u.anyElementwise && !covers(u)) return false;
    }
    for (const LoopKernel::ArgUse& u : k.storeFloat) {
      if (!covers(u)) return false;
    }
    auto overlapUnsafe = [&](const LoopKernel::ArgUse& a,
                             const LoopKernel::ArgUse& b) {
      if (a.arg == b.arg) return false;  // same span: checked at compile time
      const float* pa = data<float>(a.arg);
      const float* pb = data<float>(b.arg);
      const std::size_t na = args_[a.arg].size, nb = args_[b.arg].size;
      if (pa == pb && na == nb) {
        return !(a.elementwiseOnly && b.elementwiseOnly);
      }
      return pa < pb + nb && pb < pa + na;
    };
    for (const LoopKernel::ArgUse& su : k.storeFloat) {
      for (const LoopKernel::ArgUse& lu : k.loadFloat) {
        if (overlapUnsafe(su, lu)) return false;
      }
      for (const LoopKernel::ArgUse& ou : k.storeFloat) {
        if (overlapUnsafe(su, ou)) return false;
      }
    }
    return true;
  }

  /// Runs as much of [begin, stop) as whole lane blocks cover, stepping the
  /// width down 16 → 8 → 4 → 2. Returns where the per-element run starts.
  std::int64_t runBlockedFront(const LoopKernel& k, std::int64_t begin,
                               std::int64_t stop) const {
    std::int64_t iv = begin;
    if (stop - iv >= 16) {
      const std::int64_t n = ((stop - iv) / 16) * 16;
      runBlocked<16>(k, iv, iv + n);
      iv += n;
    }
    if (stop - iv >= 8) {
      runBlocked<8>(k, iv, iv + 8);
      iv += 8;
    }
    if (stop - iv >= 4) {
      runBlocked<4>(k, iv, iv + 4);
      iv += 4;
    }
    if (stop - iv >= 2) {
      runBlocked<2>(k, iv, iv + 2);
      iv += 2;
    }
    return iv;
  }

  /// Runs [begin, endB) of a blockable kernel in lanes of B. No register is
  /// loop-carried, so the seeds hold for every element.
  template <std::size_t B>
  void runBlocked(const LoopKernel& k, std::int64_t begin,
                  std::int64_t endB) const {
    LaneRegs<B> r;
    seed(k, r);
    runLanes(k, r, begin, endB, 1);
  }

  /// Sets every lane of a kernel's seeded registers: the program registers
  /// its body reads before writing, and the argument sizes it hoisted. Only
  /// these are read before the body writes them.
  template <std::size_t B>
  void seed(const LoopKernel& k, LaneRegs<B>& r) const {
    for (const auto& [from, reg] : k.seedFloat) r.f[reg].fill(fr_[from]);
    for (const auto& [from, reg] : k.seedInt) r.i[reg].fill(ir_[from]);
    for (const auto& [reg, arg] : k.sizeSeeds) {
      r.i[reg].fill(static_cast<std::int32_t>(args_[arg].size));
    }
  }

  /// The one loop-kernel executor: runs the elements iv = begin, begin +
  /// B·step, ... below `end`, B at a time. Each op applies its kop
  /// definition to every lane in increasing lane order before the next op
  /// runs. B = 1 is the per-element kernel. B > 1 needs a blockable kernel
  /// at unit step, with end - begin a multiple of B: with no loop-carried
  /// registers and only elementwise stores (analyzeBlockable) plus
  /// non-aliased spans (blockedRangeOk), every element sees exactly the
  /// per-element kernel's operations on exactly its values, so the results
  /// are bit-identical.
  template <std::size_t B>
  void runLanes(const LoopKernel& k, LaneRegs<B>& r, std::int64_t begin,
                std::int64_t end, std::int32_t step) const {
    auto& f = r.f;
    auto& i = r.i;
    using K = VmOp::K;
    const std::int64_t stride = static_cast<std::int64_t>(step) * B;
    for (std::int64_t iv = begin; iv < end; iv += stride) {
      for (std::size_t j = 0; j < B; ++j) {
        i[0][j] = static_cast<std::int32_t>(iv) + static_cast<std::int32_t>(j);
      }
      for (const VmOp& op : k.ops) {
        switch (op.k) {
          case K::FMov: lanes(kop::mov, f[op.dst], f[op.a]); break;
          case K::FLoad: loadLanes(op, iv, f[op.dst], i[op.a]); break;
          case K::FStore: storeLanes(op, iv, f[op.b], i[op.a]); break;
          case K::FAdd: lanes(kop::add, f[op.dst], f[op.a], f[op.b]); break;
          case K::FSub: lanes(kop::sub, f[op.dst], f[op.a], f[op.b]); break;
          case K::FMul: lanes(kop::mul, f[op.dst], f[op.a], f[op.b]); break;
          case K::FDiv: lanes(kop::div, f[op.dst], f[op.a], f[op.b]); break;
          case K::FMin: lanes(kop::min, f[op.dst], f[op.a], f[op.b]); break;
          case K::FMax: lanes(kop::max, f[op.dst], f[op.a], f[op.b]); break;
          case K::FNeg: lanes(kop::neg, f[op.dst], f[op.a]); break;
          case K::FAbs: lanes(kop::abs, f[op.dst], f[op.a]); break;
          case K::FSqrt: lanes(kop::sqrt, f[op.dst], f[op.a]); break;
          case K::FFromInt: lanes(kop::cast<float>, f[op.dst], i[op.a]); break;
          case K::IMov: lanes(kop::mov, i[op.dst], i[op.a]); break;
          case K::ILoad: loadLanes(op, iv, i[op.dst], i[op.a]); break;
          case K::IAdd: lanes(kop::add, i[op.dst], i[op.a], i[op.b]); break;
          case K::ISub: lanes(kop::sub, i[op.dst], i[op.a], i[op.b]); break;
          case K::IMul: lanes(kop::mul, i[op.dst], i[op.a], i[op.b]); break;
          case K::IMin: lanes(kop::min, i[op.dst], i[op.a], i[op.b]); break;
          case K::IMax: lanes(kop::max, i[op.dst], i[op.a], i[op.b]); break;
          case K::INeg: lanes(kop::neg, i[op.dst], i[op.a]); break;
          case K::IAbs: lanes(kop::abs, i[op.dst], i[op.a]); break;
          case K::IFromFloat:
            lanes(kop::cast<std::int32_t>, i[op.dst], f[op.a]);
            break;
          default:
            GRAPHENE_UNREACHABLE("op outside the serial kernel subset");
        }
      }
    }
  }

  /// Loads argument op.arg into every lane of `d`. An elementwise access
  /// at B > 1 reads the contiguous span blockedRangeOk checked; any other
  /// access checks each lane's index `x[j]`.
  template <typename T, std::size_t B>
  void loadLanes(const VmOp& op, std::int64_t iv, std::array<T, B>& d,
                 const std::array<std::int32_t, B>& x) const {
    const T* p = data<const T>(op.arg);
    if (B > 1 && op.ew) {
      const T* GRAPHENE_RESTRICT q = p + iv;
      for (std::size_t j = 0; j < B; ++j) d[j] = q[j];
    } else {
      const std::size_t size = args_[op.arg].size;
      for (std::size_t j = 0; j < B; ++j) d[j] = p[checkedIndex(x[j], size)];
    }
  }

  /// Stores every lane of `v` into float argument op.arg, as loadLanes reads.
  template <std::size_t B>
  void storeLanes(const VmOp& op, std::int64_t iv,
                  const std::array<float, B>& v,
                  const std::array<std::int32_t, B>& x) const {
    float* p = data<float>(op.arg);
    if (B > 1 && op.ew) {
      float* GRAPHENE_RESTRICT q = p + iv;
      for (std::size_t j = 0; j < B; ++j) q[j] = v[j];
    } else {
      const std::size_t size = args_[op.arg].size;
      for (std::size_t j = 0; j < B; ++j) p[checkedIndex(x[j], size)] = v[j];
    }
  }

  bool dotBoundsOk(const DotKernel& dot, std::int32_t end) const {
    auto ok = [&](std::int16_t arg) {
      return arg < 0 || static_cast<std::size_t>(end) <= args_[arg].size;
    };
    return ok(dot.aArg) && ok(dot.bArg);
  }

  /// Runs a dot partial over [begin, end): the walk's float ops in the
  /// walk's order, one element after another.
  void runDot(const DotKernel& dot, std::int32_t begin, std::int32_t end) {
    const float* a = data<float>(dot.aArg);
    float acc = fr_[dot.accReg];
    if (dot.bArg < 0) {
      for (std::int32_t i = begin; i < end; ++i) {
        acc = dot.accFirst ? acc + a[i] : a[i] + acc;
      }
    } else {
      const float* b = data<float>(dot.bArg);
      for (std::int32_t i = begin; i < end; ++i) {
        const float m = a[i] * b[i];
        acc = dot.accFirst ? acc + m : m + acc;
      }
    }
    fr_[dot.accReg] = acc;
  }

  const Program& prog_;
  std::size_t numWorkers_;
  const graph::ArgSpan* args_;
  float* fr_;
  std::int32_t* ir_;
  DwReg* dr_;
  std::uint64_t* sr_;  // Float64 registers: SoftDouble bit patterns
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

void setCodeletFastPaths(bool enabled) {
  g_fastPaths.store(enabled, std::memory_order_relaxed);
}

bool codeletFastPathsEnabled() {
  return g_fastPaths.load(std::memory_order_relaxed);
}

std::uint64_t codeletWalkEntries() {
  return g_walkEntries.load(std::memory_order_relaxed);
}

CompiledCodeletPtr compileCodelet(const CodeletIR& ir,
                                  const ipu::CostModel& cost,
                                  std::size_t numWorkers) {
  auto cc = std::make_shared<CompiledCodelet>();
  cc->flat = flattenCodelet(ir);
  cc->cost = cost;
  cc->numWorkers = numWorkers;
  // The program is always compiled; whether it runs is decided per vertex
  // (codeletBinds) and per execution (setCodeletFastPaths), so the walk/VM
  // A-B comparison can use the same graph.
  ProgramCompiler pc(cc->flat, cc->cost);
  cc->program = pc.compile();
  if (!cc->program) cc->walkReason = pc.why();
  return cc;
}

const char* codeletWalkReason(const CompiledCodelet& codelet) {
  return codelet.walkReason;
}

std::size_t codeletOpCount(const CompiledCodelet& codelet) {
  if (!codelet.program) return 0;
  std::size_t n = codelet.program->ops.size();
  for (const LoopKernel& k : codelet.program->kernels) n += k.ops.size();
  return n;
}

bool codeletBinds(const CompiledCodelet& codelet,
                  std::span<const graph::ArgSpan> args) {
  if (!codelet.program || args.size() != codelet.flat.numArgs) return false;
  for (const auto& [arg, type] : codelet.program->argTypes) {
    if (args[static_cast<std::size_t>(arg)].dtype != type) return false;
  }
  return true;
}

graph::VertexCost runCompiled(const CompiledCodelet& codelet,
                              graph::VertexContext& ctx) {
  GRAPHENE_CHECK(ctx.numArgs() == codelet.flat.numArgs,
                 "codelet arg count mismatch: vertex has ", ctx.numArgs(),
                 ", codelet expects ", codelet.flat.numArgs);
  graph::VertexCost result;
  result.wholeTile = codelet.flat.usesWorkers;
  if (ctx.bound() && g_fastPaths.load(std::memory_order_relaxed)) {
    // Registers are written before they are read (Program::entry sets the
    // constants and the variables the walk reads as their initial Float32
    // zero).
    std::array<float, Program::kMaxRegs> fr;
    std::array<std::int32_t, Program::kMaxRegs> ir;
    std::array<DwReg, Program::kMaxRegs> dr;
    std::array<std::uint64_t, Program::kMaxRegs> sr;
    result.workerCycles = VmExec(codelet, ctx.args(), fr.data(), ir.data(),
                                 dr.data(), sr.data())
                              .run();
    return result;
  }
  g_walkEntries.fetch_add(1, std::memory_order_relaxed);
  result.workerCycles = FlatExec(codelet, ctx).run();
  return result;
}

std::string codeletShape(const CompiledCodelet& codelet) {
  if (!codelet.program) return std::string("walk: ") + codelet.walkReason;
  const Program& p = *codelet.program;
  std::string kernels;
  for (const LoopKernel& k : p.kernels) {
    kernels += kernels.empty() ? "" : ",";
    kernels += k.dot ? "dot" : "none";
    if (k.blockable) kernels += "+blocked";
  }
  const auto csr = std::count_if(
      p.rowPlans.begin(), p.rowPlans.end(),
      [](const RowPlan& plan) { return std::holds_alternative<CsrRow>(plan); });
  return "vm ops=" + std::to_string(p.ops.size()) + " kernels=[" + kernels +
         "] csr=" + std::to_string(csr) +
         " tri=" + std::to_string(std::ssize(p.rowPlans) - csr);
}

graph::Codelet makeCodelet(std::string name, CodeletIR ir,
                           const ipu::CostModel& cost,
                           std::size_t numWorkers) {
  CompiledCodeletPtr cc = compileCodelet(ir, cost, numWorkers);
  // Compile-time diagnostics, one line per codelet (codeletShape). Costs
  // nothing when the env var is unset.
  if (support::envFlag("GRAPHENE_DUMP_COMPILE")) {
    std::fprintf(stderr, "[compile] %s: %s\n", name.c_str(),
                 codeletShape(*cc).c_str());
  }
  graph::Codelet codelet{std::move(name),
                         [cc](graph::VertexContext& vc) {
                           return runCompiled(*cc, vc);
                         },
                         {}};
  codelet.bind = [cc](std::span<const graph::ArgSpan> args) {
    return codeletBinds(*cc, args);
  };
  return codelet;
}

}  // namespace graphene::dsl
