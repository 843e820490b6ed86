#include "dsl/interpreter.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

// The named span kernels dispatch on runtime aliasing so the hot disjoint
// case can promise no-alias to the auto-vectorizer (the build keeps
// -ffp-contract=off, so vectorized lanes stay bit-identical to the scalar
// walk: elementwise float ops, no FMA contraction, no reassociation).
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
// Loop kernels: counted For loops whose bodies are straight-line Float32 /
// Int32 arithmetic are lowered once into a tiny register program ("ops"),
// optionally specialised further into one of the named span kernels. Per-
// iteration cycle charges are priced at compile time from the same cost
// tables the generic walk consults — and every priced constant is an integral
// double, so `n * perIteration` equals n repeated additions exactly and the
// bulk charge is bit-identical to the generic walk's. ParFor row bodies may
// also hold nested counted loops and comparison-guarded Ifs; those rows are
// charged block by block as they run (see LoopOp::run).
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

/// Lane sums of a straight-line stretch of ops, priced at compile time.
struct LaneSums {
  double fp = 0, mem = 0, ctrl = 0;
  /// Cost of a lane block holding exactly these charges.
  double total() const { return (fp > mem ? fp : mem) + ctrl; }
};

struct LoopOp {
  enum class K : std::uint8_t {
    FConst, FMov, FLoad, FStore,
    FAdd, FSub, FMul, FDiv, FMin, FMax,
    FNeg, FAbs, FSqrt, FFromInt,
    IConst, IMov, ILoad,
    IAdd, ISub, IMul, IMin, IMax,
    INeg, IAbs, IFromFloat,
    // Parallel-row kernels only. Comparisons set int register dst to 1 or 0
    // (the walk's bool); Gt/Ge are emitted as Lt/Le with swapped operands.
    ILt, ILe, IEq, INe, FLt, FLe, FEq, FNe,
    // Parallel-row kernels only: control ops. Each adds `run` to the row's
    // open lane block when it executes; a jump resumes at the op after pc
    // iimm, so it always lands at the start of a run.
    // LBegin: dst = induction reg, a = begin reg, b = end reg, iimm = pc of
    //   the matching LEnd. Closes the block and charges a branch.
    // LEnd: a = induction reg, iimm = pc of the matching LBegin.
    // JmpZ (an If): a = bool reg. Closes the block, charges a branch, and
    //   jumps to iimm (the then-branch's closing Jmp) when the bool is 0.
    // Jmp (closes an If branch): jumps to iimm; the last branch's Jmp points
    //   at itself and only adds its run.
    LBegin, LEnd, JmpZ, Jmp,
  };
  K k{};
  std::int16_t dst = -1, a = -1, b = -1;
  std::int16_t arg = -1;
  float fimm = 0;
  std::int32_t iimm = 0;
  // Load/store index register proven equal to the induction value at this op
  // (analyzeBlockable dataflow): the blocked VM may use a contiguous,
  // pre-bounds-checked span access for it.
  bool ew = false;
  // Control ops: lane charges of the straight-line ops since the previous
  // control op in program order.
  LaneSums run;
};

/// Recognised whole-loop span kernels (all Float32, unit step): the shapes
/// the solvers' elementwise maps and reductions trace.
struct NamedLoop {
  enum class P : std::uint8_t { None, Copy, AddVec, Axpy, DotPartial };
  P p = P::None;
  std::int16_t dstArg = -1, aArg = -1, bArg = -1;
  bool sIsConst = false;
  float sConst = 0;
  std::int32_t sVar = -1;
  bool sFirst = false;    // axpy: scale factor is the left multiplicand
  bool loadFirst = true;  // axpy: the plain load is the left addend
  bool isSub = false;     // top-level op is Sub
  std::int32_t accVar = -1;
  bool accFirst = true;   // dot: acc is the left addend
  bool dotSingle = false; // acc += a[i] instead of acc += a[i]*b[i]
};

/// Recognised whole-row parallel kernel: the two-run CSR SpMV row shape
/// DistMatrix::spmv traces (owned-column run, then halo run):
///   acc = d[r] * x[r]
///   for k in [rp[r], sp[r]):    acc = acc + a[k] * x[c[k]]
///   for k in [sp[r], rp[r+1]):  acc = acc + a[k] * h[c[k] - owned]
///   y[r] = acc
/// Rows run as a native scalar loop (same float ops in the same order, so
/// bit-identical); the last row still runs through the register VM so the
/// kernel's var write-backs stay exact.
struct CsrRow {
  bool valid = false;
  std::int16_t yArg = -1, dArg = -1, xArg = -1, aArg = -1, hArg = -1;
  std::int16_t cArg = -1, rpArg = -1, spArg = -1;
  std::int32_t ownedVar = -1;  // outer var holding the owned-row count
  // Runs of the row's two LBegin and two LEnd ops, for the closed-form row
  // cost of the native path (the VM path charges as it runs).
  LaneSums entry[2], body[2];
};

struct LoopKernel {
  static constexpr std::size_t kMaxRegs = 64;
  static constexpr std::size_t kMaxArgs = 16;

  std::vector<LoopOp> ops;
  // Once-per-entry register seeds.
  std::vector<std::pair<std::int16_t, std::int16_t>> sizeSeeds;  // (reg, arg)
  std::int16_t workerReg = -1;
  std::vector<std::pair<std::int32_t, std::int16_t>> seedFloat;  // (var, reg)
  std::vector<std::pair<std::int32_t, std::int16_t>> seedInt;
  // Vars assigned in the body, written back after the last iteration.
  std::vector<std::pair<std::int32_t, std::int16_t>> writeFloat;
  std::vector<std::pair<std::int32_t, std::int16_t>> writeInt;
  // Runtime dtype guards (trace-time types must hold at run time or the
  // kernel is skipped for that execution).
  std::vector<std::int16_t> floatArgs, intArgs;
  int numFloatRegs = 0, numIntRegs = 0;
  // Per-iteration lane charges (priced at compile time).
  double iterFp = 0, iterMem = 0, iterCtrl = 0;
  NamedLoop named;
  // Parallel (ParFor) row kernels: the whole row body is one register
  // program, nested counted loops and Ifs encoded as jumps. The generic walk
  // closes its lane block at every loop-entry and If branch, so a row's cost
  // depends on which bodies ran: a block after a taken If body also holds
  // that body's lanes, and the last body's lanes merge into the trailing
  // block. The VM therefore charges per executed block — each control op adds
  // its run to the open block, LBegin/JmpZ close it plus one branch, and the
  // row ends by closing the open block plus `tail`. Every priced constant is
  // an integral double, so these sums equal the walk's per-op accumulation
  // exactly, whatever the grouping.
  bool isPar = false;
  LaneSums tail;  // ops after the last control op
  double branchCost = 0;
  CsrRow csr;
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
  std::array<bool, R> fWritten{}, iWritten{};
  std::array<bool, R> fReadEarly{}, iReadEarly{};
  auto readF = [&](std::int16_t r) {
    if (r >= 0 && !fWritten[static_cast<std::size_t>(r)])
      fReadEarly[static_cast<std::size_t>(r)] = true;
  };
  auto readI = [&](std::int16_t r) {
    if (r > 0 && !iWritten[static_cast<std::size_t>(r)])
      iReadEarly[static_cast<std::size_t>(r)] = true;
  };
  auto writeF = [&](std::int16_t r) {
    if (r >= 0) fWritten[static_cast<std::size_t>(r)] = true;
  };
  bool ivWritten = false;
  auto writeI = [&](std::int16_t r) {
    if (r > 0) iWritten[static_cast<std::size_t>(r)] = true;
    if (r == 0) ivWritten = true;  // induction reg must stay driver-owned
  };
  // Forward dataflow over the straight-line body: which int registers hold
  // exactly the induction value right now. The DSL traces body-local Value
  // copies as IMov chains off reg 0, so indices are rarely reg 0 itself.
  std::array<bool, R> isIv{};
  isIv[0] = true;
  std::unordered_map<std::int16_t, LoopKernel::ArgUse> loads, stores,
      intLoads;
  auto access = [&](std::unordered_map<std::int16_t, LoopKernel::ArgUse>& m,
                    std::int16_t arg, bool elementwise) {
    LoopKernel::ArgUse& u = m[arg];
    u.arg = arg;
    if (elementwise) {
      u.anyElementwise = true;
    } else {
      u.elementwiseOnly = false;
    }
  };
  using K = LoopOp::K;
  for (LoopOp& op : k.ops) {
    switch (op.k) {
      case K::FConst: writeF(op.dst); break;
      case K::FMov: case K::FNeg: case K::FAbs: case K::FSqrt:
        readF(op.a); writeF(op.dst); break;
      case K::FLoad:
        readI(op.a); writeF(op.dst);
        op.ew = isIv[static_cast<std::size_t>(op.a)];
        access(loads, op.arg, op.ew);
        break;
      case K::FStore:
        readI(op.a); readF(op.b);
        op.ew = isIv[static_cast<std::size_t>(op.a)];
        access(stores, op.arg, op.ew);
        break;
      case K::FAdd: case K::FSub: case K::FMul: case K::FDiv:
      case K::FMin: case K::FMax:
        readF(op.a); readF(op.b); writeF(op.dst); break;
      case K::FFromInt: readI(op.a); writeF(op.dst); break;
      case K::IConst:
        writeI(op.dst);
        if (op.dst > 0) isIv[static_cast<std::size_t>(op.dst)] = false;
        break;
      case K::IMov:
        readI(op.a); writeI(op.dst);
        if (op.dst > 0) {
          isIv[static_cast<std::size_t>(op.dst)] =
              isIv[static_cast<std::size_t>(op.a)];
        }
        break;
      case K::INeg: case K::IAbs:
        readI(op.a); writeI(op.dst);
        if (op.dst > 0) isIv[static_cast<std::size_t>(op.dst)] = false;
        break;
      case K::ILoad:
        readI(op.a); writeI(op.dst);
        op.ew = isIv[static_cast<std::size_t>(op.a)];
        access(intLoads, op.arg, op.ew);
        if (op.dst > 0) isIv[static_cast<std::size_t>(op.dst)] = false;
        break;
      case K::IAdd: case K::ISub: case K::IMul: case K::IMin: case K::IMax:
        readI(op.a); readI(op.b); writeI(op.dst);
        if (op.dst > 0) isIv[static_cast<std::size_t>(op.dst)] = false;
        break;
      case K::IFromFloat:
        readF(op.a); writeI(op.dst);
        if (op.dst > 0) isIv[static_cast<std::size_t>(op.dst)] = false;
        break;
      case K::ILt: case K::ILe: case K::IEq: case K::INe:
      case K::FLt: case K::FLe: case K::FEq: case K::FNe:
      case K::LBegin: case K::LEnd: case K::JmpZ: case K::Jmp:
        return;  // comparisons and control flow are never blockable
    }
  }
  if (ivWritten) return;
  for (std::size_t r = 0; r < R; ++r) {
    if ((fReadEarly[r] && fWritten[r]) || (iReadEarly[r] && iWritten[r])) {
      return;  // loop-carried register
    }
  }
  // Stores must be at the element's own index: lane j of a blocked store
  // then touches exactly the index element iv+j touches in the scalar walk,
  // so write order per address is preserved. A scattered store could let two
  // ops' lanes collide in a different order than the scalar schedule.
  for (const auto& [arg, su] : stores) {
    if (!su.elementwiseOnly) return;
    auto lit = loads.find(arg);
    if (lit == loads.end()) continue;
    // Same span loaded and stored: each lane may only see its own element.
    if (!lit->second.elementwiseOnly) return;
  }
  for (const auto& [arg, u] : loads) k.loadFloat.push_back(u);
  for (const auto& [arg, u] : stores) k.storeFloat.push_back(u);
  for (const auto& [arg, u] : intLoads) k.loadInt.push_back(u);
  k.blockable = true;
}

/// Compiles one For statement's body into a LoopKernel, or nothing if the
/// body leaves the supported subset. Serial For bodies must be straight-line
/// Float32 / Int32 arithmetic. A ParFor row body may add one level of nested
/// counted unit-step For loops and Ifs (optional else, any nesting) whose
/// condition is one Int32 or Float32 comparison. Everything else — While,
/// nested ParFor, logic ops, Select, integer division, extended-precision
/// types, … — bails. Bailing is never an error: the generic walk runs the
/// loop instead, and why() names the construct that stopped compilation.
class LoopCompiler {
 public:
  LoopCompiler(const FlatCodelet& flat, const ipu::CostModel& cost)
      : flat_(flat), cost_(cost) {}

  std::optional<LoopKernel> compile(std::int32_t forId) {
    const FlatStmt& fs = flat_.stmts[static_cast<std::size_t>(forId)];
    if (!start(fs, /*par=*/false)) return std::nullopt;
    if (!compileBody(fs)) return std::nullopt;
    k_.iterFp = iter_.fp();
    k_.iterMem = iter_.mem();
    k_.iterCtrl = iter_.ctrl();
    matchNamed(forId);
    analyzeBlockable(k_);
    return std::move(k_);
  }

  /// Compiles a whole ParFor row body into one parallel kernel.
  std::optional<LoopKernel> compilePar(std::int32_t parForId) {
    const FlatStmt& fs = flat_.stmts[static_cast<std::size_t>(parForId)];
    if (!start(fs, /*par=*/true)) return std::nullopt;
    if (!compileBody(fs)) return std::nullopt;
    // Nested induction variables do not survive the kernel, and a var first
    // assigned inside a nested loop or an If branch (or holding a bool, which
    // is never written back) has no defined value on every path: nothing
    // outside the row body may read them.
    const std::unordered_set<int> outside = varsReadOutside(parForId);
    for (int v : nestedVars_) {
      if (outside.count(v) != 0) {
        why_ = "nested loop variable read after the row";
        return std::nullopt;
      }
    }
    for (const auto& [v, h] : homes_) {
      if ((h.scope >= 0 || h.isBool) && outside.count(v) != 0) {
        why_ = "conditionally defined variable read after the row";
        return std::nullopt;
      }
    }
    k_.tail = {run_.fp(), run_.mem(), run_.ctrl()};
    k_.branchCost = cost_.workerCycles(ipu::Op::Branch, DType::Int32);
    matchCsrRow(parForId);
    return std::move(k_);
  }

  /// The construct that stopped the last failed compile().
  const char* why() const { return why_; }

 private:
  struct Bail {
    const char* why;
  };
  struct Val {
    std::int16_t reg;
    bool isFloat;
    bool isBool = false;  // a comparison result (int register, 0 or 1)
  };
  struct Home {
    std::int16_t reg;
    bool isFloat;
    bool isBool = false;
    bool assigned = false;
    // Conditional scope (nested loop body or If branch) whose Assign created
    // this home, or -1. A var first defined where execution may not reach
    // (a zero-trip loop, an untaken branch) has no defined value outside that
    // scope, so reads elsewhere must bail.
    int scope = -1;
  };

  [[noreturn]] static void bail(const char* why) { throw Bail{why}; }

  bool start(const FlatStmt& fs, bool par) {
    if (fs.var < 0 || fs.body < 0) {
      why_ = "loop without a body";
      return false;
    }
    k_ = LoopKernel{};
    iter_ = ipu::LaneCycles{};
    run_ = ipu::LaneCycles{};
    homes_.clear();
    constInts_.clear();
    retired_.clear();
    nestedVars_.clear();
    scopes_.clear();
    loopVar_ = fs.var;
    parMode_ = par;
    inNested_ = false;
    k_.isPar = par;
    k_.numIntRegs = 1;  // int register 0 is the induction variable / row
    return true;
  }

  bool compileBody(const FlatStmt& fs) {
    bool ok = true;
    try {
      compileList(fs.body);
    } catch (const Bail& b) {
      why_ = b.why;
      ok = false;
    }
    parMode_ = false;
    inNested_ = false;
    return ok;
  }

  void compileList(std::int32_t listId) {
    for (std::int32_t sid : flat_.lists[static_cast<std::size_t>(listId)]) {
      compileStmt(flat_.stmts[static_cast<std::size_t>(sid)]);
    }
  }

  std::int16_t newFloat() {
    if (k_.numFloatRegs >= static_cast<int>(LoopKernel::kMaxRegs)) {
      bail("register limit");
    }
    return static_cast<std::int16_t>(k_.numFloatRegs++);
  }
  std::int16_t newInt() {
    if (k_.numIntRegs >= static_cast<int>(LoopKernel::kMaxRegs)) {
      bail("register limit");
    }
    return static_cast<std::int16_t>(k_.numIntRegs++);
  }

  void emit(LoopOp::K kk, std::int16_t dst, std::int16_t a = -1,
            std::int16_t b = -1, std::int16_t arg = -1) {
    LoopOp op;
    op.k = kk;
    op.dst = dst;
    op.a = a;
    op.b = b;
    op.arg = arg;
    k_.ops.push_back(op);
  }

  void chargeIter(ipu::Op op, DType t) {
    (parMode_ ? run_ : iter_).add(cost_, op, t);
  }

  /// Emits a control op that takes over the current run's lane charges
  /// (LoopOp::run) and starts a new run. Returns its pc.
  std::int32_t emitControl(LoopOp::K kk) {
    LoopOp op;
    op.k = kk;
    op.run = {run_.fp(), run_.mem(), run_.ctrl()};
    run_ = ipu::LaneCycles{};
    k_.ops.push_back(op);
    return static_cast<std::int32_t>(k_.ops.size()) - 1;
  }

  std::int16_t guardArg(std::int32_t arg, bool isFloat) {
    if (arg < 0 || arg >= static_cast<std::int32_t>(LoopKernel::kMaxArgs)) {
      bail("argument index beyond the kernel limit");
    }
    auto& list = isFloat ? k_.floatArgs : k_.intArgs;
    const auto a16 = static_cast<std::int16_t>(arg);
    if (std::find(list.begin(), list.end(), a16) == list.end()) list.push_back(a16);
    return a16;
  }

  static const char* typeBail(DType t) {
    switch (t) {
      case DType::DoubleWord: return "double-word value";
      case DType::Float64: return "float64 value";
      case DType::Bool: return "bool value";
      default: return "unsupported type";
    }
  }

  std::int16_t toInt(Val v) {
    if (v.isBool) bail("bool used as a number");
    if (!v.isFloat) return v.reg;
    const std::int16_t dst = newInt();
    emit(LoopOp::K::IFromFloat, dst, v.reg);  // matches Scalar::castTo(Int32)
    return dst;
  }

  std::int16_t toFloat(Val v) {
    if (v.isBool) bail("bool used as a number");
    if (v.isFloat) return v.reg;
    const std::int16_t dst = newFloat();
    emit(LoopOp::K::FFromInt, dst, v.reg);  // matches Scalar::castTo(Float32)
    return dst;
  }

  /// Lowers a comparison to a compare op writing 0/1 into an int register,
  /// priced like the walk's evalBinaryScalar charge: IntArith when both
  /// operands are Int32, else a Float32 Compare (ints promote uncharged).
  Val compileCompare(const FlatExpr& e) {
    if (!parMode_) bail("comparison");
    const Val a = compileExpr(e.a);
    const Val b = compileExpr(e.b);
    const bool isFloat = a.isFloat || b.isFloat;
    const std::int16_t ra = isFloat ? toFloat(a) : toInt(a);
    const std::int16_t rb = isFloat ? toFloat(b) : toInt(b);
    const DType t = isFloat ? DType::Float32 : DType::Int32;
    chargeIter(costOpFor(e.bop, t), t);
    using K = LoopOp::K;
    K kk;
    bool swap = false;
    switch (e.bop) {
      case BinOp::Lt: kk = isFloat ? K::FLt : K::ILt; break;
      case BinOp::Le: kk = isFloat ? K::FLe : K::ILe; break;
      case BinOp::Gt: kk = isFloat ? K::FLt : K::ILt; swap = true; break;
      case BinOp::Ge: kk = isFloat ? K::FLe : K::ILe; swap = true; break;
      case BinOp::Eq: kk = isFloat ? K::FEq : K::IEq; break;
      default: kk = isFloat ? K::FNe : K::INe; break;
    }
    const std::int16_t dst = newInt();
    emit(kk, dst, swap ? rb : ra, swap ? ra : rb);
    return {dst, false, true};
  }

  Val compileExpr(std::int32_t id) {
    if (id < 0) bail("missing expression");
    const FlatExpr& e = flat_.exprs[static_cast<std::size_t>(id)];
    switch (e.kind) {
      case Expr::Kind::Const: {
        if (e.constant.type() == DType::Float32) {
          const std::int16_t dst = newFloat();
          LoopOp op;
          op.k = LoopOp::K::FConst;
          op.dst = dst;
          op.fimm = e.constant.asFloat();
          k_.ops.push_back(op);
          return {dst, true};
        }
        if (e.constant.type() == DType::Int32) {
          const std::int16_t dst = newInt();
          LoopOp op;
          op.k = LoopOp::K::IConst;
          op.dst = dst;
          op.iimm = e.constant.asInt();
          k_.ops.push_back(op);
          return {dst, false};
        }
        bail(typeBail(e.constant.type()));
      }
      case Expr::Kind::Var: {
        if (parMode_) {
          if (inNested_ && e.var == nestedVar_) return {nestedIvReg_, false};
          if (retired_.count(e.var) != 0) {
            bail("nested loop variable read after its loop");
          }
        }
        if (e.var == loopVar_) return {0, false};
        auto it = homes_.find(e.var);
        if (it != homes_.end()) {
          // A home first defined inside a nested loop or an If branch only
          // holds a value while that scope runs.
          const Home& h = it->second;
          if (h.scope >= 0 &&
              std::find(scopes_.begin(), scopes_.end(), h.scope) ==
                  scopes_.end()) {
            bail("variable read outside the scope that defines it");
          }
          return {h.reg, h.isFloat, h.isBool};
        }
        // First touch is a read: the var is loop-carried or loop-invariant;
        // seed its home register from the interpreter's var slot on entry.
        bool isFloat;
        if (e.type == DType::Float32) {
          isFloat = true;
        } else if (e.type == DType::Int32) {
          isFloat = false;
        } else {
          bail(typeBail(e.type));
        }
        const std::int16_t reg = isFloat ? newFloat() : newInt();
        (isFloat ? k_.seedFloat : k_.seedInt).emplace_back(e.var, reg);
        homes_.emplace(e.var, Home{reg, isFloat});
        return {reg, isFloat};
      }
      case Expr::Kind::ArgLoad: {
        const std::int16_t idx = toInt(compileExpr(e.a));
        if (e.type == DType::Float32) {
          const std::int16_t arg = guardArg(e.arg, /*isFloat=*/true);
          chargeIter(ipu::Op::Load, DType::Float32);
          const std::int16_t dst = newFloat();
          emit(LoopOp::K::FLoad, dst, idx, -1, arg);
          return {dst, true};
        }
        if (e.type == DType::Int32) {
          const std::int16_t arg = guardArg(e.arg, /*isFloat=*/false);
          chargeIter(ipu::Op::Load, DType::Int32);
          const std::int16_t dst = newInt();
          emit(LoopOp::K::ILoad, dst, idx, -1, arg);
          return {dst, false};
        }
        bail(e.type == DType::DoubleWord ? "double-word load"
                                         : typeBail(e.type));
      }
      case Expr::Kind::ArgSize: {
        if (e.arg < 0 || e.arg >= static_cast<std::int32_t>(LoopKernel::kMaxArgs))
          bail("argument index beyond the kernel limit");
        const std::int16_t dst = newInt();
        k_.sizeSeeds.emplace_back(dst, static_cast<std::int16_t>(e.arg));
        chargeIter(ipu::Op::IntArith, DType::Int32);
        return {dst, false};
      }
      case Expr::Kind::WorkerId: {
        if (k_.workerReg < 0) k_.workerReg = newInt();
        return {k_.workerReg, false};
      }
      case Expr::Kind::Binary: {
        switch (e.bop) {
          case BinOp::Add: case BinOp::Sub: case BinOp::Mul: case BinOp::Div:
          case BinOp::Min: case BinOp::Max:
            break;
          case BinOp::Lt: case BinOp::Le: case BinOp::Gt: case BinOp::Ge:
          case BinOp::Eq: case BinOp::Ne:
            return compileCompare(e);
          case BinOp::And: case BinOp::Or:
            bail("logic op");
          case BinOp::Mod:
            bail("integer modulo");  // zero check in generic walk
        }
        const Val a = compileExpr(e.a);
        const Val b = compileExpr(e.b);
        if (a.isBool || b.isBool) bail("bool used as a number");
        if (!a.isFloat && !b.isFloat) {
          if (e.bop == BinOp::Div) bail("integer division");  // zero check
          chargeIter(ipu::Op::IntArith, DType::Int32);
          const std::int16_t dst = newInt();
          LoopOp::K kk;
          switch (e.bop) {
            case BinOp::Add: kk = LoopOp::K::IAdd; break;
            case BinOp::Sub: kk = LoopOp::K::ISub; break;
            case BinOp::Mul: kk = LoopOp::K::IMul; break;
            case BinOp::Min: kk = LoopOp::K::IMin; break;
            default: kk = LoopOp::K::IMax; break;
          }
          emit(kk, dst, a.reg, b.reg);
          return {dst, false};
        }
        // Promotion to Float32 (casts inside evalBinaryScalar are uncharged).
        const std::int16_t fa = toFloat(a);
        const std::int16_t fb = toFloat(b);
        chargeIter(costOpFor(e.bop, DType::Float32), DType::Float32);
        const std::int16_t dst = newFloat();
        LoopOp::K kk;
        switch (e.bop) {
          case BinOp::Add: kk = LoopOp::K::FAdd; break;
          case BinOp::Sub: kk = LoopOp::K::FSub; break;
          case BinOp::Mul: kk = LoopOp::K::FMul; break;
          case BinOp::Div: kk = LoopOp::K::FDiv; break;
          case BinOp::Min: kk = LoopOp::K::FMin; break;
          default: kk = LoopOp::K::FMax; break;
        }
        emit(kk, dst, fa, fb);
        return {dst, true};
      }
      case Expr::Kind::Unary: {
        if (e.uop == UnOp::Not) bail("logic op");
        const Val a = compileExpr(e.a);
        if (a.isBool) bail("bool used as a number");
        const DType at = a.isFloat ? DType::Float32 : DType::Int32;
        chargeIter(costOpFor(e.uop), at);
        if (e.uop == UnOp::Sqrt) {
          const std::int16_t fa = toFloat(a);  // generic casts ints to f32
          const std::int16_t dst = newFloat();
          emit(LoopOp::K::FSqrt, dst, fa);
          return {dst, true};
        }
        const std::int16_t dst = a.isFloat ? newFloat() : newInt();
        emit(a.isFloat
                 ? (e.uop == UnOp::Neg ? LoopOp::K::FNeg : LoopOp::K::FAbs)
                 : (e.uop == UnOp::Neg ? LoopOp::K::INeg : LoopOp::K::IAbs),
             dst, a.reg);
        return {dst, a.isFloat};
      }
      case Expr::Kind::Cast: {
        const Val a = compileExpr(e.a);
        // Only same-width casts are uncharged and representable here;
        // double-word / float64 targets bail (they would also be charged).
        if (e.type == DType::Float32) return {toFloat(a), true};
        if (e.type == DType::Int32) return {toInt(a), false};
        bail(typeBail(e.type));
      }
      case Expr::Kind::Select:
        bail("Select");  // data-dependent evaluation order
    }
    GRAPHENE_UNREACHABLE("bad expr kind");
  }

  void compileStmt(const FlatStmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        if (s.var == loopVar_) bail("assignment to the loop variable");
        if (parMode_ && (retired_.count(s.var) != 0 ||
                         (inNested_ && s.var == nestedVar_))) {
          bail("assignment to a nested loop variable");
        }
        const Val v = compileExpr(s.value);
        auto it = homes_.find(s.var);
        if (it == homes_.end()) {
          const std::int16_t reg = v.isFloat ? newFloat() : newInt();
          Home h{reg, v.isFloat, v.isBool};
          if (!scopes_.empty()) h.scope = scopes_.back();
          it = homes_.emplace(s.var, h).first;
        }
        Home& h = it->second;
        if (h.isFloat != v.isFloat || h.isBool != v.isBool) {
          bail("variable changes type");
        }
        emit(v.isFloat ? LoopOp::K::FMov : LoopOp::K::IMov, h.reg, v.reg);
        if (!h.assigned) {
          h.assigned = true;
          // Bool homes are never written back; compilePar checks nothing
          // after the row reads them.
          if (!h.isBool) {
            (h.isFloat ? k_.writeFloat : k_.writeInt)
                .emplace_back(s.var, h.reg);
          }
        }
        // Literal ints trace as var assignments (Value(int) declares a var),
        // so nested-loop step resolution needs the var → constant map. An
        // assignment to a var defined in an enclosing scope is conditional
        // (the loop may not run, the branch may be skipped), so it only ever
        // invalidates; a var defined in this scope is unreadable outside it.
        const FlatExpr& ve = flat_.exprs[static_cast<std::size_t>(s.value)];
        const int here = scopes_.empty() ? -1 : scopes_.back();
        if (h.scope == here && ve.kind == Expr::Kind::Const &&
            ve.constant.type() == DType::Int32) {
          constInts_[s.var] = ve.constant.asInt();
        } else {
          constInts_.erase(s.var);
        }
        return;
      }
      case Stmt::Kind::StoreArg: {
        const std::int16_t idx = toInt(compileExpr(s.index));
        const std::int16_t val = toFloat(compileExpr(s.value));
        // Only Float32 destinations: integer spans are read-only views and
        // extended types have no raw span at all.
        const std::int16_t arg = guardArg(s.arg, /*isFloat=*/true);
        chargeIter(ipu::Op::Store, DType::Float32);
        emit(LoopOp::K::FStore, -1, idx, val, arg);
        return;
      }
      case Stmt::Kind::For: {
        // A parallel row body may contain one level of serial counted loops;
        // everywhere else nested loops stay on the generic walk.
        if (!parMode_) bail("nested For");
        if (inNested_) bail("For nested two deep");
        compileNestedFor(s);
        return;
      }
      case Stmt::Kind::If: {
        if (!parMode_) bail("If");
        compileIf(s);
        return;
      }
      case Stmt::Kind::While:
        bail("While");
      case Stmt::Kind::ParFor:
        bail("nested ParFor");
    }
    GRAPHENE_UNREACHABLE("bad stmt kind");
  }

  /// Compiles a statement list as a conditional scope: vars it first
  /// assigns are unreadable once it closes (see Home::scope).
  void compileScope(std::int32_t listId) {
    scopes_.push_back(nextScope_++);
    compileList(listId);
    scopes_.pop_back();
  }

  /// Lowers an If inside a ParFor row to JmpZ + branches + closing Jmps. The
  /// condition's charges (the walk's eval(cond)) close with the JmpZ, like
  /// the walk's pre-branch flush; each branch's lanes ride on its closing
  /// Jmp into the block that follows, as in the walk.
  void compileIf(const FlatStmt& s) {
    const Val c = compileExpr(s.cond);
    if (!c.isBool) bail("If condition that is not a comparison");
    const std::int32_t jz = emitControl(LoopOp::K::JmpZ);
    k_.ops[static_cast<std::size_t>(jz)].a = c.reg;
    compileScope(s.body);
    const std::int32_t thenEnd = emitControl(LoopOp::K::Jmp);
    k_.ops[static_cast<std::size_t>(jz)].iimm = thenEnd;
    k_.ops[static_cast<std::size_t>(thenEnd)].iimm = thenEnd;
    if (s.elseBody >= 0 &&
        !flat_.lists[static_cast<std::size_t>(s.elseBody)].empty()) {
      compileScope(s.elseBody);
      const std::int32_t elseEnd = emitControl(LoopOp::K::Jmp);
      k_.ops[static_cast<std::size_t>(elseEnd)].iimm = elseEnd;
      k_.ops[static_cast<std::size_t>(thenEnd)].iimm = elseEnd;
    }
  }

  /// Lowers a serial unit-step For inside a ParFor row. The header's bound
  /// evaluation and setup charges close with the LBegin — exactly where the
  /// generic walk accumulates them before its loop-entry branch flush — and
  /// the body's charges ride on the LEnd into the next block.
  void compileNestedFor(const FlatStmt& s) {
    if (s.var < 0 || s.body < 0) bail("loop without a body");
    if (s.var == loopVar_ || homes_.count(s.var) != 0 ||
        retired_.count(s.var) != 0) {
      bail("reused loop variable");
    }
    if (s.step >= 0) {
      // The step may be a literal Const or a read of a var holding a known
      // integer constant (DSL int literals trace as var assignments).
      const FlatExpr& st = flat_.exprs[static_cast<std::size_t>(s.step)];
      std::int32_t stepVal = 0;
      if (st.kind == Expr::Kind::Const && st.constant.type() == DType::Int32) {
        stepVal = st.constant.asInt();
      } else if (st.kind == Expr::Kind::Var) {
        auto cit = constInts_.find(st.var);
        if (cit == constInts_.end()) bail("nested loop step not a constant");
        stepVal = cit->second;
      } else {
        bail("nested loop step not a constant");
      }
      if (stepVal != 1) bail("nested loop step not 1");
    }
    const std::int16_t beginReg = toInt(compileExpr(s.begin));
    const std::int16_t endReg = toInt(compileExpr(s.end));
    chargeIter(ipu::Op::IntArith, DType::Int32);  // loop setup, pre-branch
    const std::int16_t iv = newInt();
    const std::int32_t beginPc = emitControl(LoopOp::K::LBegin);
    LoopOp& begin = k_.ops[static_cast<std::size_t>(beginPc)];
    begin.dst = iv;
    begin.a = beginReg;
    begin.b = endReg;
    inNested_ = true;
    nestedVar_ = s.var;
    nestedIvReg_ = iv;
    compileScope(s.body);
    inNested_ = false;
    nestedVar_ = -1;
    const std::int32_t endPc = emitControl(LoopOp::K::LEnd);
    k_.ops[static_cast<std::size_t>(endPc)].a = iv;
    k_.ops[static_cast<std::size_t>(endPc)].iimm = beginPc;
    k_.ops[static_cast<std::size_t>(beginPc)].iimm = endPc;
    retired_.insert(s.var);
    nestedVars_.push_back(s.var);
  }

  // ---- named-pattern recognition ----------------------------------------

  const FlatExpr& resolve(std::int32_t id,
                          const std::unordered_map<int, std::int32_t>& env) {
    const FlatExpr* e = &flat_.exprs[static_cast<std::size_t>(id)];
    while (e->kind == Expr::Kind::Var) {
      auto it = env.find(e->var);
      if (it == env.end()) break;
      e = &flat_.exprs[static_cast<std::size_t>(it->second)];
    }
    return *e;
  }

  bool isLoopIndex(std::int32_t id,
                   const std::unordered_map<int, std::int32_t>& env) {
    const FlatExpr& e = resolve(id, env);
    return e.kind == Expr::Kind::Var && e.var == loopVar_;
  }

  /// Matches a resolved expression as `args[A][loopVar]` with A Float32.
  bool isLoad(const FlatExpr& e,
              const std::unordered_map<int, std::int32_t>& env,
              std::int16_t& outArg) {
    if (e.kind != Expr::Kind::ArgLoad || e.type != DType::Float32) return false;
    if (!isLoopIndex(e.a, env)) return false;
    outArg = static_cast<std::int16_t>(e.arg);
    return true;
  }

  /// Matches a loop-invariant Float32 scalar: a literal, or a var the body
  /// never assigns (e.g. a hoisted broadcast operand).
  bool isScalar(const FlatExpr& e, const std::unordered_set<int>& assigned,
                NamedLoop& nm) {
    if (e.kind == Expr::Kind::Const && e.constant.type() == DType::Float32) {
      nm.sIsConst = true;
      nm.sConst = e.constant.asFloat();
      return true;
    }
    if (e.kind == Expr::Kind::Var && e.type == DType::Float32 &&
        e.var != loopVar_ && assigned.count(e.var) == 0) {
      nm.sVar = e.var;
      return true;
    }
    return false;
  }

  /// Collects every var id read by statements outside this For's body (the
  /// For's own bound expressions count as outside).
  void collectBodyStmts(std::int32_t listId,
                        std::unordered_set<std::int32_t>& out) {
    if (listId < 0) return;
    for (std::int32_t sid : flat_.lists[static_cast<std::size_t>(listId)]) {
      out.insert(sid);
      const FlatStmt& s = flat_.stmts[static_cast<std::size_t>(sid)];
      collectBodyStmts(s.body, out);
      collectBodyStmts(s.elseBody, out);
    }
  }

  std::unordered_set<int> varsReadOutside(std::int32_t forId) {
    const FlatStmt& fs = flat_.stmts[static_cast<std::size_t>(forId)];
    std::unordered_set<std::int32_t> bodyStmts;
    collectBodyStmts(fs.body, bodyStmts);
    std::unordered_set<int> reads;
    std::function<void(std::int32_t)> walkExpr = [&](std::int32_t id) {
      if (id < 0) return;
      const FlatExpr& e = flat_.exprs[static_cast<std::size_t>(id)];
      if (e.kind == Expr::Kind::Var) reads.insert(e.var);
      walkExpr(e.a);
      walkExpr(e.b);
      walkExpr(e.c);
    };
    for (std::int32_t sid = 0;
         sid < static_cast<std::int32_t>(flat_.stmts.size()); ++sid) {
      if (bodyStmts.count(sid) != 0) continue;
      const FlatStmt& s = flat_.stmts[static_cast<std::size_t>(sid)];
      walkExpr(s.index);
      walkExpr(s.value);
      walkExpr(s.cond);
      walkExpr(s.begin);
      walkExpr(s.end);
      walkExpr(s.step);
    }
    return reads;
  }

  void matchNamed(std::int32_t forId) {
    const FlatStmt& fs = flat_.stmts[static_cast<std::size_t>(forId)];
    const auto& body = flat_.lists[static_cast<std::size_t>(fs.body)];
    if (body.empty()) return;
    // Unit step only. DSL literals trace as var reads (Value(int) declares a
    // var), so the step is usually a Var here — that's fine: the runtime
    // dispatch re-checks step == 1 before using the named kernel and falls
    // back to the VM otherwise. Only a *known* non-unit constant can never
    // pass that gate, so only that case disables matching.
    if (fs.step >= 0) {
      const FlatExpr& st = flat_.exprs[static_cast<std::size_t>(fs.step)];
      if (st.kind == Expr::Kind::Const &&
          (st.constant.type() != DType::Int32 || st.constant.asInt() != 1)) {
        return;
      }
    }
    // All statements but the last must be single-assignment temps.
    std::unordered_map<int, std::int32_t> env;
    std::unordered_set<int> assigned;
    for (std::size_t i = 0; i + 1 < body.size(); ++i) {
      const FlatStmt& s = flat_.stmts[static_cast<std::size_t>(body[i])];
      if (s.kind != Stmt::Kind::Assign) return;
      if (!env.emplace(s.var, s.value).second) return;  // shadowed def
      assigned.insert(s.var);
    }
    const FlatStmt& last = flat_.stmts[static_cast<std::size_t>(body.back())];

    NamedLoop nm;
    if (last.kind == Stmt::Kind::StoreArg) {
      if (last.arg < 0 ||
          last.arg >= static_cast<std::int32_t>(LoopKernel::kMaxArgs) ||
          !isLoopIndex(last.index, env)) {
        return;
      }
      nm.dstArg = static_cast<std::int16_t>(last.arg);
      const FlatExpr& v = resolve(last.value, env);
      if (isLoad(v, env, nm.aArg)) {
        nm.p = NamedLoop::P::Copy;
      } else if (v.kind == Expr::Kind::Binary &&
                 (v.bop == BinOp::Add || v.bop == BinOp::Sub)) {
        nm.isSub = v.bop == BinOp::Sub;
        const FlatExpr& l = resolve(v.a, env);
        const FlatExpr& r = resolve(v.b, env);
        auto asMul = [&](const FlatExpr& e, std::int16_t& arg) {
          if (e.kind != Expr::Kind::Binary || e.bop != BinOp::Mul) return false;
          const FlatExpr& ml = resolve(e.a, env);
          const FlatExpr& mr = resolve(e.b, env);
          if (isScalar(ml, assigned, nm) && isLoad(mr, env, arg)) {
            nm.sFirst = true;
            return true;
          }
          if (isLoad(ml, env, arg) && isScalar(mr, assigned, nm)) {
            nm.sFirst = false;
            return true;
          }
          return false;
        };
        if (isLoad(l, env, nm.aArg) && asMul(r, nm.bArg)) {
          nm.p = NamedLoop::P::Axpy;
          nm.loadFirst = true;
        } else if (asMul(l, nm.bArg) && isLoad(r, env, nm.aArg)) {
          nm.p = NamedLoop::P::Axpy;
          nm.loadFirst = false;
        } else if (isLoad(l, env, nm.aArg) && isLoad(r, env, nm.bArg)) {
          nm.p = NamedLoop::P::AddVec;
        } else {
          return;
        }
      } else {
        return;
      }
    } else if (last.kind == Stmt::Kind::Assign) {
      // Reduction partial: acc = acc + X, acc assigned nowhere else.
      if (assigned.count(last.var) != 0) return;
      const FlatExpr& v = resolve(last.value, env);
      if (v.kind != Expr::Kind::Binary || v.bop != BinOp::Add) return;
      const FlatExpr& l = resolve(v.a, env);
      const FlatExpr& r = resolve(v.b, env);
      auto isAcc = [&](const FlatExpr& e) {
        return e.kind == Expr::Kind::Var && e.var == last.var &&
               e.type == DType::Float32;
      };
      const FlatExpr* x = nullptr;
      if (isAcc(l)) {
        nm.accFirst = true;
        x = &r;
      } else if (isAcc(r)) {
        nm.accFirst = false;
        x = &l;
      } else {
        return;
      }
      nm.accVar = last.var;
      if (isLoad(*x, env, nm.aArg)) {
        nm.dotSingle = true;
      } else if (x->kind == Expr::Kind::Binary && x->bop == BinOp::Mul &&
                 isLoad(resolve(x->a, env), env, nm.aArg) &&
                 isLoad(resolve(x->b, env), env, nm.bArg)) {
        nm.dotSingle = false;
      } else {
        return;
      }
      nm.p = NamedLoop::P::DotPartial;
      assigned.insert(last.var);  // counts as assigned for the outside scan
    } else {
      return;
    }

    // The named kernels do not materialise the per-iteration temps, so no
    // statement outside the loop may read them (the accumulator and the
    // induction variable are restored explicitly and are exempt).
    std::unordered_set<int> outside = varsReadOutside(forId);
    for (int v : assigned) {
      if (v == nm.accVar) continue;
      if (outside.count(v) != 0) return;
    }
    k_.named = nm;
  }

  /// Matches `e` (already resolved) as `args[A][idxVar]` of element type `t`.
  bool isIdxLoad(const FlatExpr& e, int idxVar, DType t,
                 const std::unordered_map<int, std::int32_t>& env,
                 std::int16_t& outArg) {
    if (e.kind != Expr::Kind::ArgLoad || e.type != t) return false;
    if (e.arg < 0 || e.arg >= static_cast<std::int32_t>(LoopKernel::kMaxArgs))
      return false;
    const FlatExpr& ix = resolve(e.a, env);
    if (ix.kind != Expr::Kind::Var || ix.var != idxVar) return false;
    outArg = static_cast<std::int16_t>(e.arg);
    return true;
  }

  /// Recognises the two-run CSR SpMV row body (see CsrRow). Matching is
  /// structural over the flat IR with temps resolved through their defining
  /// assignments, so the literal-int vars the DSL traces are looked through.
  /// Everything the match does not pin (dead temps, write-backs) stays exact
  /// because the executor still runs the final row through the register VM.
  void matchCsrRow(std::int32_t parForId) {
    const FlatStmt& fs = flat_.stmts[static_cast<std::size_t>(parForId)];
    const auto& body = flat_.lists[static_cast<std::size_t>(fs.body)];
    if (body.size() < 4) return;

    // Shape scan: top level is single-assignment temps, two Fors, and a
    // trailing StoreArg.
    std::unordered_map<int, std::int32_t> env;
    const FlatStmt* fors[2] = {nullptr, nullptr};
    std::size_t forPos[2] = {0, 0};
    const FlatStmt* store = nullptr;
    std::unordered_map<int, std::size_t> assignPos;
    for (std::size_t i = 0; i < body.size(); ++i) {
      const FlatStmt& s = flat_.stmts[static_cast<std::size_t>(body[i])];
      if (s.kind == Stmt::Kind::Assign) {
        if (i + 1 == body.size()) return;
        if (!env.emplace(s.var, s.value).second) return;
        assignPos.emplace(s.var, i);
      } else if (s.kind == Stmt::Kind::For) {
        if (fors[1] != nullptr) return;
        const std::size_t slot = fors[0] == nullptr ? 0 : 1;
        fors[slot] = &s;
        forPos[slot] = i;
      } else if (s.kind == Stmt::Kind::StoreArg && i + 1 == body.size()) {
        store = &s;
      } else {
        return;
      }
    }
    if (fors[1] == nullptr || store == nullptr) return;

    // Every var assigned anywhere in the row body (loop bodies included):
    // the owned-count operand must not be one, since the native rows read it
    // once from the interpreter's var slot.
    std::unordered_set<std::int32_t> bodyStmts;
    collectBodyStmts(fs.body, bodyStmts);
    std::unordered_set<int> assignedAnywhere;
    for (std::int32_t sid : bodyStmts) {
      const FlatStmt& s = flat_.stmts[static_cast<std::size_t>(sid)];
      if (s.kind == Stmt::Kind::Assign) assignedAnywhere.insert(s.var);
    }

    CsrRow m;
    // y[r] = acc — the store value must be a direct read of the accumulator.
    const FlatExpr& sv = flat_.exprs[static_cast<std::size_t>(store->value)];
    if (sv.kind != Expr::Kind::Var || sv.type != DType::Float32) return;
    const int accVar = sv.var;
    {
      const FlatExpr& ix = resolve(store->index, env);
      if (ix.kind != Expr::Kind::Var || ix.var != loopVar_) return;
    }
    if (store->arg < 0 ||
        store->arg >= static_cast<std::int32_t>(LoopKernel::kMaxArgs)) {
      return;
    }
    m.yArg = static_cast<std::int16_t>(store->arg);

    // acc = d[r] * x[r], initialised before the first loop (otherwise the
    // loop bodies would fold onto a seeded value, not this product).
    auto accIt = env.find(accVar);
    auto accPosIt = assignPos.find(accVar);
    if (accIt == env.end() || accPosIt == assignPos.end()) return;
    if (accPosIt->second > forPos[0]) return;
    const std::int32_t accInit = accIt->second;
    // Resolution must not look through the accumulator itself.
    env.erase(accVar);
    {
      const FlatExpr& init = flat_.exprs[static_cast<std::size_t>(accInit)];
      if (init.kind != Expr::Kind::Binary || init.bop != BinOp::Mul) return;
      if (!isIdxLoad(resolve(init.a, env), loopVar_, DType::Float32, env,
                     m.dArg) ||
          !isIdxLoad(resolve(init.b, env), loopVar_, DType::Float32, env,
                     m.xArg)) {
        return;
      }
    }

    // Loop bounds: [rp[r], sp[r]) then [sp[r], rp[r+1]), both unit step.
    auto unitStep = [&](const FlatStmt& f) {
      if (f.step < 0) return true;
      const FlatExpr& st = resolve(f.step, env);
      return st.kind == Expr::Kind::Const &&
             st.constant.type() == DType::Int32 && st.constant.asInt() == 1;
    };
    std::int16_t spAgain = -1;
    if (!unitStep(*fors[0]) || !unitStep(*fors[1])) return;
    if (!isIdxLoad(resolve(fors[0]->begin, env), loopVar_, DType::Int32, env,
                   m.rpArg) ||
        !isIdxLoad(resolve(fors[0]->end, env), loopVar_, DType::Int32, env,
                   m.spArg) ||
        !isIdxLoad(resolve(fors[1]->begin, env), loopVar_, DType::Int32, env,
                   spAgain) ||
        spAgain != m.spArg) {
      return;
    }
    {
      // rp[r + 1]
      const FlatExpr& e = resolve(fors[1]->end, env);
      if (e.kind != Expr::Kind::ArgLoad || e.type != DType::Int32) return;
      if (e.arg != m.rpArg) return;
      const FlatExpr& ix = resolve(e.a, env);
      if (ix.kind != Expr::Kind::Binary || ix.bop != BinOp::Add) return;
      const FlatExpr& l = resolve(ix.a, env);
      const FlatExpr& r = resolve(ix.b, env);
      if (l.kind != Expr::Kind::Var || l.var != loopVar_) return;
      if (r.kind != Expr::Kind::Const || r.constant.type() != DType::Int32 ||
          r.constant.asInt() != 1) {
        return;
      }
    }

    // Loop bodies: temps + `acc = acc + a[k] * <gather>`.
    auto matchBody = [&](const FlatStmt& f, bool halo) {
      if (f.body < 0) return false;
      const auto& list = flat_.lists[static_cast<std::size_t>(f.body)];
      if (list.empty()) return false;
      std::unordered_map<int, std::int32_t> envB = env;
      for (std::size_t i = 0; i + 1 < list.size(); ++i) {
        const FlatStmt& s = flat_.stmts[static_cast<std::size_t>(list[i])];
        if (s.kind != Stmt::Kind::Assign || s.var == accVar) return false;
        if (!envB.emplace(s.var, s.value).second) return false;
      }
      const FlatStmt& upd =
          flat_.stmts[static_cast<std::size_t>(list.back())];
      if (upd.kind != Stmt::Kind::Assign || upd.var != accVar) return false;
      const FlatExpr& v = resolve(upd.value, envB);
      if (v.kind != Expr::Kind::Binary || v.bop != BinOp::Add) return false;
      const FlatExpr& l = resolve(v.a, envB);
      if (l.kind != Expr::Kind::Var || l.var != accVar) return false;
      const FlatExpr& mul = resolve(v.b, envB);
      if (mul.kind != Expr::Kind::Binary || mul.bop != BinOp::Mul)
        return false;
      std::int16_t aArg = -1, cArg = -1;
      if (!isIdxLoad(resolve(mul.a, envB), f.var, DType::Float32, envB, aArg))
        return false;
      const FlatExpr& gather = resolve(mul.b, envB);
      if (gather.kind != Expr::Kind::ArgLoad ||
          gather.type != DType::Float32) {
        return false;
      }
      const FlatExpr& gix = resolve(gather.a, envB);
      if (!halo) {
        // x[c[k]]
        if (gather.arg != m.xArg) return false;
        if (!isIdxLoad(gix, f.var, DType::Int32, envB, cArg)) return false;
        m.aArg = aArg;
        m.cArg = cArg;
      } else {
        // h[c[k] - owned]
        if (gather.arg < 0 ||
            gather.arg >= static_cast<std::int32_t>(LoopKernel::kMaxArgs)) {
          return false;
        }
        m.hArg = static_cast<std::int16_t>(gather.arg);
        if (gix.kind != Expr::Kind::Binary || gix.bop != BinOp::Sub)
          return false;
        if (!isIdxLoad(resolve(gix.a, envB), f.var, DType::Int32, envB, cArg))
          return false;
        if (cArg != m.cArg || aArg != m.aArg) return false;
        const FlatExpr& owned = resolve(gix.b, envB);
        if (owned.kind != Expr::Kind::Var || owned.type != DType::Int32 ||
            owned.var == loopVar_ || owned.var == f.var ||
            assignedAnywhere.count(owned.var) != 0) {
          return false;
        }
        m.ownedVar = owned.var;
      }
      return true;
    };
    if (!matchBody(*fors[0], /*halo=*/false) ||
        !matchBody(*fors[1], /*halo=*/true)) {
      return;
    }
    // The matched shape lowers to exactly LBegin, LEnd, LBegin, LEnd.
    std::vector<const LoopOp*> ctl;
    for (const LoopOp& op : k_.ops) {
      if (op.k == LoopOp::K::LBegin || op.k == LoopOp::K::LEnd ||
          op.k == LoopOp::K::JmpZ || op.k == LoopOp::K::Jmp) {
        ctl.push_back(&op);
      }
    }
    if (ctl.size() != 4) return;
    m.entry[0] = ctl[0]->run;
    m.body[0] = ctl[1]->run;
    m.entry[1] = ctl[2]->run;
    m.body[1] = ctl[3]->run;
    m.valid = true;
    k_.csr = m;
  }

  const FlatCodelet& flat_;
  const ipu::CostModel& cost_;
  LoopKernel k_;
  ipu::LaneCycles iter_;
  std::unordered_map<int, Home> homes_;
  int loopVar_ = -1;
  const char* why_ = "";
  // Parallel (ParFor) mode state.
  bool parMode_ = false;
  bool inNested_ = false;
  int nestedVar_ = -1;
  std::int16_t nestedIvReg_ = -1;
  ipu::LaneCycles run_;     // charges since the last control op
  std::vector<int> scopes_;  // open conditional scopes, innermost last
  int nextScope_ = 0;
  std::unordered_set<int> retired_;
  // Vars currently holding a known integer constant (program order).
  std::unordered_map<int, std::int32_t> constInts_;
  std::vector<int> nestedVars_;
};

}  // namespace

// ---------------------------------------------------------------------------
// CompiledCodelet + flat executor.
// ---------------------------------------------------------------------------

class CompiledCodelet {
 public:
  FlatCodelet flat;
  std::vector<LoopKernel> kernels;
  // Loops left on the generic walk: (stmt id, construct that stopped the
  // compiler), reported by GRAPHENE_DUMP_COMPILE.
  std::vector<std::pair<std::int32_t, const char*>> walkLoops;
  ipu::CostModel cost;
  std::size_t numWorkers = 6;
};

namespace {

std::atomic<bool> g_fastPaths{!support::envFlag("GRAPHENE_NO_FASTPATH")};

/// One execution of a compiled codelet over a vertex. Cycle accounting is
/// identical to the original tree-walking interpreter: ops accumulate into a
/// LaneCycles block (fp/mem overlap); control flow flushes the block.
class FlatExec {
 public:
  FlatExec(const CompiledCodelet& cc, graph::VertexContext& ctx)
      : cc_(cc), ctx_(ctx),
        vars_(static_cast<std::size_t>(cc.flat.numVars)),
        fastPaths_(g_fastPaths.load(std::memory_order_relaxed)) {}

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
        Scalar idx = eval(e.a);
        const std::int32_t i = idx.castTo(DType::Int32).asInt();
        GRAPHENE_CHECK(i >= 0, "negative tensor index in codelet");
        charge(ipu::Op::Load, ctx_.argType(static_cast<std::size_t>(e.arg)));
        return ctx_.load(static_cast<std::size_t>(e.arg),
                         static_cast<std::size_t>(i));
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
        const std::int32_t i = idx.castTo(DType::Int32).asInt();
        GRAPHENE_CHECK(i >= 0, "negative tensor index in codelet");
        charge(ipu::Op::Store, ctx_.argType(static_cast<std::size_t>(s.arg)));
        ctx_.store(static_cast<std::size_t>(s.arg),
                   static_cast<std::size_t>(i), v);
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
      if (s.fastLoop >= 0 && fastPaths_ &&
          runFastLoop(cc_.kernels[static_cast<std::size_t>(s.fastLoop)], s,
                      begin, end, step)) {
        return;
      }
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
    if (s.fastLoop >= 0 && fastPaths_) {
      const LoopKernel& k =
          cc_.kernels[static_cast<std::size_t>(s.fastLoop)];
      if (k.isPar && runParLoop(k, s, begin, end, step)) return;
    }
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

  /// A kernel's runtime guards: the trace-time dtypes of its arguments and
  /// seeded vars must hold at run time, or the generic walk runs the loop.
  bool guardsHold(const LoopKernel& k) const {
    for (std::int16_t a : k.floatArgs) {
      if (ctx_.argType(static_cast<std::size_t>(a)) != DType::Float32)
        return false;
    }
    for (std::int16_t a : k.intArgs) {
      if (ctx_.argType(static_cast<std::size_t>(a)) != DType::Int32)
        return false;
    }
    for (const auto& [v, reg] : k.seedFloat) {
      if (vars_[static_cast<std::size_t>(v)].type() != DType::Float32)
        return false;
    }
    for (const auto& [v, reg] : k.seedInt) {
      if (vars_[static_cast<std::size_t>(v)].type() != DType::Int32)
        return false;
    }
    return true;
  }

  /// Runs a compiled loop kernel for [begin, end) step `step`. Returns false
  /// when a runtime guard fails (the generic walk then runs the loop; both
  /// paths are exact, the kernel is only faster).
  bool runFastLoop(const LoopKernel& k, const FlatStmt& s, std::int32_t begin,
                   std::int32_t end, std::int32_t step) {
    if (!guardsHold(k)) return false;
    if (begin >= end) return true;  // zero iterations: setup charges only

    // Bulk cycle charge: every priced constant is an integral double, so
    // n × perIteration is exactly the sum the generic walk accumulates.
    const double n = static_cast<double>(
        (static_cast<std::int64_t>(end) - begin + step - 1) / step);
    lanes_.add(ipu::Lane::Fp, n * k.iterFp);
    lanes_.add(ipu::Lane::Mem, n * k.iterMem);
    lanes_.add(ipu::Lane::Ctrl, n * k.iterCtrl);

    std::array<std::span<float>, LoopKernel::kMaxArgs> fsp;
    std::array<std::span<const std::int32_t>, LoopKernel::kMaxArgs> isp;
    for (std::int16_t a : k.floatArgs) {
      fsp[static_cast<std::size_t>(a)] =
          ctx_.floatSpan(static_cast<std::size_t>(a));
    }
    for (std::int16_t a : k.intArgs) {
      isp[static_cast<std::size_t>(a)] =
          ctx_.intSpan(static_cast<std::size_t>(a));
    }

    const NamedLoop& nm = k.named;
    if (nm.p != NamedLoop::P::None && step == 1 && begin >= 0 &&
        namedBoundsOk(nm, fsp, end)) {
      runNamed(nm, fsp, begin, end);
      vars_[static_cast<std::size_t>(s.var)] = Scalar(end - 1);
      return true;
    }

    // Register VM fallback: same ops, same order, per element.
    std::array<float, LoopKernel::kMaxRegs> fr{};
    std::array<std::int32_t, LoopKernel::kMaxRegs> ir{};
    for (const auto& [reg, arg] : k.sizeSeeds) {
      ir[static_cast<std::size_t>(reg)] = static_cast<std::int32_t>(
          ctx_.argSize(static_cast<std::size_t>(arg)));
    }
    if (k.workerReg >= 0) {
      ir[static_cast<std::size_t>(k.workerReg)] =
          static_cast<std::int32_t>(worker_);
    }
    for (const auto& [v, reg] : k.seedFloat) {
      fr[static_cast<std::size_t>(reg)] =
          vars_[static_cast<std::size_t>(v)].asFloat();
    }
    for (const auto& [v, reg] : k.seedInt) {
      ir[static_cast<std::size_t>(reg)] =
          vars_[static_cast<std::size_t>(v)].asInt();
    }
    // Block-vectorized front: blocks of 16, 8, 4 and 2 independent elements
    // run lane-wise (same scalar ops, same per-element order — bit-identical),
    // then the scalar VM finishes the tail. At least one element always goes
    // through the scalar VM so the home-register writebacks below observe
    // exactly the final element's state.
    std::int32_t scalarBegin = begin;
    if (k.blockable && step == 1 && begin >= 0 && end - begin > 2 &&
        blockedRangeOk(k, fsp, isp, end)) {
      scalarBegin = runBlockedFront(k, fsp, isp, fr, ir, begin, end);
    }
    std::int32_t last = begin;
    for (std::int32_t iv = scalarBegin; iv < end; iv += step) {
      ir[0] = iv;
      last = iv;
      runRowOps(k, fsp, isp, fr, ir);
    }
    vars_[static_cast<std::size_t>(s.var)] = Scalar(last);
    for (const auto& [v, reg] : k.writeFloat) {
      vars_[static_cast<std::size_t>(v)] =
          Scalar(fr[static_cast<std::size_t>(reg)]);
    }
    for (const auto& [v, reg] : k.writeInt) {
      vars_[static_cast<std::size_t>(v)] =
          Scalar(ir[static_cast<std::size_t>(reg)]);
    }
    return true;
  }

  /// Run-time guard for the blocked VM: every elementwise span must cover
  /// [0, end), and no stored span may alias a span it doesn't share
  /// elementwise access with. Two args bound to the identical span are safe
  /// when both only touch the element's own index (lane j touches only
  /// iv+j); anything overlapping otherwise falls back to the scalar VM.
  static bool blockedRangeOk(
      const LoopKernel& k,
      const std::array<std::span<float>, LoopKernel::kMaxArgs>& fsp,
      const std::array<std::span<const std::int32_t>, LoopKernel::kMaxArgs>&
          isp,
      std::int32_t end) {
    const auto n = static_cast<std::size_t>(end);
    for (const LoopKernel::ArgUse& u : k.loadFloat) {
      if (u.anyElementwise &&
          fsp[static_cast<std::size_t>(u.arg)].size() < n) {
        return false;
      }
    }
    for (const LoopKernel::ArgUse& u : k.loadInt) {
      if (u.anyElementwise &&
          isp[static_cast<std::size_t>(u.arg)].size() < n) {
        return false;
      }
    }
    for (const LoopKernel::ArgUse& u : k.storeFloat) {
      if (fsp[static_cast<std::size_t>(u.arg)].size() < n) return false;
    }
    auto overlapUnsafe = [&](const LoopKernel::ArgUse& a,
                             const LoopKernel::ArgUse& b) {
      if (a.arg == b.arg) return false;  // same span: checked at compile time
      const auto& sa = fsp[static_cast<std::size_t>(a.arg)];
      const auto& sb = fsp[static_cast<std::size_t>(b.arg)];
      if (sa.data() == sb.data() && sa.size() == sb.size()) {
        return !(a.elementwiseOnly && b.elementwiseOnly);
      }
      return sa.data() < sb.data() + sb.size() &&
             sb.data() < sa.data() + sa.size();
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

  /// Runs as much of [begin, end) as possible through runBlockedRange,
  /// stepping the lane width down 16 → 8 → 4 → 2 while always leaving at
  /// least one element for the scalar VM (whose register state feeds the
  /// home-variable writebacks). Returns where the scalar tail starts.
  static std::int32_t runBlockedFront(
      const LoopKernel& k,
      const std::array<std::span<float>, LoopKernel::kMaxArgs>& fsp,
      const std::array<std::span<const std::int32_t>, LoopKernel::kMaxArgs>&
          isp,
      const std::array<float, LoopKernel::kMaxRegs>& fr,
      const std::array<std::int32_t, LoopKernel::kMaxRegs>& ir,
      std::int32_t begin, std::int32_t end) {
    std::int32_t iv = begin;
    if (end - 1 - iv >= 16) {
      const std::int32_t n = ((end - 1 - iv) / 16) * 16;
      runBlockedRange<16>(k, fsp, isp, fr, ir, iv, iv + n);
      iv += n;
    }
    if (end - 1 - iv >= 8) {
      runBlockedRange<8>(k, fsp, isp, fr, ir, iv, iv + 8);
      iv += 8;
    }
    if (end - 1 - iv >= 4) {
      runBlockedRange<4>(k, fsp, isp, fr, ir, iv, iv + 4);
      iv += 4;
    }
    if (end - 1 - iv >= 2) {
      runBlockedRange<2>(k, fsp, isp, fr, ir, iv, iv + 2);
      iv += 2;
    }
    return iv;
  }

  /// Runs [begin, endB) of a blockable kernel in lanes of B.
  /// Each op applies its scalar operation to every lane in increasing lane
  /// order before the next op runs; with no loop-carried registers and only
  /// elementwise stores (analyzeBlockable) plus non-aliased spans
  /// (blockedRangeOk), every element sees exactly the scalar VM's operation
  /// sequence on exactly the scalar VM's values — bit-identical results.
  /// Caller guarantees endB - begin is a positive multiple of B.
  template <std::int32_t B>
  static void runBlockedRange(
      const LoopKernel& k,
      const std::array<std::span<float>, LoopKernel::kMaxArgs>& fsp,
      const std::array<std::span<const std::int32_t>, LoopKernel::kMaxArgs>&
          isp,
      const std::array<float, LoopKernel::kMaxRegs>& fr,
      const std::array<std::int32_t, LoopKernel::kMaxRegs>& ir,
      std::int32_t begin, std::int32_t endB) {
    alignas(64) float fb[LoopKernel::kMaxRegs][B];
    alignas(64) std::int32_t ib[LoopKernel::kMaxRegs][B];
    // Seed registers are loop-invariant (no carried regs): splat once.
    for (int r = 0; r < k.numFloatRegs; ++r) {
      for (std::int32_t j = 0; j < B; ++j) fb[r][j] = fr[static_cast<std::size_t>(r)];
    }
    for (int r = 0; r < k.numIntRegs; ++r) {
      for (std::int32_t j = 0; j < B; ++j) ib[r][j] = ir[static_cast<std::size_t>(r)];
    }
    using K = LoopOp::K;
    for (std::int32_t iv = begin; iv < endB; iv += B) {
      for (std::int32_t j = 0; j < B; ++j) ib[0][j] = iv + j;
      for (const LoopOp& op : k.ops) {
        switch (op.k) {
          case K::FConst: {
            float* d = fb[op.dst];
            for (std::int32_t j = 0; j < B; ++j) d[j] = op.fimm;
            break;
          }
          case K::FMov: {
            float* d = fb[op.dst];
            const float* a = fb[op.a];
            for (std::int32_t j = 0; j < B; ++j) d[j] = a[j];
            break;
          }
          case K::FLoad: {
            const auto& sp = fsp[static_cast<std::size_t>(op.arg)];
            float* d = fb[op.dst];
            if (op.ew) {
              // Index proven equal to iv: bounds pre-checked, contiguous.
              const float* GRAPHENE_RESTRICT p = sp.data() + iv;
              for (std::int32_t j = 0; j < B; ++j) d[j] = p[j];
            } else {
              const std::int32_t* x = ib[op.a];
              for (std::int32_t j = 0; j < B; ++j) {
                const auto ix = static_cast<std::uint32_t>(x[j]);
                GRAPHENE_CHECK(ix < sp.size(),
                               "tensor index out of range in codelet");
                d[j] = sp[ix];
              }
            }
            break;
          }
          case K::FStore: {
            // analyzeBlockable only admits elementwise stores (op.ew).
            const auto& sp = fsp[static_cast<std::size_t>(op.arg)];
            float* GRAPHENE_RESTRICT p = sp.data() + iv;
            const float* s = fb[op.b];
            for (std::int32_t j = 0; j < B; ++j) p[j] = s[j];
            break;
          }
          case K::FAdd: {
            float* d = fb[op.dst];
            const float *a = fb[op.a], *b = fb[op.b];
            for (std::int32_t j = 0; j < B; ++j) d[j] = a[j] + b[j];
            break;
          }
          case K::FSub: {
            float* d = fb[op.dst];
            const float *a = fb[op.a], *b = fb[op.b];
            for (std::int32_t j = 0; j < B; ++j) d[j] = a[j] - b[j];
            break;
          }
          case K::FMul: {
            float* d = fb[op.dst];
            const float *a = fb[op.a], *b = fb[op.b];
            for (std::int32_t j = 0; j < B; ++j) d[j] = a[j] * b[j];
            break;
          }
          case K::FDiv: {
            float* d = fb[op.dst];
            const float *a = fb[op.a], *b = fb[op.b];
            for (std::int32_t j = 0; j < B; ++j) d[j] = a[j] / b[j];
            break;
          }
          case K::FMin: {
            float* d = fb[op.dst];
            const float *a = fb[op.a], *b = fb[op.b];
            for (std::int32_t j = 0; j < B; ++j) {
              d[j] = b[j] < a[j] ? b[j] : a[j];  // matches binNumeric Min
            }
            break;
          }
          case K::FMax: {
            float* d = fb[op.dst];
            const float *a = fb[op.a], *b = fb[op.b];
            for (std::int32_t j = 0; j < B; ++j) {
              d[j] = a[j] < b[j] ? b[j] : a[j];  // matches binNumeric Max
            }
            break;
          }
          case K::FNeg: {
            float* d = fb[op.dst];
            const float* a = fb[op.a];
            for (std::int32_t j = 0; j < B; ++j) d[j] = -a[j];
            break;
          }
          case K::FAbs: {
            float* d = fb[op.dst];
            const float* a = fb[op.a];
            for (std::int32_t j = 0; j < B; ++j) d[j] = std::fabs(a[j]);
            break;
          }
          case K::FSqrt: {
            float* d = fb[op.dst];
            const float* a = fb[op.a];
            for (std::int32_t j = 0; j < B; ++j) d[j] = std::sqrt(a[j]);
            break;
          }
          case K::FFromInt: {
            float* d = fb[op.dst];
            const std::int32_t* a = ib[op.a];
            for (std::int32_t j = 0; j < B; ++j) {
              d[j] = static_cast<float>(a[j]);
            }
            break;
          }
          case K::IConst: {
            std::int32_t* d = ib[op.dst];
            for (std::int32_t j = 0; j < B; ++j) d[j] = op.iimm;
            break;
          }
          case K::IMov: {
            std::int32_t* d = ib[op.dst];
            const std::int32_t* a = ib[op.a];
            for (std::int32_t j = 0; j < B; ++j) d[j] = a[j];
            break;
          }
          case K::ILoad: {
            const auto& sp = isp[static_cast<std::size_t>(op.arg)];
            std::int32_t* d = ib[op.dst];
            if (op.ew) {
              const std::int32_t* GRAPHENE_RESTRICT p = sp.data() + iv;
              for (std::int32_t j = 0; j < B; ++j) d[j] = p[j];
            } else {
              const std::int32_t* x = ib[op.a];
              for (std::int32_t j = 0; j < B; ++j) {
                const auto ix = static_cast<std::uint32_t>(x[j]);
                GRAPHENE_CHECK(ix < sp.size(),
                               "tensor index out of range in codelet");
                d[j] = sp[ix];
              }
            }
            break;
          }
          case K::IAdd: {
            std::int32_t* d = ib[op.dst];
            const std::int32_t *a = ib[op.a], *b = ib[op.b];
            for (std::int32_t j = 0; j < B; ++j) d[j] = a[j] + b[j];
            break;
          }
          case K::ISub: {
            std::int32_t* d = ib[op.dst];
            const std::int32_t *a = ib[op.a], *b = ib[op.b];
            for (std::int32_t j = 0; j < B; ++j) d[j] = a[j] - b[j];
            break;
          }
          case K::IMul: {
            std::int32_t* d = ib[op.dst];
            const std::int32_t *a = ib[op.a], *b = ib[op.b];
            for (std::int32_t j = 0; j < B; ++j) d[j] = a[j] * b[j];
            break;
          }
          case K::IMin: {
            std::int32_t* d = ib[op.dst];
            const std::int32_t *a = ib[op.a], *b = ib[op.b];
            for (std::int32_t j = 0; j < B; ++j) {
              d[j] = b[j] < a[j] ? b[j] : a[j];
            }
            break;
          }
          case K::IMax: {
            std::int32_t* d = ib[op.dst];
            const std::int32_t *a = ib[op.a], *b = ib[op.b];
            for (std::int32_t j = 0; j < B; ++j) {
              d[j] = a[j] < b[j] ? b[j] : a[j];
            }
            break;
          }
          case K::INeg: {
            std::int32_t* d = ib[op.dst];
            const std::int32_t* a = ib[op.a];
            for (std::int32_t j = 0; j < B; ++j) d[j] = -a[j];
            break;
          }
          case K::IAbs: {
            std::int32_t* d = ib[op.dst];
            const std::int32_t* a = ib[op.a];
            for (std::int32_t j = 0; j < B; ++j) {
              d[j] = a[j] < 0 ? -a[j] : a[j];
            }
            break;
          }
          case K::IFromFloat: {
            std::int32_t* d = ib[op.dst];
            const float* a = fb[op.a];
            for (std::int32_t j = 0; j < B; ++j) {
              d[j] = static_cast<std::int32_t>(a[j]);
            }
            break;
          }
          case K::ILt: case K::ILe: case K::IEq: case K::INe:
          case K::FLt: case K::FLe: case K::FEq: case K::FNe:
          case K::LBegin: case K::LEnd: case K::JmpZ: case K::Jmp:
            break;  // analyzeBlockable never admits these
        }
      }
    }
  }

  /// Executes one pass over a kernel's ops: a linear walk whose control ops
  /// (parallel row kernels only) implement nested counted loops and Ifs;
  /// serial kernels contain none and degenerate to a straight run. Returns
  /// the pass's cycle cost, charged block by block like the generic walk
  /// (see LoopKernel::isPar) — meaningful for parallel rows only.
  static double runRowOps(
      const LoopKernel& k,
      const std::array<std::span<float>, LoopKernel::kMaxArgs>& fsp,
      const std::array<std::span<const std::int32_t>, LoopKernel::kMaxArgs>&
          isp,
      std::array<float, LoopKernel::kMaxRegs>& fr,
      std::array<std::int32_t, LoopKernel::kMaxRegs>& ir) {
    // Only one loop is ever active (single-level nesting), so one live trip
    // counter suffices.
    std::int32_t trip = 0;
    LaneSums open;     // the walk's current lane block
    double cost = 0;   // closed blocks and branches
    auto add = [&open](const LaneSums& r) {
      open.fp += r.fp;
      open.mem += r.mem;
      open.ctrl += r.ctrl;
    };
    auto close = [&] {
      cost += open.total() + k.branchCost;
      open = LaneSums{};
    };
    const std::size_t nops = k.ops.size();
    for (std::size_t pc = 0; pc < nops; ++pc) {
      const LoopOp& op = k.ops[pc];
      switch (op.k) {
        case LoopOp::K::FConst: fr[op.dst] = op.fimm; break;
        case LoopOp::K::FMov: fr[op.dst] = fr[op.a]; break;
        case LoopOp::K::FLoad: {
          const auto& sp = fsp[static_cast<std::size_t>(op.arg)];
          const auto ix = static_cast<std::uint32_t>(ir[op.a]);
          GRAPHENE_CHECK(ix < sp.size(), "tensor index out of range in codelet");
          fr[op.dst] = sp[ix];
          break;
        }
        case LoopOp::K::FStore: {
          const auto& sp = fsp[static_cast<std::size_t>(op.arg)];
          const auto ix = static_cast<std::uint32_t>(ir[op.a]);
          GRAPHENE_CHECK(ix < sp.size(), "tensor index out of range in codelet");
          sp[ix] = fr[op.b];
          break;
        }
        case LoopOp::K::FAdd: fr[op.dst] = fr[op.a] + fr[op.b]; break;
        case LoopOp::K::FSub: fr[op.dst] = fr[op.a] - fr[op.b]; break;
        case LoopOp::K::FMul: fr[op.dst] = fr[op.a] * fr[op.b]; break;
        case LoopOp::K::FDiv: fr[op.dst] = fr[op.a] / fr[op.b]; break;
        case LoopOp::K::FMin: {
          const float a = fr[op.a], b = fr[op.b];
          fr[op.dst] = b < a ? b : a;  // matches binNumeric Min
          break;
        }
        case LoopOp::K::FMax: {
          const float a = fr[op.a], b = fr[op.b];
          fr[op.dst] = a < b ? b : a;  // matches binNumeric Max
          break;
        }
        case LoopOp::K::FNeg: fr[op.dst] = -fr[op.a]; break;
        case LoopOp::K::FAbs: fr[op.dst] = std::fabs(fr[op.a]); break;
        case LoopOp::K::FSqrt: fr[op.dst] = std::sqrt(fr[op.a]); break;
        case LoopOp::K::FFromInt:
          fr[op.dst] = static_cast<float>(ir[op.a]);
          break;
        case LoopOp::K::IConst: ir[op.dst] = op.iimm; break;
        case LoopOp::K::IMov: ir[op.dst] = ir[op.a]; break;
        case LoopOp::K::ILoad: {
          const auto& sp = isp[static_cast<std::size_t>(op.arg)];
          const auto ix = static_cast<std::uint32_t>(ir[op.a]);
          GRAPHENE_CHECK(ix < sp.size(), "tensor index out of range in codelet");
          ir[op.dst] = sp[ix];
          break;
        }
        case LoopOp::K::IAdd: ir[op.dst] = ir[op.a] + ir[op.b]; break;
        case LoopOp::K::ISub: ir[op.dst] = ir[op.a] - ir[op.b]; break;
        case LoopOp::K::IMul: ir[op.dst] = ir[op.a] * ir[op.b]; break;
        case LoopOp::K::IMin: {
          const std::int32_t a = ir[op.a], b = ir[op.b];
          ir[op.dst] = b < a ? b : a;
          break;
        }
        case LoopOp::K::IMax: {
          const std::int32_t a = ir[op.a], b = ir[op.b];
          ir[op.dst] = a < b ? b : a;
          break;
        }
        case LoopOp::K::INeg: ir[op.dst] = -ir[op.a]; break;
        case LoopOp::K::IAbs: {
          const std::int32_t v = ir[op.a];
          ir[op.dst] = v < 0 ? -v : v;
          break;
        }
        case LoopOp::K::IFromFloat:
          ir[op.dst] = static_cast<std::int32_t>(fr[op.a]);
          break;
        case LoopOp::K::ILt: ir[op.dst] = ir[op.a] < ir[op.b]; break;
        case LoopOp::K::ILe: ir[op.dst] = ir[op.a] <= ir[op.b]; break;
        case LoopOp::K::IEq: ir[op.dst] = ir[op.a] == ir[op.b]; break;
        case LoopOp::K::INe: ir[op.dst] = !(ir[op.a] == ir[op.b]); break;
        case LoopOp::K::FLt: ir[op.dst] = fr[op.a] < fr[op.b]; break;
        case LoopOp::K::FLe: ir[op.dst] = fr[op.a] <= fr[op.b]; break;
        case LoopOp::K::FEq: ir[op.dst] = fr[op.a] == fr[op.b]; break;
        case LoopOp::K::FNe: ir[op.dst] = !(fr[op.a] == fr[op.b]); break;
        case LoopOp::K::LBegin: {
          add(op.run);
          close();
          const std::int32_t b = ir[op.a], e = ir[op.b];
          if (e <= b) {
            // Jump to the LEnd; ++pc then steps past it.
            pc = static_cast<std::size_t>(op.iimm);
            break;
          }
          trip = e - b;
          ir[op.dst] = b;
          break;
        }
        case LoopOp::K::LEnd:
          add(op.run);
          if (--trip > 0) {
            ++ir[op.a];
            // Jump to the LBegin; ++pc re-enters the body without re-running
            // the loop initialisation.
            pc = static_cast<std::size_t>(op.iimm);
          }
          break;
        case LoopOp::K::JmpZ:
          add(op.run);
          close();
          if (ir[op.a] == 0) pc = static_cast<std::size_t>(op.iimm);
          break;
        case LoopOp::K::Jmp:
          add(op.run);
          pc = static_cast<std::size_t>(op.iimm);
          break;
      }
    }
    add(k.tail);
    return cost + open.total();
  }

  /// Runs a compiled ParFor kernel: rows are dealt round-robin to a worker
  /// pool exactly like the generic walk, but each row executes as one
  /// register program charged per executed lane block (runRowOps) instead of
  /// per op; native CSR rows use a closed form of the same sums. The caller
  /// has evaluated the bounds and flushed. Returns
  /// false when a runtime guard fails (the generic pool walk then runs; both
  /// are exact).
  bool runParLoop(const LoopKernel& k, const FlatStmt& s, std::int32_t begin,
                  std::int32_t end, std::int32_t step) {
    if (!guardsHold(k)) return false;
    ipu::WorkerPool pool(cc_.numWorkers);
    pool.chargeSpawn();
    if (begin < end) {
      std::array<std::span<float>, LoopKernel::kMaxArgs> fsp;
      std::array<std::span<const std::int32_t>, LoopKernel::kMaxArgs> isp;
      for (std::int16_t a : k.floatArgs) {
        fsp[static_cast<std::size_t>(a)] =
            ctx_.floatSpan(static_cast<std::size_t>(a));
      }
      for (std::int16_t a : k.intArgs) {
        isp[static_cast<std::size_t>(a)] =
            ctx_.intSpan(static_cast<std::size_t>(a));
      }
      std::array<float, LoopKernel::kMaxRegs> fr{};
      std::array<std::int32_t, LoopKernel::kMaxRegs> ir{};
      for (const auto& [reg, arg] : k.sizeSeeds) {
        ir[static_cast<std::size_t>(reg)] = static_cast<std::int32_t>(
            ctx_.argSize(static_cast<std::size_t>(arg)));
      }
      for (const auto& [v, reg] : k.seedFloat) {
        fr[static_cast<std::size_t>(reg)] =
            vars_[static_cast<std::size_t>(v)].asFloat();
      }
      for (const auto& [v, reg] : k.seedInt) {
        ir[static_cast<std::size_t>(reg)] =
            vars_[static_cast<std::size_t>(v)].asInt();
      }
      // Native CSR rows: all but the last row run as a plain scalar loop
      // (identical float ops in identical order); the last row goes through
      // the register VM so every home register write-back stays exact.
      const CsrRow& csr = k.csr;
      const bool native = csr.valid && step == 1;
      const float* dp = nullptr;
      const float* xp = nullptr;
      const float* ap = nullptr;
      const float* hp = nullptr;
      float* yp = nullptr;
      const std::int32_t* cp = nullptr;
      const std::int32_t* rpp = nullptr;
      const std::int32_t* spp = nullptr;
      std::int32_t owned = 0;
      if (native) {
        dp = fsp[static_cast<std::size_t>(csr.dArg)].data();
        xp = fsp[static_cast<std::size_t>(csr.xArg)].data();
        ap = fsp[static_cast<std::size_t>(csr.aArg)].data();
        hp = fsp[static_cast<std::size_t>(csr.hArg)].data();
        yp = fsp[static_cast<std::size_t>(csr.yArg)].data();
        cp = isp[static_cast<std::size_t>(csr.cArg)].data();
        rpp = isp[static_cast<std::size_t>(csr.rpArg)].data();
        spp = isp[static_cast<std::size_t>(csr.spArg)].data();
        owned = vars_[static_cast<std::size_t>(csr.ownedVar)].asInt();
      }
      std::size_t w = 0;
      std::int32_t last = begin;
      for (std::int32_t iv = begin; iv < end; iv += step) {
        ir[0] = iv;
        last = iv;
        if (k.workerReg >= 0) {
          ir[static_cast<std::size_t>(k.workerReg)] =
              static_cast<std::int32_t>(w);
        }
        double rowCost;
        if (native && iv + 1 < end) {
          const auto r = static_cast<std::size_t>(iv);
          float acc = dp[r] * xp[r];
          const std::int32_t b1 = rpp[r], e1 = spp[r], e2 = rpp[r + 1];
          for (std::int32_t kk = b1; kk < e1; ++kk) {
            acc = acc + ap[kk] * xp[cp[kk]];
          }
          for (std::int32_t kk = e1; kk < e2; ++kk) {
            acc = acc + ap[kk] * hp[cp[kk] - owned];
          }
          yp[r] = acc;
          rowCost = csrRowCost(k, e1 > b1 ? e1 - b1 : 0, e2 > e1 ? e2 - e1 : 0);
        } else {
          rowCost = runRowOps(k, fsp, isp, fr, ir);
        }
        pool.addCycles(w, rowCost);
        w = (w + 1) % cc_.numWorkers;
      }
      vars_[static_cast<std::size_t>(s.var)] = Scalar(last);
      for (const auto& [v, reg] : k.writeFloat) {
        vars_[static_cast<std::size_t>(v)] =
            Scalar(fr[static_cast<std::size_t>(reg)]);
      }
      for (const auto& [v, reg] : k.writeInt) {
        vars_[static_cast<std::size_t>(v)] =
            Scalar(ir[static_cast<std::size_t>(reg)]);
      }
    }
    total_ += pool.sync();
    return true;
  }

  /// Closed form of runRowOps' charge for a CSR row with trip counts t0, t1:
  /// three lane blocks — entry, t0 owned-run bodies plus the second entry,
  /// t1 halo-run bodies plus the tail — and two loop-entry branches.
  static double csrRowCost(const LoopKernel& k, std::int32_t t0,
                           std::int32_t t1) {
    auto block = [](const LaneSums& head, double n, const LaneSums& per) {
      return LaneSums{head.fp + n * per.fp, head.mem + n * per.mem,
                      head.ctrl + n * per.ctrl}
          .total();
    };
    const CsrRow& c = k.csr;
    return c.entry[0].total() + block(c.entry[1], t0, c.body[0]) +
           block(k.tail, t1, c.body[1]) + 2 * k.branchCost;
  }

  bool namedBoundsOk(
      const NamedLoop& nm,
      const std::array<std::span<float>, LoopKernel::kMaxArgs>& fsp,
      std::int32_t end) const {
    const auto e = static_cast<std::size_t>(end);
    auto ok = [&](std::int16_t arg) {
      return arg < 0 || e <= fsp[static_cast<std::size_t>(arg)].size();
    };
    return ok(nm.dstArg) && ok(nm.aArg) && ok(nm.bArg);
  }

  /// True when [a, a+n) and [b, b+n) cannot overlap (std::less_equal gives a
  /// total order even for pointers into unrelated allocations).
  static bool spansDisjoint(const float* a, const float* b, std::size_t n) {
    return std::less_equal<const float*>{}(a + n, b) ||
           std::less_equal<const float*>{}(b + n, a);
  }

  void runNamed(const NamedLoop& nm,
                const std::array<std::span<float>, LoopKernel::kMaxArgs>& fsp,
                std::int32_t begin, std::int32_t end) {
    auto span = [&](std::int16_t arg) {
      return fsp[static_cast<std::size_t>(arg)];
    };
    const float sv =
        nm.sIsConst
            ? nm.sConst
            : (nm.sVar >= 0
                   ? vars_[static_cast<std::size_t>(nm.sVar)].asFloat()
                   : 0.0f);
    const std::size_t n = static_cast<std::size_t>(end - begin);
    switch (nm.p) {
      case NamedLoop::P::Copy: {
        float* dp = span(nm.dstArg).data() + begin;
        const float* ap = span(nm.aArg).data() + begin;
        if (dp == ap) return;  // self-copy: the forward walk is the identity
        if (spansDisjoint(dp, ap, n)) {
          std::memcpy(dp, ap, n * sizeof(float));  // raw bits, bit-exact
        } else {
          for (std::size_t i = 0; i < n; ++i) dp[i] = ap[i];
        }
        return;
      }
      case NamedLoop::P::AddVec: {
        float* dp = span(nm.dstArg).data() + begin;
        const float* ap = span(nm.aArg).data() + begin;
        const float* bp = span(nm.bArg).data() + begin;
        if (spansDisjoint(dp, ap, n) && spansDisjoint(dp, bp, n)) {
          float* GRAPHENE_RESTRICT dr = dp;
          if (nm.isSub) {
            for (std::size_t i = 0; i < n; ++i) dr[i] = ap[i] - bp[i];
          } else {
            for (std::size_t i = 0; i < n; ++i) dr[i] = ap[i] + bp[i];
          }
        } else if (nm.isSub) {
          for (std::size_t i = 0; i < n; ++i) dp[i] = ap[i] - bp[i];
        } else {
          for (std::size_t i = 0; i < n; ++i) dp[i] = ap[i] + bp[i];
        }
        return;
      }
      case NamedLoop::P::Axpy: {
        float* dp = span(nm.dstArg).data() + begin;
        const float* ap = span(nm.aArg).data() + begin;
        const float* bp = span(nm.bArg).data() + begin;
        if (spansDisjoint(dp, ap, n) && spansDisjoint(dp, bp, n)) {
          float* GRAPHENE_RESTRICT dr = dp;
          for (std::size_t i = 0; i < n; ++i) {
            const float m = nm.sFirst ? sv * bp[i] : bp[i] * sv;
            dr[i] = nm.loadFirst ? (nm.isSub ? ap[i] - m : ap[i] + m)
                                 : (nm.isSub ? m - ap[i] : m + ap[i]);
          }
        } else {
          for (std::size_t i = 0; i < n; ++i) {
            const float m = nm.sFirst ? sv * bp[i] : bp[i] * sv;
            dp[i] = nm.loadFirst ? (nm.isSub ? ap[i] - m : ap[i] + m)
                                 : (nm.isSub ? m - ap[i] : m + ap[i]);
          }
        }
        return;
      }
      case NamedLoop::P::DotPartial: {
        auto a = span(nm.aArg);
        float acc = vars_[static_cast<std::size_t>(nm.accVar)].asFloat();
        if (nm.dotSingle) {
          for (std::int32_t i = begin; i < end; ++i) {
            acc = nm.accFirst ? acc + a[i] : a[i] + acc;
          }
        } else {
          auto b = span(nm.bArg);
          for (std::int32_t i = begin; i < end; ++i) {
            const float m = a[i] * b[i];
            acc = nm.accFirst ? acc + m : m + acc;
          }
        }
        vars_[static_cast<std::size_t>(nm.accVar)] = Scalar(acc);
        return;
      }
      case NamedLoop::P::None:
        return;
    }
  }

  const CompiledCodelet& cc_;
  graph::VertexContext& ctx_;
  std::vector<Scalar> vars_;
  ipu::LaneCycles lanes_;
  double total_ = 0;
  std::size_t worker_ = 0;
  bool fastPaths_ = true;
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

CompiledCodeletPtr compileCodelet(const CodeletIR& ir,
                                  const ipu::CostModel& cost,
                                  std::size_t numWorkers) {
  auto cc = std::make_shared<CompiledCodelet>();
  cc->flat = flattenCodelet(ir);
  cc->cost = cost;
  cc->numWorkers = numWorkers;
  // Kernels are always compiled; whether they run is decided per execution
  // (setCodeletFastPaths), so the generic/fast A-B comparison can use the
  // same graph.
  LoopCompiler lc(cc->flat, cc->cost);
  for (std::size_t sid = 0; sid < cc->flat.stmts.size(); ++sid) {
    FlatStmt& s = cc->flat.stmts[sid];
    if (s.kind != Stmt::Kind::For && s.kind != Stmt::Kind::ParFor) continue;
    const auto id = static_cast<std::int32_t>(sid);
    auto kernel = s.kind == Stmt::Kind::For ? lc.compile(id) : lc.compilePar(id);
    if (kernel) {
      s.fastLoop = static_cast<std::int32_t>(cc->kernels.size());
      cc->kernels.push_back(std::move(*kernel));
    } else {
      cc->walkLoops.emplace_back(id, lc.why());
    }
  }
  return cc;
}

std::size_t compiledKernelCount(const CompiledCodelet& codelet) {
  return codelet.kernels.size();
}

graph::VertexCost runCompiled(const CompiledCodelet& codelet,
                              graph::VertexContext& ctx) {
  GRAPHENE_CHECK(ctx.numArgs() == codelet.flat.numArgs,
                 "codelet arg count mismatch: vertex has ", ctx.numArgs(),
                 ", codelet expects ", codelet.flat.numArgs);
  graph::VertexCost result;
  result.wholeTile = codelet.flat.usesWorkers;
  FlatExec exec(codelet, ctx);
  result.workerCycles = exec.run();
  return result;
}

graph::Codelet makeCodelet(std::string name, CodeletIR ir,
                           const ipu::CostModel& cost,
                           std::size_t numWorkers) {
  CompiledCodeletPtr cc = compileCodelet(ir, cost, numWorkers);
  // Compile-time diagnostics: which loops got a VM kernel, which of those are
  // block-vectorizable or matched a named bulk kernel, and what kept each
  // remaining loop on the walk. Costs nothing when the env var is unset;
  // invaluable when a hot loop silently drops to the walk.
  if (support::envFlag("GRAPHENE_DUMP_COMPILE")) {
    std::size_t loops = 0, fast = 0;
    for (const FlatStmt& s : cc->flat.stmts) {
      if (s.kind == Stmt::Kind::For || s.kind == Stmt::Kind::ParFor) {
        ++loops;
        if (s.fastLoop >= 0) ++fast;
      }
    }
    std::fprintf(stderr, "[compile] %s: loops=%zu fast=%zu\n", name.c_str(),
                 loops, fast);
    // Indexed by NamedLoop::P.
    static constexpr const char* kNamed[] = {"none", "copy", "addvec", "axpy",
                                             "dot"};
    static_assert(std::size(kNamed) ==
                  static_cast<std::size_t>(NamedLoop::P::DotPartial) + 1);
    for (const LoopKernel& k : cc->kernels) {
      std::fprintf(stderr,
                   "  kernel: par=%d ops=%zu csr=%d blockable=%d named=%s\n",
                   k.isPar ? 1 : 0, k.ops.size(), k.csr.valid ? 1 : 0,
                   k.blockable ? 1 : 0,
                   kNamed[static_cast<std::size_t>(k.named.p)]);
    }
    for (const auto& [sid, why] : cc->walkLoops) {
      const bool par = cc->flat.stmts[static_cast<std::size_t>(sid)].kind ==
                       Stmt::Kind::ParFor;
      std::fprintf(stderr, "  walk: %s stmt=%d stopped by: %s\n",
                   par ? "ParFor" : "For", sid, why);
    }
  }
  return graph::Codelet{std::move(name),
                        [cc = std::move(cc)](graph::VertexContext& vc) {
                          return runCompiled(*cc, vc);
                        }};
}

}  // namespace graphene::dsl
