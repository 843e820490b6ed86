#include "dsl/tensor.hpp"

#include <iostream>

#include "dsl/interpreter.hpp"
#include "graph/engine.hpp"
#include "support/error.hpp"

namespace graphene::dsl {

namespace detail {

struct ExpNode {
  enum class Kind { Ref, Const, Binary, Unary, Cast, Select };
  Kind kind = Kind::Const;
  DType type = DType::Float32;
  graph::TensorId tensor = graph::kInvalidTensor;  // Ref
  Scalar constant;                                 // Const
  ExpNodePtr a, b, c;
  BinOp bop = BinOp::Add;
  UnOp uop = UnOp::Neg;
};

namespace {

ExpNodePtr refNode(graph::TensorId id) {
  auto n = std::make_shared<ExpNode>();
  n->kind = ExpNode::Kind::Ref;
  n->tensor = id;
  n->type = Context::current().graph().tensor(id).dtype;
  return n;
}

ExpNodePtr constNode(Scalar s) {
  auto n = std::make_shared<ExpNode>();
  n->kind = ExpNode::Kind::Const;
  n->constant = s;
  n->type = s.type();
  return n;
}

ExpNodePtr binaryNode(BinOp op, ExpNodePtr a, ExpNodePtr b) {
  auto n = std::make_shared<ExpNode>();
  n->kind = ExpNode::Kind::Binary;
  bool isCmp = op == BinOp::Lt || op == BinOp::Le || op == BinOp::Gt ||
               op == BinOp::Ge || op == BinOp::Eq || op == BinOp::Ne ||
               op == BinOp::And || op == BinOp::Or;
  n->type = isCmp ? DType::Bool : graph::promote(a->type, b->type);
  n->bop = op;
  n->a = std::move(a);
  n->b = std::move(b);
  return n;
}

ExpNodePtr unaryNode(UnOp op, ExpNodePtr a) {
  auto n = std::make_shared<ExpNode>();
  n->kind = ExpNode::Kind::Unary;
  n->type = op == UnOp::Not ? DType::Bool : a->type;
  n->uop = op;
  n->a = std::move(a);
  return n;
}

/// Collects the distinct tensors referenced by an expression (depth-first,
/// stable order).
void collectRefs(const ExpNodePtr& node, std::vector<graph::TensorId>& out) {
  if (!node) return;
  if (node->kind == ExpNode::Kind::Ref) {
    for (graph::TensorId id : out) {
      if (id == node->tensor) return;
    }
    out.push_back(node->tensor);
    return;
  }
  collectRefs(node->a, out);
  collectRefs(node->b, out);
  collectRefs(node->c, out);
}

bool tensorIsScalarShaped(const graph::TensorInfo& info) {
  for (std::size_t s : info.mapping.sizePerTile) {
    if (s != 1) return false;
  }
  return true;
}

}  // namespace
}  // namespace detail

using detail::ExpNode;
using detail::ExpNodePtr;

// ---------------------------------------------------------------------------
// Tensor
// ---------------------------------------------------------------------------

namespace {

graph::TensorId makeTensor(DType type, graph::TileMapping mapping,
                           std::string name, bool replicated) {
  Context& ctx = Context::current();
  graph::TensorInfo info;
  info.name = name.empty() ? ctx.freshName("t") : std::move(name);
  info.dtype = type;
  info.mapping = std::move(mapping);
  info.replicated = replicated;
  return ctx.graph().addTensor(std::move(info));
}

}  // namespace

Tensor::Tensor(DType type, std::size_t size, std::string name) {
  id_ = makeTensor(
      type,
      graph::TileMapping::linear(size, Context::current().target().totalTiles()),
      std::move(name), false);
}

Tensor::Tensor(DType type, graph::TileMapping mapping, std::string name) {
  id_ = makeTensor(type, std::move(mapping), std::move(name), false);
}

Tensor Tensor::scalar(DType type, std::string name) {
  Tensor t;
  t.id_ = makeTensor(
      type,
      graph::TileMapping::replicated(Context::current().target().totalTiles()),
      std::move(name), true);
  return t;
}

Tensor::Tensor(const Expression& e) { id_ = e.materialize().id(); }

Tensor::Tensor(const Tensor& other) {
  const auto& info = other.info();
  id_ = makeTensor(info.dtype, info.mapping, "", info.replicated);
  Expression(other).materializeInto(*this);
}

Tensor& Tensor::operator=(const Expression& e) {
  e.materializeInto(*this);
  return *this;
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other || id_ == other.id_) return *this;
  Expression(other).materializeInto(*this);
  return *this;
}

Expression Tensor::reduce(ReduceKind kind) const {
  return Expression(*this).reduce(kind);
}

Expression Tensor::cast(DType type) const {
  return Expression(*this).cast(type);
}

std::size_t Tensor::size() const { return info().totalElements(); }

DType Tensor::type() const { return info().dtype; }

const graph::TensorInfo& Tensor::info() const {
  return Context::current().graph().tensor(id_);
}

bool Tensor::isScalarShaped() const {
  return detail::tensorIsScalarShaped(info());
}

Tensor Tensor::wrap(graph::TensorId id) {
  Tensor t;
  t.id_ = id;
  return t;
}

// ---------------------------------------------------------------------------
// Expression construction
// ---------------------------------------------------------------------------

Expression::Expression(const Tensor& t) { node_ = detail::refNode(t.id()); }
Expression::Expression(float v) { node_ = detail::constNode(Scalar(v)); }
Expression::Expression(double v)
    : Expression(static_cast<float>(v)) {}
Expression::Expression(int v) {
  node_ = detail::constNode(Scalar(std::int32_t(v)));
}

Expression Expression::constant(Scalar s) {
  return fromNode(detail::constNode(s));
}

Expression Expression::fromNode(detail::ExpNodePtr node) {
  Expression e;
  e.node_ = std::move(node);
  return e;
}

Expression Expression::cast(DType type) const {
  auto n = std::make_shared<ExpNode>();
  n->kind = ExpNode::Kind::Cast;
  n->type = type;
  n->a = node_;
  return fromNode(n);
}

DType Expression::type() const { return node_->type; }

#define GRAPHENE_DEFINE_EXPR_BINOP(sym, op)                                  \
  Expression operator sym(const Expression& a, const Expression& b) {        \
    return Expression::fromNode(                                             \
        detail::binaryNode(BinOp::op, a.node(), b.node()));                  \
  }

GRAPHENE_DEFINE_EXPR_BINOP(+, Add)
GRAPHENE_DEFINE_EXPR_BINOP(-, Sub)
GRAPHENE_DEFINE_EXPR_BINOP(*, Mul)
GRAPHENE_DEFINE_EXPR_BINOP(/, Div)
GRAPHENE_DEFINE_EXPR_BINOP(<, Lt)
GRAPHENE_DEFINE_EXPR_BINOP(<=, Le)
GRAPHENE_DEFINE_EXPR_BINOP(>, Gt)
GRAPHENE_DEFINE_EXPR_BINOP(>=, Ge)
GRAPHENE_DEFINE_EXPR_BINOP(==, Eq)
GRAPHENE_DEFINE_EXPR_BINOP(!=, Ne)
GRAPHENE_DEFINE_EXPR_BINOP(&&, And)
GRAPHENE_DEFINE_EXPR_BINOP(||, Or)
GRAPHENE_DEFINE_EXPR_BINOP(%, Mod)
#undef GRAPHENE_DEFINE_EXPR_BINOP

Expression operator-(const Expression& a) {
  return Expression::fromNode(detail::unaryNode(UnOp::Neg, a.node()));
}
Expression operator!(const Expression& a) {
  return Expression::fromNode(detail::unaryNode(UnOp::Not, a.node()));
}
Expression Abs(const Expression& a) {
  return Expression::fromNode(detail::unaryNode(UnOp::Abs, a.node()));
}
Expression Sqrt(const Expression& a) {
  return Expression::fromNode(detail::unaryNode(UnOp::Sqrt, a.node()));
}
Expression Min(const Expression& a, const Expression& b) {
  return Expression::fromNode(detail::binaryNode(BinOp::Min, a.node(), b.node()));
}
Expression Max(const Expression& a, const Expression& b) {
  return Expression::fromNode(detail::binaryNode(BinOp::Max, a.node(), b.node()));
}
Expression Select(const Expression& cond, const Expression& ifTrue,
                  const Expression& ifFalse) {
  auto n = std::make_shared<ExpNode>();
  n->kind = ExpNode::Kind::Select;
  n->type = graph::promote(ifTrue.type(), ifFalse.type());
  n->a = cond.node();
  n->b = ifTrue.node();
  n->c = ifFalse.node();
  return Expression::fromNode(n);
}

Expression Dot(const Expression& a, const Expression& b) {
  return (a * b).reduce();
}

Expression Norm2(const Expression& a) { return Sqrt((a * a).reduce()); }

Expression NormInf(const Expression& a) {
  return Abs(a).reduce(ReduceKind::Max);
}

// ---------------------------------------------------------------------------
// Materialisation
// ---------------------------------------------------------------------------

namespace {

bool exprIsScalarShaped(const ExpNodePtr& node) {
  std::vector<graph::TensorId> refs;
  detail::collectRefs(node, refs);
  graph::Graph& g = Context::current().graph();
  for (graph::TensorId id : refs) {
    if (!detail::tensorIsScalarShaped(g.tensor(id))) return false;
  }
  return true;
}

}  // namespace

void Expression::materializeInto(Tensor& dst,
                                 const std::string& category) const {
  Context& ctx = Context::current();
  graph::Graph& g = ctx.graph();
  const graph::TensorInfo& dstInfo = g.tensor(dst.id());

  std::vector<graph::TensorId> refs;
  detail::collectRefs(node_, refs);

  // Broadcast check: every referenced tensor matches dst's mapping exactly
  // or is scalar-shaped (one element per tile — NumPy rule for size 1).
  std::vector<bool> scalarArg(refs.size(), false);
  for (std::size_t k = 0; k < refs.size(); ++k) {
    const graph::TensorInfo& info = g.tensor(refs[k]);
    if (refs[k] == dst.id()) {
      scalarArg[k] = detail::tensorIsScalarShaped(info);
      continue;  // in-place update, same mapping by construction
    }
    if (detail::tensorIsScalarShaped(info)) {
      scalarArg[k] = true;
    } else {
      GRAPHENE_CHECK(info.mapping == dstInfo.mapping,
                     "elementwise operands must share the destination's tile "
                     "mapping or be scalars ('",
                     info.name, "' vs '", dstInfo.name, "')");
    }
  }

  // Trace the fused elementwise codelet (§III-C: the whole expression tree
  // becomes one codelet).
  CodeletBuilder builder;
  builder.setNumArgs(1 + refs.size());
  std::vector<Value> handles;
  handles.push_back(Value::argument(0, dstInfo.dtype));
  for (std::size_t k = 0; k < refs.size(); ++k) {
    handles.push_back(
        Value::argument(static_cast<int>(k + 1), g.tensor(refs[k]).dtype));
  }

  // Hoist scalar operands out of the loop.
  std::vector<Value> hoisted;
  hoisted.reserve(refs.size());
  for (std::size_t k = 0; k < refs.size(); ++k) {
    if (scalarArg[k]) {
      hoisted.push_back(Value(handles[k + 1][Value(0)]));
    } else {
      hoisted.push_back(Value(0));  // unused slot
    }
  }

  std::function<Value(const ExpNodePtr&, const Value&)> lower =
      [&](const ExpNodePtr& n, const Value& i) -> Value {
    switch (n->kind) {
      case ExpNode::Kind::Ref: {
        std::size_t k = 0;
        while (k < refs.size() && refs[k] != n->tensor) ++k;
        return scalarArg[k] ? hoisted[k] : Value(handles[k + 1][i]);
      }
      case ExpNode::Kind::Const:
        return Value(n->constant);
      case ExpNode::Kind::Binary: {
        Value a = lower(n->a, i);
        Value b = lower(n->b, i);
        switch (n->bop) {
          case BinOp::Add: return a + b;
          case BinOp::Sub: return a - b;
          case BinOp::Mul: return a * b;
          case BinOp::Div: return a / b;
          case BinOp::Mod: return a % b;
          case BinOp::Lt: return a < b;
          case BinOp::Le: return a <= b;
          case BinOp::Gt: return a > b;
          case BinOp::Ge: return a >= b;
          case BinOp::Eq: return a == b;
          case BinOp::Ne: return a != b;
          case BinOp::And: return a && b;
          case BinOp::Or: return a || b;
          case BinOp::Min: return Min(a, b);
          case BinOp::Max: return Max(a, b);
        }
        GRAPHENE_UNREACHABLE("bad binop");
      }
      case ExpNode::Kind::Unary: {
        Value a = lower(n->a, i);
        switch (n->uop) {
          case UnOp::Neg: return -a;
          case UnOp::Abs: return Abs(a);
          case UnOp::Sqrt: return Sqrt(a);
          case UnOp::Not: return !a;
        }
        GRAPHENE_UNREACHABLE("bad unop");
      }
      case ExpNode::Kind::Cast:
        return lower(n->a, i).cast(n->type);
      case ExpNode::Kind::Select:
        return Select(lower(n->a, i), lower(n->b, i), lower(n->c, i));
    }
    GRAPHENE_UNREACHABLE("bad node kind");
  };

  {
    Value dstHandle = handles[0];
    For(0, dstHandle.size(), 1, [&](Value i) {
      dstHandle[i] = lower(node_, i);
    });
  }
  CodeletIR ir = builder.finish();

  // Register codelet + one vertex per tile with data.
  const ipu::CostModel cost = g.costModel();
  const std::size_t workers = g.target().workersPerTile;
  graph::CodeletId codeletId = g.addCodelet(
      makeCodelet(ctx.freshName("ew"), std::move(ir), cost, workers));

  graph::ComputeSetId cs = g.addComputeSet(category);
  for (std::size_t tile = 0; tile < g.target().totalTiles(); ++tile) {
    if (dstInfo.mapping.sizePerTile[tile] == 0) continue;
    graph::Vertex v;
    v.codelet = codeletId;
    v.tile = tile;
    v.args.push_back(graph::TensorSlice{
        dst.id(), tile, 0, dstInfo.mapping.sizePerTile[tile]});
    for (graph::TensorId rid : refs) {
      const auto& rinfo = g.tensor(rid);
      v.args.push_back(graph::TensorSlice{
          rid, tile, 0, rinfo.mapping.sizePerTile[tile]});
    }
    g.addVertex(cs, std::move(v));
  }
  ctx.emit(graph::Program::execute(cs));
}

Tensor Expression::materialize(const std::string& category) const {
  Context& ctx = Context::current();
  graph::Graph& g = ctx.graph();
  std::vector<graph::TensorId> refs;
  detail::collectRefs(node_, refs);

  // Result shape: the common non-scalar mapping, else a replicated scalar.
  const graph::TileMapping* mapping = nullptr;
  for (graph::TensorId id : refs) {
    const auto& info = g.tensor(id);
    if (!detail::tensorIsScalarShaped(info)) {
      mapping = &info.mapping;
      break;
    }
  }
  Tensor dst = mapping ? Tensor(node_->type, *mapping)
                       : Tensor::scalar(node_->type);
  materializeInto(dst, category);
  return dst;
}

bool Expression::isScalarShaped() const { return exprIsScalarShaped(node_); }

namespace {

/// The accumulator combine step for a reduction kind. (AbsMax combines with
/// Max(acc, Abs(v)); partials are already non-negative, so re-applying Abs
/// at later levels is a harmless identity.)
Value combineReduce(ReduceKind kind, const Value& acc, const Value& v) {
  switch (kind) {
    case ReduceKind::Sum: return acc + v;
    case ReduceKind::Max: return Max(acc, v);
    case ReduceKind::Min: return Min(acc, v);
    case ReduceKind::AbsMax: return Max(acc, Abs(v));
  }
  GRAPHENE_UNREACHABLE("bad reduce kind");
}

/// Lowers an expression tree to codelet IR at loop index `i`, resolving Ref
/// nodes against `refs` (handle k+1 of `handles`; scalar-shaped operands
/// were hoisted).
Value lowerReduceExpr(const ExpNodePtr& n, const Value& i,
                      const std::vector<graph::TensorId>& refs,
                      const std::vector<Value>& handles,
                      const std::vector<Value>& hoisted,
                      const std::vector<bool>& scalarArg) {
  auto lower = [&](const ExpNodePtr& node, const Value& idx) {
    return lowerReduceExpr(node, idx, refs, handles, hoisted, scalarArg);
  };
  switch (n->kind) {
    case ExpNode::Kind::Ref: {
      std::size_t k = 0;
      while (k < refs.size() && refs[k] != n->tensor) ++k;
      return scalarArg[k] ? hoisted[k] : Value(handles[k + 1][i]);
    }
    case ExpNode::Kind::Const: return Value(n->constant);
    case ExpNode::Kind::Binary: {
      Value a = lower(n->a, i), b = lower(n->b, i);
      switch (n->bop) {
        case BinOp::Add: return a + b;
        case BinOp::Sub: return a - b;
        case BinOp::Mul: return a * b;
        case BinOp::Div: return a / b;
        case BinOp::Mod: return a % b;
        case BinOp::Lt: return a < b;
        case BinOp::Le: return a <= b;
        case BinOp::Gt: return a > b;
        case BinOp::Ge: return a >= b;
        case BinOp::Eq: return a == b;
        case BinOp::Ne: return a != b;
        case BinOp::And: return a && b;
        case BinOp::Or: return a || b;
        case BinOp::Min: return Min(a, b);
        case BinOp::Max: return Max(a, b);
      }
      GRAPHENE_UNREACHABLE("bad binop");
    }
    case ExpNode::Kind::Unary: {
      Value a = lower(n->a, i);
      switch (n->uop) {
        case UnOp::Neg: return -a;
        case UnOp::Abs: return Abs(a);
        case UnOp::Sqrt: return Sqrt(a);
        case UnOp::Not: return !a;
      }
      GRAPHENE_UNREACHABLE("bad unop");
    }
    case ExpNode::Kind::Cast: return lower(n->a, i).cast(n->type);
    case ExpNode::Kind::Select:
      return Select(lower(n->a, i), lower(n->b, i), lower(n->c, i));
  }
  GRAPHENE_UNREACHABLE("bad node kind");
}

/// Emits a combine codelet's body reducing `groups` strided k-vectors in
/// `data`: acc_j = combine over g of data[g*k + j], with `groups` the
/// constant trip count, then store(j, acc_j).
void emitStridedCombine(
    ReduceKind kind, std::size_t k, const Value& data, std::size_t groups,
    const std::function<void(std::size_t, const Value&)>& store) {
  for (std::size_t j = 0; j < k; ++j) {
    Value acc(data[Value(static_cast<int>(j))]);
    For(1, Value(static_cast<int>(groups)), 1, [&](Value i) {
      Value idx = k == 1 ? Value(i)
                         : Value(i * Value(static_cast<int>(k)) +
                                 Value(static_cast<int>(j)));
      acc = combineReduce(kind, acc, Value(data[idx]));
    });
    store(j, acc);
  }
}

/// Shared implementation of Expression::reduce (k == 1) and ReduceMany:
/// one fused per-tile partial compute set for all k expressions, one
/// gather, one final combine, one broadcast. On a pod with two-level
/// reductions the gather runs in two hops — tiles to a per-IPU leader over
/// the on-chip fabric, then one k-vector per IPU over the links — so link
/// traffic per reduction is O(numIpus), not O(tiles). The optional
/// `overlap` callback is emitted between the (first) gather and the final
/// combine: work placed there hides the reduction's communication latency.
std::vector<Tensor> reduceManyImpl(const std::vector<Expression>& exprs,
                                   ReduceKind kind,
                                   const std::function<void()>& overlap) {
  Context& ctx = Context::current();
  graph::Graph& g = ctx.graph();
  const std::size_t k = exprs.size();
  GRAPHENE_CHECK(k > 0, "ReduceMany needs at least one expression");
  const std::size_t nTiles = g.target().totalTiles();
  const DType accType = exprs[0].node()->type;
  for (const Expression& e : exprs) {
    GRAPHENE_CHECK(e.node()->type == accType,
                   "joint reductions must share one dtype");
  }

  // Union of referenced tensors across all expressions (first-seen order;
  // collectRefs deduplicates).
  std::vector<graph::TensorId> refs;
  for (const Expression& e : exprs) detail::collectRefs(e.node(), refs);

  std::vector<bool> scalarArg(refs.size());
  for (std::size_t a = 0; a < refs.size(); ++a) {
    scalarArg[a] = detail::tensorIsScalarShaped(g.tensor(refs[a]));
  }
  // Within each expression all non-scalar refs must share one mapping; find
  // each expression's loop handle for its per-tile bounds.
  std::vector<std::size_t> loopArg(k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<graph::TensorId> own;
    detail::collectRefs(exprs[j].node(), own);
    int arg = -1;
    const graph::TileMapping* mapping = nullptr;
    for (graph::TensorId id : own) {
      const auto& info = g.tensor(id);
      if (detail::tensorIsScalarShaped(info)) continue;
      if (mapping == nullptr) {
        mapping = &info.mapping;
        for (std::size_t a = 0; a < refs.size(); ++a) {
          if (refs[a] == id) arg = static_cast<int>(a);
        }
      } else {
        GRAPHENE_CHECK(info.mapping == *mapping,
                       "reduce operands must share one tile mapping");
      }
    }
    GRAPHENE_CHECK(arg >= 0, "reduce needs a non-scalar operand");
    loopArg[j] = static_cast<std::size_t>(arg);
  }

  // Step 1: fused per-tile partial reduction — k accumulators, one pass.
  Tensor partial(accType,
                 k == 1 ? graph::TileMapping::replicated(nTiles)
                        : graph::TileMapping::ragged(
                              std::vector<std::size_t>(nTiles, k)),
                 ctx.freshName("partial"));
  {
    CodeletBuilder builder;
    builder.setNumArgs(1 + refs.size());
    std::vector<Value> handles;
    handles.push_back(Value::argument(0, accType));
    for (std::size_t a = 0; a < refs.size(); ++a) {
      handles.push_back(
          Value::argument(static_cast<int>(a + 1), g.tensor(refs[a]).dtype));
    }
    std::vector<Value> hoisted;
    for (std::size_t a = 0; a < refs.size(); ++a) {
      hoisted.push_back(scalarArg[a] ? Value(handles[a + 1][Value(0)])
                                     : Value(0));
    }
    // Initialise each accumulator from element 0 (identity-free: works for
    // Max/Min too; an empty tile region keeps the zero initialiser).
    for (std::size_t j = 0; j < k; ++j) {
      const ExpNodePtr& node = exprs[j].node();
      Value acc(Scalar::zero(accType));
      Value loopHandle = handles[loopArg[j] + 1];
      If(loopHandle.size() > 0, [&] {
        Value first = lowerReduceExpr(node, Value(0), refs, handles,
                                      hoisted, scalarArg);
        acc = kind == ReduceKind::AbsMax ? Abs(first) : first;
      });
      For(1, loopHandle.size(), 1, [&](Value i) {
        acc = combineReduce(kind, acc,
                            lowerReduceExpr(node, i, refs, handles,
                                            hoisted, scalarArg));
      });
      Value out = handles[0];
      out[Value(static_cast<int>(j))] = acc;
    }

    CodeletIR ir = builder.finish();
    const ipu::CostModel cost = g.costModel();
    const std::size_t workers = g.target().workersPerTile;
    graph::CodeletId codeletId = g.addCodelet(makeCodelet(
        ctx.freshName("reduce_partial"), std::move(ir), cost, workers));
    graph::ComputeSetId cs = g.addComputeSet("reduce");
    for (std::size_t tile = 0; tile < nTiles; ++tile) {
      graph::Vertex v;
      v.codelet = codeletId;
      v.tile = tile;
      v.args.push_back(graph::TensorSlice{partial.id(), tile, 0, k});
      for (graph::TensorId rid : refs) {
        const auto& rinfo = g.tensor(rid);
        v.args.push_back(graph::TensorSlice{
            rid, tile, 0, rinfo.mapping.sizePerTile[tile]});
      }
      g.addVertex(cs, std::move(v));
    }
    ctx.emit(graph::Program::execute(cs));
  }

  const std::size_t ctrl = g.controlTile();
  const ipu::IpuTarget& target = g.target();
  const bool twoLevel = g.twoLevelReduce() && target.numIpus > 1;

  // Created after the gather below so tensor naming and ids match the
  // historical single-reduction emission.
  std::vector<Tensor> outs;
  auto makeOuts = [&] {
    for (std::size_t j = 0; j < k; ++j) {
      outs.emplace_back(Tensor::scalar(accType, ctx.freshName("reduced")));
    }
  };
  // The final combine stores result j into its own scalar argument, 1 + j.
  auto storeOut = [&](std::size_t j, const Value& acc) {
    Value out = Value::argument(1 + static_cast<int>(j), accType);
    out[Value(0)] = acc;
  };

  if (!twoLevel) {
    // Step 2 (flat): gather every tile's partial k-vector on the control
    // tile (tile 0 unless a resilience layer moved control off a
    // blacklisted tile).
    Tensor gathered(accType,
                    graph::TileMapping::onTile(nTiles * k, ctrl, nTiles),
                    ctx.freshName("gather"));
    {
      std::vector<graph::CopySegment> segs;
      segs.reserve(nTiles);
      for (std::size_t tile = 0; tile < nTiles; ++tile) {
        graph::CopySegment s;
        s.src = partial.id();
        s.srcTile = tile;
        s.srcBegin = 0;
        s.dst = gathered.id();
        s.dsts.push_back({ctrl, tile * k});
        s.count = k;
        segs.push_back(std::move(s));
      }
      ctx.emit(graph::Program::copy(std::move(segs)));
    }
    if (overlap) overlap();
    makeOuts();

    // Step 3 (flat): final combine on the control tile.
    {
      CodeletBuilder builder;
      builder.setNumArgs(1 + k);
      Value gHandle = Value::argument(0, accType);
      if (k == 1) {
        // The loop's bound is the gathered slice's size, which the walk
        // prices as one IntArith per run; the strided combine's constant
        // bound costs nothing. Folding this case into it would move every
        // flat reduction's simulated cycles.
        Value oHandle = Value::argument(1, accType);
        Value acc(gHandle[Value(0)]);
        For(1, gHandle.size(), 1,
            [&](Value i) { acc = combineReduce(kind, acc, Value(gHandle[i])); });
        oHandle[Value(0)] = acc;
      } else {
        emitStridedCombine(kind, k, gHandle, nTiles, storeOut);
      }
      CodeletIR ir = builder.finish();
      const ipu::CostModel cost = g.costModel();
      const std::size_t workers = g.target().workersPerTile;
      graph::CodeletId codeletId = g.addCodelet(makeCodelet(
          ctx.freshName("reduce_final"), std::move(ir), cost, workers));
      graph::ComputeSetId cs = g.addComputeSet("reduce");
      graph::Vertex v;
      v.codelet = codeletId;
      v.tile = ctrl;
      v.args.push_back(graph::TensorSlice{gathered.id(), ctrl, 0, nTiles * k});
      for (std::size_t j = 0; j < k; ++j) {
        v.args.push_back(graph::TensorSlice{outs[j].id(), ctrl, 0, 1});
      }
      g.addVertex(cs, std::move(v));
      ctx.emit(graph::Program::execute(cs));
    }
  } else {
    // Two-level: tiles → per-IPU leader over the on-chip fabric, leaders →
    // control tile over the links (one k-vector per IPU), then combine.
    const std::size_t P = target.tilesPerIpu;
    const std::size_t I = target.numIpus;
    std::vector<std::size_t> leader(I, SIZE_MAX);
    for (std::size_t ipu = 0; ipu < I; ++ipu) {
      for (std::size_t t = ipu * P; t < (ipu + 1) * P; ++t) {
        if (!g.tileExcluded(t)) {
          leader[ipu] = t;
          break;
        }
      }
    }
    // Keep control's own IPU anchored on the control tile so its hop in the
    // link-gather step below is local.
    if (leader[ctrl / P] != SIZE_MAX && !g.tileExcluded(ctrl)) {
      leader[ctrl / P] = ctrl;
    }

    // Step 2a: intra-IPU gather (leader collects its chip's partials).
    std::vector<std::size_t> lgSizes(nTiles, 0);
    for (std::size_t ipu = 0; ipu < I; ++ipu) {
      if (leader[ipu] != SIZE_MAX) lgSizes[leader[ipu]] = P * k;
    }
    Tensor lgather(accType, graph::TileMapping::ragged(lgSizes),
                   ctx.freshName("gather"));
    {
      std::vector<graph::CopySegment> segs;
      for (std::size_t ipu = 0; ipu < I; ++ipu) {
        if (leader[ipu] == SIZE_MAX) continue;  // whole chip dead
        for (std::size_t t = ipu * P; t < (ipu + 1) * P; ++t) {
          graph::CopySegment s;
          s.src = partial.id();
          s.srcTile = t;
          s.srcBegin = 0;
          s.dst = lgather.id();
          s.dsts.push_back({leader[ipu], (t - ipu * P) * k});
          s.count = k;
          segs.push_back(std::move(s));
        }
      }
      ctx.emit(graph::Program::copy(std::move(segs)));
    }
    if (overlap) overlap();

    // Step 2b: leader combine — one k-vector per surviving IPU. Dead tiles
    // contributed their zero-initialised partials, same as the flat gather.
    std::vector<std::size_t> lpSizes(nTiles, 0);
    for (std::size_t ipu = 0; ipu < I; ++ipu) {
      if (leader[ipu] != SIZE_MAX) lpSizes[leader[ipu]] = k;
    }
    Tensor lpartial(accType, graph::TileMapping::ragged(lpSizes),
                    ctx.freshName("ipu_partial"));
    {
      CodeletBuilder builder;
      builder.setNumArgs(2);
      Value gHandle = Value::argument(0, accType);
      Value pHandle = Value::argument(1, accType);
      // The leader's k outputs live in one slice (unlike the final combine's
      // k separate scalars), at per-j offsets.
      emitStridedCombine(kind, k, gHandle, P,
                         [&](std::size_t j, const Value& acc) {
                           pHandle[Value(static_cast<int>(j))] = acc;
                         });
      CodeletIR ir = builder.finish();
      const ipu::CostModel cost = g.costModel();
      const std::size_t workers = g.target().workersPerTile;
      graph::CodeletId codeletId = g.addCodelet(makeCodelet(
          ctx.freshName("reduce_leader"), std::move(ir), cost, workers));
      graph::ComputeSetId cs = g.addComputeSet("reduce");
      for (std::size_t ipu = 0; ipu < I; ++ipu) {
        if (leader[ipu] == SIZE_MAX) continue;
        graph::Vertex v;
        v.codelet = codeletId;
        v.tile = leader[ipu];
        v.args.push_back(
            graph::TensorSlice{lgather.id(), leader[ipu], 0, P * k});
        v.args.push_back(
            graph::TensorSlice{lpartial.id(), leader[ipu], 0, k});
        g.addVertex(cs, std::move(v));
      }
      ctx.emit(graph::Program::execute(cs));
    }

    // Step 2c: link gather — one k-vector per IPU crosses to control.
    Tensor gathered(accType, graph::TileMapping::onTile(I * k, ctrl, nTiles),
                    ctx.freshName("gather"));
    {
      std::vector<graph::CopySegment> segs;
      for (std::size_t ipu = 0; ipu < I; ++ipu) {
        if (leader[ipu] == SIZE_MAX) continue;  // zeros remain for dead chips
        graph::CopySegment s;
        s.src = lpartial.id();
        s.srcTile = leader[ipu];
        s.srcBegin = 0;
        s.dst = gathered.id();
        s.dsts.push_back({ctrl, ipu * k});
        s.count = k;
        segs.push_back(std::move(s));
      }
      ctx.emit(graph::Program::copy(std::move(segs)));
    }

    // Step 3 (two-level): combine the per-IPU scalars on the control tile.
    makeOuts();
    {
      CodeletBuilder builder;
      builder.setNumArgs(1 + k);
      Value gHandle = Value::argument(0, accType);
      emitStridedCombine(kind, k, gHandle, I, storeOut);
      CodeletIR ir = builder.finish();
      const ipu::CostModel cost = g.costModel();
      const std::size_t workers = g.target().workersPerTile;
      graph::CodeletId codeletId = g.addCodelet(makeCodelet(
          ctx.freshName("reduce_final"), std::move(ir), cost, workers));
      graph::ComputeSetId cs = g.addComputeSet("reduce");
      graph::Vertex v;
      v.codelet = codeletId;
      v.tile = ctrl;
      v.args.push_back(graph::TensorSlice{gathered.id(), ctrl, 0, I * k});
      for (std::size_t j = 0; j < k; ++j) {
        v.args.push_back(graph::TensorSlice{outs[j].id(), ctrl, 0, 1});
      }
      g.addVertex(cs, std::move(v));
      ctx.emit(graph::Program::execute(cs));
    }
  }

  // Step 4: broadcast every result to every tile's replica (one exchange
  // superstep; over links the payload crosses once per destination IPU).
  if (nTiles > 1) {
    std::vector<graph::CopySegment> segs;
    for (std::size_t j = 0; j < k; ++j) {
      graph::CopySegment s;
      s.src = outs[j].id();
      s.srcTile = ctrl;
      s.srcBegin = 0;
      s.dst = outs[j].id();
      s.count = 1;
      for (std::size_t tile = 0; tile < nTiles; ++tile) {
        if (tile != ctrl) s.dsts.push_back({tile, 0});
      }
      segs.push_back(std::move(s));
    }
    ctx.emit(graph::Program::copy(std::move(segs)));
  }

  return outs;
}

}  // namespace

Expression Expression::reduce(ReduceKind kind) const {
  // Reducing a scalar-shaped expression is the expression itself (AbsMax
  // still applies its elementwise transform).
  if (exprIsScalarShaped(node_)) {
    Tensor out = kind == ReduceKind::AbsMax
                     ? Abs(*this).materialize("reduce")
                     : materialize("reduce");
    return Expression(out);
  }
  return Expression(reduceManyImpl({*this}, kind, nullptr)[0]);
}

std::vector<Tensor> ReduceMany(const std::vector<Expression>& exprs,
                               ReduceKind kind,
                               const std::function<void()>& overlap) {
  for (const Expression& e : exprs) {
    GRAPHENE_CHECK(!e.isScalarShaped(),
                   "ReduceMany expressions need a non-scalar operand");
  }
  return reduceManyImpl(exprs, kind, overlap);
}

// ---------------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------------

namespace {

/// Materialises `cond` into a fresh replicated Bool scalar inside a new
/// program sequence; returns (sequence, tensorId).
std::pair<graph::ProgramPtr, graph::TensorId> buildCondition(
    const Expression& cond) {
  Context& ctx = Context::current();
  GRAPHENE_CHECK(cond.isScalarShaped(),
                 "control-flow conditions must be scalar expressions");
  ctx.pushSequence();
  Tensor condT = Tensor::scalar(DType::Bool, ctx.freshName("cond"));
  Expression c = cond;
  c.materializeInto(condT, "condition");
  graph::ProgramPtr prog = ctx.popSequence();
  return {prog, condT.id()};
}

}  // namespace

void If(const Expression& cond, const std::function<void()>& then,
        const std::function<void()>& otherwise) {
  Context& ctx = Context::current();
  auto [condProg, condId] = buildCondition(cond);
  ctx.pushSequence();
  then();
  graph::ProgramPtr thenProg = ctx.popSequence();
  graph::ProgramPtr elseProg;
  if (otherwise) {
    ctx.pushSequence();
    otherwise();
    elseProg = ctx.popSequence();
  }
  ctx.emit(graph::Program::branch(condProg, condId, thenProg, elseProg));
}

void While(const Expression& cond, const std::function<void()>& body) {
  Context& ctx = Context::current();
  auto [condProg, condId] = buildCondition(cond);
  ctx.pushSequence();
  body();
  graph::ProgramPtr bodyProg = ctx.popSequence();
  ctx.emit(graph::Program::repeatWhile(condProg, condId, bodyProg));
}

void Repeat(std::size_t times, const std::function<void()>& body) {
  Context& ctx = Context::current();
  ctx.pushSequence();
  body();
  graph::ProgramPtr bodyProg = ctx.popSequence();
  ctx.emit(graph::Program::repeat(times, bodyProg));
}

void Print(const std::string& label, const Tensor& t) {
  graph::TensorId id = t.id();
  Context::current().emit(
      graph::Program::hostCall([label, id](graph::Engine& engine) {
        const auto& info = engine.graph().tensor(id);
        std::size_t n = std::min<std::size_t>(info.totalElements(),
                                              info.replicated ? 1 : 8);
        std::cout << label << ":";
        for (std::size_t i = 0; i < n; ++i) {
          std::cout << " " << engine.loadElement(id, i).toString();
        }
        if (!info.replicated && info.totalElements() > n) std::cout << " ...";
        std::cout << "\n";
      }));
}

void HostCall(std::function<void(graph::Engine&)> fn) {
  Context::current().emit(graph::Program::hostCall(std::move(fn)));
}

// ---------------------------------------------------------------------------
// Execute — CodeDSL entry point
// ---------------------------------------------------------------------------

graph::ComputeSetId ExecuteOnTiles(
    const std::vector<TensorRef>& tensors,
    const std::function<void(std::vector<Value>&)>& fn,
    const std::string& category, const std::vector<std::size_t>& tiles) {
  Context& ctx = Context::current();
  graph::Graph& g = ctx.graph();

  CodeletBuilder builder;
  builder.setNumArgs(tensors.size());
  std::vector<Value> handles;
  handles.reserve(tensors.size());
  for (std::size_t k = 0; k < tensors.size(); ++k) {
    handles.push_back(Value::argument(static_cast<int>(k),
                                      g.tensor(tensors[k].id()).dtype));
  }
  fn(handles);
  CodeletIR ir = builder.finish();

  const ipu::CostModel cost = g.costModel();
  const std::size_t workers = g.target().workersPerTile;
  graph::CodeletId codeletId = g.addCodelet(
      makeCodelet(ctx.freshName("codelet"), std::move(ir), cost, workers));

  std::vector<std::size_t> vertexTiles = tiles;
  if (vertexTiles.empty()) {
    for (std::size_t tile = 0; tile < g.target().totalTiles(); ++tile) {
      for (const TensorRef& t : tensors) {
        if (g.tensor(t.id()).mapping.sizePerTile[tile] > 0) {
          vertexTiles.push_back(tile);
          break;
        }
      }
    }
  }

  graph::ComputeSetId cs = g.addComputeSet(category);
  for (std::size_t tile : vertexTiles) {
    graph::Vertex v;
    v.codelet = codeletId;
    v.tile = tile;
    for (const TensorRef& t : tensors) {
      const auto& info = g.tensor(t.id());
      v.args.push_back(graph::TensorSlice{
          t.id(), tile, 0, info.mapping.sizePerTile[tile]});
    }
    g.addVertex(cs, std::move(v));
  }
  ctx.emit(graph::Program::execute(cs));
  return cs;
}

void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(std::vector<Value>&)>& fn,
             const std::string& category) {
  ExecuteOnTiles(tensors, fn, category, {});
}

void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(Value)>& fn,
             const std::string& category) {
  GRAPHENE_CHECK(tensors.size() == 1, "Execute arity mismatch");
  Execute(tensors, [&](std::vector<Value>& args) { fn(args[0]); }, category);
}

void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(Value, Value)>& fn,
             const std::string& category) {
  GRAPHENE_CHECK(tensors.size() == 2, "Execute arity mismatch");
  Execute(tensors,
          [&](std::vector<Value>& args) { fn(args[0], args[1]); }, category);
}

void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(Value, Value, Value)>& fn,
             const std::string& category) {
  GRAPHENE_CHECK(tensors.size() == 3, "Execute arity mismatch");
  Execute(tensors,
          [&](std::vector<Value>& args) { fn(args[0], args[1], args[2]); },
          category);
}

void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(Value, Value, Value, Value)>& fn,
             const std::string& category) {
  GRAPHENE_CHECK(tensors.size() == 4, "Execute arity mismatch");
  Execute(tensors,
          [&](std::vector<Value>& args) {
            fn(args[0], args[1], args[2], args[3]);
          },
          category);
}

}  // namespace graphene::dsl
