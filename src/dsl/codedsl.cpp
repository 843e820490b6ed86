#include "dsl/codedsl.hpp"

#include "support/error.hpp"

namespace graphene::dsl {

namespace {

thread_local CodeletBuilder* g_currentBuilder = nullptr;

ExprPtr makeConst(Scalar s) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::Const;
  e->type = s.type();
  e->constant = s;
  return e;
}

ExprPtr makeVarRead(int var, DType type) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::Var;
  e->type = type;
  e->var = var;
  return e;
}

ExprPtr makeBinary(BinOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::Binary;
  bool isCmp = op == BinOp::Lt || op == BinOp::Le || op == BinOp::Gt ||
               op == BinOp::Ge || op == BinOp::Eq || op == BinOp::Ne ||
               op == BinOp::And || op == BinOp::Or;
  e->type = isCmp ? DType::Bool : graph::promote(a->type, b->type);
  e->bop = op;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

ExprPtr makeUnary(UnOp op, ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::Unary;
  e->type = op == UnOp::Not ? DType::Bool : a->type;
  e->uop = op;
  e->a = std::move(a);
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// CodeletBuilder
// ---------------------------------------------------------------------------

CodeletBuilder::CodeletBuilder() {
  GRAPHENE_CHECK(g_currentBuilder == nullptr,
                 "nested codelet tracing is not supported");
  g_currentBuilder = this;
  bodyStack_.push_back(&ir_.statements);
}

CodeletBuilder::~CodeletBuilder() { g_currentBuilder = nullptr; }

CodeletBuilder& CodeletBuilder::current() {
  GRAPHENE_CHECK(g_currentBuilder != nullptr,
                 "CodeDSL used outside of a codelet trace (Execute)");
  return *g_currentBuilder;
}

bool CodeletBuilder::active() { return g_currentBuilder != nullptr; }

int CodeletBuilder::newVar() { return ir_.numVars++; }

void CodeletBuilder::emit(StmtPtr stmt) {
  GRAPHENE_DCHECK(!bodyStack_.empty(), "no active body");
  bodyStack_.back()->push_back(std::move(stmt));
}

void CodeletBuilder::pushBody(StmtList* body) { bodyStack_.push_back(body); }

void CodeletBuilder::popBody() {
  GRAPHENE_CHECK(bodyStack_.size() > 1, "body stack underflow");
  bodyStack_.pop_back();
}

void CodeletBuilder::markUsesWorkers() { ir_.usesWorkers = true; }

CodeletIR CodeletBuilder::finish() {
  GRAPHENE_CHECK(bodyStack_.size() == 1, "unclosed control structure");
  return std::move(ir_);
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

namespace {

/// Declares a fresh variable initialised with `init` and returns its read
/// expression. Emits into the current builder.
std::pair<int, ExprPtr> declareVar(ExprPtr init) {
  CodeletBuilder& b = CodeletBuilder::current();
  int var = b.newVar();
  auto s = std::make_shared<Stmt>();
  s->kind = Stmt::Kind::Assign;
  s->var = var;
  s->value = init;
  b.emit(s);
  return {var, makeVarRead(var, init->type)};
}

}  // namespace

Value::Value(int v) {
  auto [var, read] = declareVar(makeConst(Scalar(std::int32_t(v))));
  varId_ = var;
  expr_ = read;
}

Value::Value(float v) {
  auto [var, read] = declareVar(makeConst(Scalar(v)));
  varId_ = var;
  expr_ = read;
}

Value::Value(double v) : Value(static_cast<float>(v)) {}

Value::Value(bool v) {
  auto [var, read] = declareVar(makeConst(Scalar(v)));
  varId_ = var;
  expr_ = read;
}

Value::Value(graph::Scalar v) {
  auto [var, read] = declareVar(makeConst(v));
  varId_ = var;
  expr_ = read;
}

Value::Value(const Value& other) {
  // A tensor-argument handle names the argument, not a variable: its copy
  // is the same handle and traces nothing.
  if (other.argIndex_ >= 0) {
    expr_ = other.expr_;
    argIndex_ = other.argIndex_;
    return;
  }
  // Any other copy creates a new variable so later mutation of either side
  // is independent — value semantics, like the generated C code.
  auto [var, read] = declareVar(other.expr());
  varId_ = var;
  expr_ = read;
  argIndex_ = other.argIndex_;
}

Value& Value::operator=(const Value& other) {
  if (this == &other) return *this;
  GRAPHENE_CHECK(varId_ >= 0, "cannot assign to a temporary CodeDSL value");
  CodeletBuilder& b = CodeletBuilder::current();
  auto s = std::make_shared<Stmt>();
  s->kind = Stmt::Kind::Assign;
  s->var = varId_;
  s->value = other.expr();
  b.emit(s);
  expr_ = makeVarRead(varId_, other.type());
  return *this;
}

Value::Value(const ElementRef& ref) {
  auto [var, read] = declareVar(ref.loadExpr());
  varId_ = var;
  expr_ = read;
}

Value Value::temporary(ExprPtr expr) {
  Value v;
  v.expr_ = std::move(expr);
  return v;
}

Value Value::named(ExprPtr expr) {
  auto [var, read] = declareVar(std::move(expr));
  Value v;
  v.varId_ = var;
  v.expr_ = read;
  return v;
}

Value Value::argument(int argIndex, DType type) {
  Value v;
  v.argIndex_ = argIndex;
  // Reading an argument handle as a scalar is not meaningful; expr_ stays
  // null until indexed. type is kept on the handle via a const expr marker.
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::ArgSize;
  e->type = type;
  e->arg = argIndex;
  v.expr_ = e;
  return v;
}

ElementRef Value::operator[](const Value& index) const {
  GRAPHENE_CHECK(argIndex_ >= 0, "operator[] requires a tensor argument");
  return ElementRef(argIndex_, index.expr(), expr_->type);
}

Value Value::size() const {
  GRAPHENE_CHECK(argIndex_ >= 0, "size() requires a tensor argument");
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::ArgSize;
  e->type = DType::Int32;
  e->arg = argIndex_;
  return named(e);
}

Value Value::cast(DType type) const {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::Cast;
  e->type = type;
  e->a = expr();
  return named(e);
}

DType Value::type() const { return expr_->type; }

ExprPtr Value::expr() const {
  GRAPHENE_CHECK(expr_ != nullptr, "reading an uninitialised CodeDSL value");
  return expr_;
}

// ---------------------------------------------------------------------------
// ElementRef
// ---------------------------------------------------------------------------

ExprPtr ElementRef::loadExpr() const {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::ArgLoad;
  e->type = type_;
  e->arg = arg_;
  e->a = index_;
  return e;
}

ElementRef& ElementRef::operator=(const Value& value) {
  CodeletBuilder& b = CodeletBuilder::current();
  auto s = std::make_shared<Stmt>();
  s->kind = Stmt::Kind::StoreArg;
  s->arg = arg_;
  s->type = type_;
  s->index = index_;
  s->value = value.expr();
  b.emit(s);
  return *this;
}

ElementRef& ElementRef::operator=(const ElementRef& other) {
  return *this = Value::temporary(other.loadExpr());
}

ElementRef::operator Value() const { return Value::named(loadExpr()); }

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

#define GRAPHENE_DEFINE_BINOP(sym, op)                         \
  Value operator sym(const Value& a, const Value& b) {         \
    return Value::named(makeBinary(BinOp::op, a.expr(), b.expr())); \
  }

GRAPHENE_DEFINE_BINOP(+, Add)
GRAPHENE_DEFINE_BINOP(-, Sub)
GRAPHENE_DEFINE_BINOP(*, Mul)
GRAPHENE_DEFINE_BINOP(/, Div)
GRAPHENE_DEFINE_BINOP(%, Mod)
GRAPHENE_DEFINE_BINOP(<, Lt)
GRAPHENE_DEFINE_BINOP(<=, Le)
GRAPHENE_DEFINE_BINOP(>, Gt)
GRAPHENE_DEFINE_BINOP(>=, Ge)
GRAPHENE_DEFINE_BINOP(==, Eq)
GRAPHENE_DEFINE_BINOP(!=, Ne)
GRAPHENE_DEFINE_BINOP(&&, And)
GRAPHENE_DEFINE_BINOP(||, Or)
#undef GRAPHENE_DEFINE_BINOP

Value operator-(const Value& a) {
  return Value::named(makeUnary(UnOp::Neg, a.expr()));
}
Value operator!(const Value& a) {
  return Value::named(makeUnary(UnOp::Not, a.expr()));
}
Value Min(const Value& a, const Value& b) {
  return Value::named(makeBinary(BinOp::Min, a.expr(), b.expr()));
}
Value Max(const Value& a, const Value& b) {
  return Value::named(makeBinary(BinOp::Max, a.expr(), b.expr()));
}
Value Abs(const Value& a) {
  return Value::named(makeUnary(UnOp::Abs, a.expr()));
}
Value Sqrt(const Value& a) {
  return Value::named(makeUnary(UnOp::Sqrt, a.expr()));
}

SelectOperand::SelectOperand(int v)
    : expr_(makeConst(Scalar(std::int32_t(v)))) {}
SelectOperand::SelectOperand(float v) : expr_(makeConst(Scalar(v))) {}
SelectOperand::SelectOperand(double v)
    : expr_(makeConst(Scalar(static_cast<float>(v)))) {}

Value Select(const Value& cond, const SelectOperand& ifTrue,
             const SelectOperand& ifFalse) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::Select;
  e->type = graph::promote(ifTrue.expr()->type, ifFalse.expr()->type);
  e->a = cond.expr();
  e->b = ifTrue.expr();
  e->c = ifFalse.expr();
  return Value::named(e);
}

Value WorkerId() {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::WorkerId;
  e->type = DType::Int32;
  return Value::named(e);
}

// ---------------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------------

namespace {

void traceFor(Stmt::Kind kind, const Value& begin, const Value& end,
              const Value& step, const std::function<void(Value)>& body) {
  CodeletBuilder& b = CodeletBuilder::current();
  auto s = std::make_shared<Stmt>();
  s->kind = kind;
  s->var = b.newVar();
  s->begin = begin.expr();
  s->end = end.expr();
  s->step = step.expr();
  b.pushBody(&s->body);
  body(Value::named(makeVarRead(s->var, DType::Int32)));
  b.popBody();
  if (kind == Stmt::Kind::ParFor) b.markUsesWorkers();
  b.emit(s);
}

}  // namespace

void For(const Value& begin, const Value& end, const Value& step,
         const std::function<void(Value)>& body) {
  traceFor(Stmt::Kind::For, begin, end, step, body);
}

void ParallelFor(const Value& begin, const Value& end,
                 const std::function<void(Value)>& body) {
  traceFor(Stmt::Kind::ParFor, begin, end, 1, body);
}

void If(const Value& cond, const std::function<void()>& then,
        const std::function<void()>& otherwise) {
  CodeletBuilder& b = CodeletBuilder::current();
  auto s = std::make_shared<Stmt>();
  s->kind = Stmt::Kind::If;
  s->cond = cond.expr();
  b.pushBody(&s->body);
  then();
  b.popBody();
  if (otherwise) {
    b.pushBody(&s->elseBody);
    otherwise();
    b.popBody();
  }
  b.emit(s);
}

void While(const std::function<Value()>& cond,
           const std::function<void()>& body) {
  CodeletBuilder& b = CodeletBuilder::current();
  // Standard loop lowering: evaluate the condition into a variable before
  // the loop, branch on that variable, and recompute it at the end of every
  // body pass.
  Value c = cond();
  auto s = std::make_shared<Stmt>();
  s->kind = Stmt::Kind::While;
  s->cond = c.expr();
  b.pushBody(&s->body);
  body();
  c = cond();
  b.popBody();
  b.emit(s);
}

}  // namespace graphene::dsl
