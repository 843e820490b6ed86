// CodeDSL — the tile-centric codelet description language (paper §III).
//
// Algorithms written in CodeDSL run from the perspective of one tile and can
// only access the parts of tensors mapped to the executing tile. The language
// is embedded in C++ and dynamically typed: `Value` wraps an expression of
// any element type, and control functions (For / If / While) trace their
// lambda bodies into the codelet IR.
//
// Every named Value is a mutable codelet variable: constructing or assigning
// one emits an Assign statement, so updates inside traced loops behave like
// the generated C code would.
#pragma once

#include <functional>

#include "dsl/codedsl_ir.hpp"

namespace graphene::dsl {

/// Collects the IR of one codelet while its C++ description runs (trace /
/// symbolic execution). Exactly one builder is active per thread at a time.
class CodeletBuilder {
 public:
  CodeletBuilder();
  ~CodeletBuilder();
  CodeletBuilder(const CodeletBuilder&) = delete;
  CodeletBuilder& operator=(const CodeletBuilder&) = delete;

  static CodeletBuilder& current();
  static bool active();

  int newVar();
  void emit(StmtPtr stmt);
  void pushBody(StmtList* body);
  void popBody();
  void markUsesWorkers();
  void setNumArgs(std::size_t n) { ir_.numArgs = n; }

  /// Finalises and returns the codelet IR.
  CodeletIR finish();

 private:
  CodeletIR ir_;
  std::vector<StmtList*> bodyStack_;
};

class Value;

/// Proxy for `x[i]`: readable as a Value, assignable to emit a store.
class ElementRef {
 public:
  ElementRef(int arg, ExprPtr index, DType type)
      : arg_(arg), index_(std::move(index)), type_(type) {}

  /// Store: x[i] = value.
  ElementRef& operator=(const Value& value);
  ElementRef& operator=(const ElementRef& other);

  /// Load: used wherever a Value is expected.
  operator Value() const;  // NOLINT(google-explicit-constructor)

  ExprPtr loadExpr() const;

 private:
  int arg_;
  ExprPtr index_;
  DType type_;
};

/// A dynamically typed CodeDSL value. Plain construction/assignment emits
/// variable statements; tensor-argument handles additionally support
/// indexing and size().
class Value {
 public:
  // Literals.
  Value(int v);                 // NOLINT(google-explicit-constructor)
  Value(float v);               // NOLINT(google-explicit-constructor)
  Value(double v);              // NOLINT: stored as float32 (device native)
  Value(bool v);                // NOLINT(google-explicit-constructor)
  Value(graph::Scalar v);       // NOLINT: any element type

  /// Copying creates a new codelet variable initialised from the source —
  /// except for a tensor-argument handle, whose copy is the same handle and
  /// traces nothing.
  Value(const Value& other);
  Value& operator=(const Value& other);
  Value(const ElementRef& ref);  // NOLINT(google-explicit-constructor)

  /// Wraps a raw expression as an unnamed temporary (no variable emitted).
  /// Internal use only — temporaries cannot be assigned to.
  static Value temporary(ExprPtr expr);

  /// Declares a fresh codelet variable initialised with `expr` and returns
  /// it. All operator results go through this (three-address form), which
  /// keeps values assignable despite C++17 guaranteed copy elision.
  static Value named(ExprPtr expr);

  /// Creates a tensor-argument handle (used by Execute).
  static Value argument(int argIndex, DType type);

  /// Tensor-argument indexing: x[i].
  ElementRef operator[](const Value& index) const;

  /// Tensor-argument local size: x.size().
  Value size() const;

  /// Explicit type conversion, e.g. v.cast(DType::DoubleWord).
  Value cast(DType type) const;

  DType type() const;
  ExprPtr expr() const;
  bool isArgument() const { return argIndex_ >= 0; }
  int argIndex() const { return argIndex_; }

 private:
  Value() = default;
  ExprPtr expr_;       // how to read this value
  int varId_ = -1;     // variable slot when this is a named value
  int argIndex_ = -1;  // codelet argument index when this is a tensor handle
};

// Arithmetic / comparison operators (each overload also accepts literals via
// Value's implicit constructors).
Value operator+(const Value& a, const Value& b);
Value operator-(const Value& a, const Value& b);
Value operator*(const Value& a, const Value& b);
Value operator/(const Value& a, const Value& b);
Value operator%(const Value& a, const Value& b);
Value operator<(const Value& a, const Value& b);
Value operator<=(const Value& a, const Value& b);
Value operator>(const Value& a, const Value& b);
Value operator>=(const Value& a, const Value& b);
Value operator==(const Value& a, const Value& b);
Value operator!=(const Value& a, const Value& b);
Value operator&&(const Value& a, const Value& b);
Value operator||(const Value& a, const Value& b);
Value operator-(const Value& a);
Value operator!(const Value& a);

Value Min(const Value& a, const Value& b);
Value Max(const Value& a, const Value& b);
Value Abs(const Value& a);
Value Sqrt(const Value& a);

/// Lazy operand for Select: unlike a Value (which is evaluated where it is
/// constructed), an ElementRef passed here stays inside the select expression
/// and is only loaded when its branch is taken — so guarded indexing like
/// Select(c < n, owned[c], halo[c - n]) never performs the untaken load.
class SelectOperand {
 public:
  SelectOperand(const Value& v) : expr_(v.expr()) {}           // NOLINT
  SelectOperand(const ElementRef& r) : expr_(r.loadExpr()) {}  // NOLINT
  SelectOperand(int v);                                        // NOLINT
  SelectOperand(float v);                                      // NOLINT
  SelectOperand(double v);                                     // NOLINT
  const ExprPtr& expr() const { return expr_; }

 private:
  ExprPtr expr_;
};

/// Conditional select (the DSL's replacement for the ternary operator).
/// Only the chosen operand is evaluated.
Value Select(const Value& cond, const SelectOperand& ifTrue,
             const SelectOperand& ifFalse);
/// Id of the executing worker thread (0 .. numWorkers-1).
Value WorkerId();

/// for (i = begin; i < end; i += step) body(i)
void For(const Value& begin, const Value& end, const Value& step,
         const std::function<void(Value)>& body);

/// Worker-parallel for: iterations are distributed across the tile's six
/// worker threads (iputhreading model) and synchronised afterwards. The body
/// must not carry loop-to-loop dependencies.
void ParallelFor(const Value& begin, const Value& end,
                 const std::function<void(Value)>& body);

/// if (cond) { then() } else { otherwise() }
void If(const Value& cond, const std::function<void()>& then,
        const std::function<void()>& otherwise = {});

/// while (cond()) { body() } — the condition is a generator lambda because
/// values are traced eagerly: it is traced once before the loop and once at
/// the end of the body, so it is genuinely re-evaluated every iteration.
void While(const std::function<Value()>& cond,
           const std::function<void()>& body);

}  // namespace graphene::dsl
