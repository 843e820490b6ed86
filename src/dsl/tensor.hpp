// TensorDSL — global-perspective tensor operations (paper §III).
//
// Tensors are distributed over tiles; expressions on them are lazy
// *expression objects* (§III-C) that materialise into generated CodeDSL
// codelets only when a value is needed. Elementwise ops, broadcasts of
// scalars, reductions, and control flow (If / While / Repeat) are provided;
// individual element manipulation is deliberately impossible — that is
// CodeDSL's job.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsl/codedsl.hpp"
#include "dsl/context.hpp"
#include "graph/tensor.hpp"

namespace graphene::dsl {

class Expression;

/// Reduction operators supported by TensorDSL (§III: reductions are one of
/// the global operations of the language).
enum class ReduceKind { Sum, Max, Min, AbsMax };

/// Handle to a tensor variable distributed over the tiles of the active
/// Context. Copying the handle copies the *data* (a new tensor variable is
/// created), matching the value semantics of the paper's solver listings.
class Tensor {
 public:
  /// A vector of `size` elements, row-partitioned linearly over all tiles.
  Tensor(DType type, std::size_t size, std::string name = "");

  /// A tensor with an explicit (possibly ragged) per-tile mapping.
  Tensor(DType type, graph::TileMapping mapping, std::string name = "");

  /// A scalar, replicated across all tiles and kept consistent.
  static Tensor scalar(DType type, std::string name = "");

  /// Materialises an expression into a fresh tensor.
  Tensor(const Expression& e);  // NOLINT(google-explicit-constructor)

  /// Deep copy: new tensor variable plus an elementwise copy.
  Tensor(const Tensor& other);

  /// Moves transfer the handle (no new tensor, no copy program) — they are
  /// what containers and factory returns use.
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept = default;

  /// Materialises an expression into this tensor (elementwise, broadcast).
  Tensor& operator=(const Expression& e);

  /// Elementwise copy into this tensor.
  Tensor& operator=(const Tensor& other);

  /// Reduction over all elements; materialises immediately and returns a
  /// reference to the resulting replicated scalar.
  Expression reduce(ReduceKind kind = ReduceKind::Sum) const;

  /// Explicit dtype conversion.
  Expression cast(DType type) const;

  std::size_t size() const;
  graph::TensorId id() const { return id_; }
  DType type() const;
  const graph::TensorInfo& info() const;
  bool isScalarShaped() const;

  /// Wraps an existing graph tensor (no new allocation) — used by library
  /// code that builds tensors directly.
  static Tensor wrap(graph::TensorId id);

 private:
  Tensor() = default;
  graph::TensorId id_ = graph::kInvalidTensor;
};

/// Cheap, non-owning reference to a tensor variable. Library entry points
/// take TensorRef so that brace-lists like Execute({x, y}, ...) never invoke
/// Tensor's deep-copying copy constructor.
class TensorRef {
 public:
  TensorRef(const Tensor& t) : id_(t.id()) {}  // NOLINT
  explicit TensorRef(graph::TensorId id) : id_(id) {}
  graph::TensorId id() const { return id_; }

 private:
  graph::TensorId id_;
};

namespace detail {
struct ExpNode;
using ExpNodePtr = std::shared_ptr<const ExpNode>;
}  // namespace detail

/// A lazy elementwise expression over tensors and scalar literals.
class Expression {
 public:
  Expression(const Tensor& t);  // NOLINT(google-explicit-constructor)
  Expression(float v);          // NOLINT(google-explicit-constructor)
  Expression(double v);         // NOLINT: stored as float32
  Expression(int v);            // NOLINT(google-explicit-constructor)
  static Expression constant(Scalar s);

  Expression cast(DType type) const;

  /// Reduction; materialises now, returns a replicated-scalar ref.
  Expression reduce(ReduceKind kind = ReduceKind::Sum) const;

  /// Materialises into a fresh tensor. `category` labels the compute set
  /// for profiling (Table IV).
  Tensor materialize(const std::string& category = "elementwise") const;

  /// Materialises into an existing tensor (shapes must broadcast-match).
  void materializeInto(Tensor& dst,
                       const std::string& category = "elementwise") const;

  const detail::ExpNodePtr& node() const { return node_; }
  DType type() const;

  /// True if every referenced tensor is scalar-shaped.
  bool isScalarShaped() const;

  static Expression fromNode(detail::ExpNodePtr node);

 private:
  Expression() = default;
  detail::ExpNodePtr node_;
};

Expression operator+(const Expression& a, const Expression& b);
Expression operator-(const Expression& a, const Expression& b);
Expression operator*(const Expression& a, const Expression& b);
Expression operator/(const Expression& a, const Expression& b);
Expression operator<(const Expression& a, const Expression& b);
Expression operator<=(const Expression& a, const Expression& b);
Expression operator>(const Expression& a, const Expression& b);
Expression operator>=(const Expression& a, const Expression& b);
Expression operator==(const Expression& a, const Expression& b);
Expression operator!=(const Expression& a, const Expression& b);
Expression operator&&(const Expression& a, const Expression& b);
Expression operator||(const Expression& a, const Expression& b);
Expression operator%(const Expression& a, const Expression& b);
Expression operator-(const Expression& a);
Expression operator!(const Expression& a);
Expression Abs(const Expression& a);
Expression Sqrt(const Expression& a);
Expression Min(const Expression& a, const Expression& b);
Expression Max(const Expression& a, const Expression& b);
Expression Select(const Expression& cond, const Expression& ifTrue,
                  const Expression& ifFalse);

/// Joint reduction: reduces k expressions in ONE fused pass — one partial
/// compute set, one gather exchange, one final combine, one broadcast —
/// instead of k separate reduction trees. Pipelined Krylov methods use this
/// to merge their dot products into a single global sync per iteration
/// (Ghysels & Vanroose). All expressions must share a dtype and each needs a
/// non-scalar operand. The optional `overlap` callback is emitted between
/// the gather and the final combine: programs emitted there execute while
/// the reduction's exchange is in flight, hiding its latency. On a pod
/// (more than one chip, more than one tile per chip) the gather runs
/// hierarchically: tiles reduce to a per-IPU leader on-chip, and one
/// k-vector per IPU crosses the links. Returns k replicated scalars.
///
/// Each result is bit-identical to `exprs[j].reduce(kind)`: every tile forms
/// expression j's partial in its own loop from element 0, and each combine
/// visits the partials in ascending tile order (then ascending chip order,
/// two-level), as a single reduction does. Solvers may therefore merge dots
/// without moving a residual.
std::vector<Tensor> ReduceMany(const std::vector<Expression>& exprs,
                               ReduceKind kind = ReduceKind::Sum,
                               const std::function<void()>& overlap = {});

/// Dot product: (a * b).reduce().
Expression Dot(const Expression& a, const Expression& b);
/// Euclidean norm: sqrt((a * a).reduce()).
Expression Norm2(const Expression& a);
/// Infinity norm: Abs(a).reduce(Max).
Expression NormInf(const Expression& a);

// ---------------------------------------------------------------------------
// TensorDSL control flow (builds the execution schedule via the control-flow
// stack, §III-B).
// ---------------------------------------------------------------------------

void If(const Expression& cond, const std::function<void()>& then,
        const std::function<void()>& otherwise = {});
void While(const Expression& cond, const std::function<void()>& body);
void Repeat(std::size_t times, const std::function<void()>& body);

/// Host callback printing a label and the tensor's first elements
/// (progress reporting, §III-A step 4).
void Print(const std::string& label, const Tensor& t);

/// Arbitrary host callback scheduled at this point of the program.
void HostCall(std::function<void(graph::Engine&)> fn);

// ---------------------------------------------------------------------------
// CodeDSL entry point: Execute traces a codelet over the given tensors and
// schedules it on every tile holding data (paper Fig. 1).
// ---------------------------------------------------------------------------

void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(std::vector<Value>&)>& fn,
             const std::string& category = "codedsl");

// Arity sugar matching the paper's style: Execute({x}, [](Value x) { ... }).
void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(Value)>& fn,
             const std::string& category = "codedsl");
void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(Value, Value)>& fn,
             const std::string& category = "codedsl");
void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(Value, Value, Value)>& fn,
             const std::string& category = "codedsl");
void Execute(const std::vector<TensorRef>& tensors,
             const std::function<void(Value, Value, Value, Value)>& fn,
             const std::string& category = "codedsl");

/// Core Execute working on an explicit tile list; `tiles` restricts which
/// tiles get a vertex (empty = every tile where some argument has data).
/// Library building block for solvers. Returns the compute set it emitted,
/// so callers can attach per-execution metrics to it
/// (Graph::addComputeSetMetric).
graph::ComputeSetId ExecuteOnTiles(
    const std::vector<TensorRef>& tensors,
    const std::function<void(std::vector<Value>&)>& fn,
    const std::string& category, const std::vector<std::size_t>& tiles);

}  // namespace graphene::dsl
