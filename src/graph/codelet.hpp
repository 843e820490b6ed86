// Codelets and vertices — the compute side of the dataflow graph.
//
// A codelet is "an individual computational operation, similar to a CUDA
// kernel, programmed in C++" (§II-A). In this simulation a codelet carries an
// opaque run function (produced by CodeDSL from its statement IR) that
// executes the computation against the vertex's tensor slices and returns the
// worker cycles it consumed under the cost model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/scalar.hpp"
#include "graph/tensor.hpp"

namespace graphene::graph {

class Engine;

using CodeletId = std::uint32_t;
using ComputeSetId = std::uint32_t;

/// A tile-local window of a tensor, passed to a codelet as an argument.
struct TensorSlice {
  TensorId tensor = kInvalidTensor;
  std::size_t tile = 0;   // region owner; must equal the vertex's tile
  std::size_t begin = 0;  // element offset within the tile's region
  std::size_t count = 0;  // elements visible to the codelet
};

/// Cost result of running one vertex.
struct VertexCost {
  /// Worker-visible cycles consumed.
  double workerCycles = 0;
  /// True when the codelet internally manages all six workers (level-set
  /// supervisor codelets): its cycles then occupy the whole tile.
  bool wholeTile = false;
};

/// One codelet argument bound to its storage: the first element of the
/// vertex's tile-local slice, the slice length and the element type. The
/// engine resolves every vertex's arguments once, when it builds the compute
/// set's execution plan; storage buffers are allocated once per tensor and
/// never move, so a bound pointer stays valid for the engine's lifetime.
struct ArgSpan {
  void* data = nullptr;
  std::size_t size = 0;
  ipu::DType dtype = ipu::DType::Float32;
};

/// Runtime view handed to a codelet: its bound argument slices, plus whether
/// the codelet's bind hook accepted them when the plan was built. Indices
/// are slice-relative, which enforces tile-locality.
class VertexContext {
 public:
  explicit VertexContext(std::span<const ArgSpan> args, bool bound = false)
      : args_(args), bound_(bound) {}

  std::size_t numArgs() const { return args_.size(); }
  const ArgSpan* args() const { return args_.data(); }
  std::size_t argSize(std::size_t arg) const { return at(arg).size; }
  ipu::DType argType(std::size_t arg) const { return at(arg).dtype; }
  /// Codelet::bind's verdict for these arguments (false without a hook).
  bool bound() const { return bound_; }

  /// Dynamically typed element access; `index` must be below argSize(arg).
  Scalar load(std::size_t arg, std::size_t index) const;
  /// Stores `value` converted to the argument's dtype.
  void store(std::size_t arg, std::size_t index, const Scalar& value);

  /// Typed view of a Float32 argument slice.
  std::span<float> floatSpan(std::size_t arg) const;

 private:
  const ArgSpan& at(std::size_t arg) const {
    GRAPHENE_DCHECK(arg < args_.size(), "arg out of range");
    return args_[arg];
  }

  std::span<const ArgSpan> args_;
  bool bound_;
};

struct Codelet {
  std::string name;
  /// Executes the codelet against one vertex's argument slices.
  ///
  /// Thread-safety contract: the engine invokes `run` for vertices on
  /// different tiles from concurrent host threads. The callable must
  /// therefore be stateless with respect to the invocation — any captured
  /// state (e.g. a compiled codelet) must be immutable, with all per-run
  /// state living on the caller's stack or in the VertexContext. Distinct
  /// invocations never share a VertexContext, and their argument slices
  /// reference disjoint storage regions (slices are tile-local).
  std::function<VertexCost(VertexContext&)> run;
  /// Optional. Called once per vertex when the engine builds a compute set's
  /// execution plan; its verdict reaches `run` as VertexContext::bound().
  /// DSL codelets answer whether their compiled program's argument dtypes
  /// hold for this vertex. Must be pure, like `run`.
  std::function<bool(std::span<const ArgSpan>)> bind = {};
};

/// One codelet instance placed on one tile with bound tensor slices.
struct Vertex {
  CodeletId codelet = 0;
  std::size_t tile = 0;
  std::vector<TensorSlice> args;
};

/// Vertices that may execute in parallel, separated from neighbours by BSP
/// syncs. `category` labels profile attribution (Table IV breakdown).
struct ComputeSet {
  std::string category;
  std::vector<Vertex> vertices;
  /// Counters ticked into Profile::metrics each time this compute set
  /// executes (e.g. {"spmv.flops", 2·nnz}). Usually empty.
  std::vector<std::pair<std::string, double>> perExecMetrics;
};

}  // namespace graphene::graph
