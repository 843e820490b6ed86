// Interpreter for traced CodeDSL codelets.
//
// Executes the statement IR against a vertex's tensor slices with genuine
// arithmetic (float32 / SoftDouble / double-word), while accumulating worker
// cycles under the IPU cost model — including the two-pipeline dual issue
// (max(fp, mem) per statement) and the iputhreading worker model for ParFor.
//
// Codelets are compiled once (flatten the shared_ptr statement tree into the
// FlatCodelet bytecode of codedsl_ir.hpp, and lower eligible counted loops to
// register-VM kernels, some of which also match a named span kernel or run
// block-vectorized) and the compiled form is executed on every vertex run.
// The kernels are exact: same results bit-for-bit, same cycle charges, with
// the generic statement walk for anything they cannot prove safe.
#pragma once

#include <memory>
#include <string>

#include "dsl/codedsl_ir.hpp"
#include "graph/codelet.hpp"
#include "ipu/cost_model.hpp"

namespace graphene::dsl {

/// A codelet lowered for repeated execution: the flat IR plus compiled loop
/// kernels, bound to the cost model and worker count it was priced under.
/// Immutable after compilation — safe to run from multiple host threads
/// concurrently (each run keeps its state on its own stack).
class CompiledCodelet;
using CompiledCodeletPtr = std::shared_ptr<const CompiledCodelet>;

/// Compiles a traced codelet for execution under `cost` with `numWorkers`
/// workers per tile.
CompiledCodeletPtr compileCodelet(const CodeletIR& ir,
                                  const ipu::CostModel& cost,
                                  std::size_t numWorkers);

/// Number of loops in `codelet` lowered to a register-VM kernel; the rest
/// run the generic statement walk. Read-only, for tests that pin which loops
/// compile.
std::size_t compiledKernelCount(const CompiledCodelet& codelet);

/// Executes a compiled codelet against `ctx`; returns the modelled cost.
graph::VertexCost runCompiled(const CompiledCodelet& codelet,
                              graph::VertexContext& ctx);

/// Convenience: compiles `ir` once and wraps it as a graph::Codelet whose
/// run function executes the compiled form (the per-vertex fast path every
/// DSL codelet registration uses).
graph::Codelet makeCodelet(std::string name, CodeletIR ir,
                           const ipu::CostModel& cost, std::size_t numWorkers);

/// Globally enables/disables the compiled loop fast paths (register-VM
/// kernels). With fast paths off every loop runs the generic statement walk.
/// Results and cycle charges are identical either way — the switch exists so
/// tests can assert exactly that, and to debug miscompiles. Also settable via
/// the environment: GRAPHENE_NO_FASTPATH=1 disables them at startup.
void setCodeletFastPaths(bool enabled);
bool codeletFastPathsEnabled();

/// Evaluates a binary operation on dynamically typed scalars with numeric
/// promotion. Exposed for unit tests.
Scalar evalBinaryScalar(BinOp op, const Scalar& lhs, const Scalar& rhs);

/// Evaluates a unary operation. Exposed for unit tests.
Scalar evalUnaryScalar(UnOp op, const Scalar& operand);

}  // namespace graphene::dsl
