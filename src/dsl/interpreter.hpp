// Interpreter for traced CodeDSL codelets.
//
// Executes the statement IR against a vertex's tensor slices with genuine
// arithmetic (float32 / SoftDouble / double-word), while accumulating worker
// cycles under the IPU cost model — including the two-pipeline dual issue
// (max(fp, mem) per statement) and the iputhreading worker model for ParFor.
//
// Codelets are compiled once: the shared_ptr statement tree is flattened into
// the FlatCodelet bytecode of codedsl_ir.hpp, and the whole codelet is
// lowered to one register-VM program (straight-line statements, control
// flow, double-word values as register pairs; serial straight-line loops as
// kernels that run block-vectorized, or as the named dot partial). A
// vertex runs the program whole, or — when the codelet did not compile or
// the vertex's argument dtypes differ from trace time — the generic
// statement walk whole. Both give the same results bit for bit and the same
// cycle charges; the walk is the reference the VM is tested against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "dsl/codedsl_ir.hpp"
#include "graph/codelet.hpp"
#include "ipu/cost_model.hpp"

namespace graphene::dsl {

/// A codelet lowered for repeated execution: the flat IR plus its register-VM
/// program, bound to the cost model and worker count it was priced under.
/// Immutable after compilation — safe to run from multiple host threads
/// concurrently (each run keeps its state on its own stack).
class CompiledCodelet;
using CompiledCodeletPtr = std::shared_ptr<const CompiledCodelet>;

/// Compiles a traced codelet for execution under `cost` with `numWorkers`
/// workers per tile.
CompiledCodeletPtr compileCodelet(const CodeletIR& ir,
                                  const ipu::CostModel& cost,
                                  std::size_t numWorkers);

/// The construct that kept `codelet` off the register VM, or nullptr when
/// the whole codelet compiled. Read-only, for tests and diagnostics.
const char* codeletWalkReason(const CompiledCodelet& codelet);

/// The ops `codelet` compiled to: its register-VM program's plus those of
/// its lifted loop kernels (0 when it did not compile). Read-only, for tests
/// and diagnostics.
std::size_t codeletOpCount(const CompiledCodelet& codelet);

/// One line on how `codelet` runs: `vm ops=N kernels=[...] csr=N tri=N`
/// when it compiled to the register VM (each serial loop kernel as `dot`, the
/// named dot partial, or `none`, plus `+blocked` when it runs
/// block-vectorized; the native CSR SpMV and triangular-substitution row
/// plans), else `walk: <construct>`.
/// GRAPHENE_DUMP_COMPILE=1 prints it as each codelet compiles. Read-only,
/// for tests and diagnostics.
std::string codeletShape(const CompiledCodelet& codelet);

/// True when `codelet` compiled and `args` have the dtypes its program was
/// traced with: a vertex bound to them runs on the VM. The engine asks once
/// per vertex, when it builds an execution plan (graph::Codelet::bind).
bool codeletBinds(const CompiledCodelet& codelet,
                  std::span<const graph::ArgSpan> args);

/// Executes a compiled codelet against `ctx`; returns the modelled cost.
/// Runs the program when ctx.bound() and fast paths are on, else the walk.
graph::VertexCost runCompiled(const CompiledCodelet& codelet,
                              graph::VertexContext& ctx);

/// Convenience: compiles `ir` once and wraps it as a graph::Codelet whose
/// bind hook is codeletBinds and whose run function is runCompiled (what
/// every DSL codelet registration uses).
graph::Codelet makeCodelet(std::string name, CodeletIR ir,
                           const ipu::CostModel& cost, std::size_t numWorkers);

/// Globally enables/disables the register VM. With it off every vertex runs
/// the generic statement walk. Results and cycle charges are identical
/// either way — the switch exists so tests can assert exactly that, and to
/// debug miscompiles. Also settable via the environment:
/// GRAPHENE_NO_FASTPATH=1 disables it at startup.
void setCodeletFastPaths(bool enabled);
bool codeletFastPathsEnabled();

/// Process-wide count of vertex runs that took the generic walk. Read-only:
/// tests use it to pin that production codelets never walk.
std::uint64_t codeletWalkEntries();

/// Evaluates a binary operation on dynamically typed scalars with numeric
/// promotion. Exposed for unit tests.
Scalar evalBinaryScalar(BinOp op, const Scalar& lhs, const Scalar& rhs);

/// Evaluates a unary operation. Exposed for unit tests.
Scalar evalUnaryScalar(UnOp op, const Scalar& operand);

}  // namespace graphene::dsl
