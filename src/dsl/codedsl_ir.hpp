// Statement/expression IR emitted by CodeDSL tracing.
//
// On real hardware, CodeDSL "simply emits C control flow statements into the
// generated codelets" (§III) which Poplar compiles to tile machine code. In
// this simulation the traced codelet is an IR tree that the interpreter
// (dsl/interpreter.*) executes against tile-local tensor slices while
// charging cycle costs — the functional and timing equivalent of the
// generated C++ codelet.
#pragma once

#include <memory>
#include <vector>

#include "graph/scalar.hpp"
#include "ipu/types.hpp"

namespace graphene::dsl {

using graph::Scalar;
using ipu::DType;

enum class BinOp {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
  Min, Max,
};

enum class UnOp { Neg, Abs, Sqrt, Not };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  enum class Kind {
    Const,      // literal scalar
    Var,        // local variable slot
    ArgLoad,    // args[arg][a] — tile-local tensor element load
    ArgSize,    // args[arg].size() for the executing tile
    Binary,     // a bop b
    Unary,      // uop a
    Cast,       // (type) a
    Select,     // a ? b : c
    WorkerId,   // id of the executing worker thread (0..5)
  };

  Kind kind = Kind::Const;
  DType type = DType::Float32;  // result type at trace time
  Scalar constant;              // Const
  int var = -1;                 // Var
  int arg = -1;                 // ArgLoad / ArgSize
  ExprPtr a, b, c;
  BinOp bop = BinOp::Add;
  UnOp uop = UnOp::Neg;
};

struct Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;
using StmtList = std::vector<StmtPtr>;

struct Stmt {
  enum class Kind {
    Assign,    // vars[var] = value
    StoreArg,  // args[arg][index] = value
    If,        // if (cond) body else elseBody
    While,     // while (cond) body
    For,       // for (var = begin; var < end; var += step) body
    ParFor,    // worker-parallel for over [begin, end): iterations are
               // distributed over the tile's six workers (iputhreading model)
  };

  Kind kind = Kind::Assign;
  int var = -1;
  int arg = -1;
  DType type = DType::Float32;  // StoreArg: the argument's trace-time dtype
  ExprPtr index, value, cond, begin, end, step;
  StmtList body, elseBody;
};

/// A fully traced codelet: its statements plus the variable-slot count and
/// whether it drives all six workers itself (ParFor ⇒ supervisor codelet).
struct CodeletIR {
  StmtList statements;
  int numVars = 0;
  bool usesWorkers = false;
  std::size_t numArgs = 0;
};

// ---------------------------------------------------------------------------
// Linearised ("flat") form of the traced IR.
//
// The shared_ptr trees above are convenient to build during tracing but
// expensive to walk millions of times inside solver loops: every node is a
// separate heap object (pointer chases, no locality) and evaluation recurses.
// The interpreter therefore flattens each codelet once into the index-linked
// arrays below — a compact bytecode the flat executor walks with plain
// integer indices. Flattening is purely structural; evaluation semantics and
// cycle accounting are defined by the executor, not by this representation.
// ---------------------------------------------------------------------------

/// One expression node; child links are indices into FlatCodelet::exprs
/// (-1 = absent).
struct FlatExpr {
  Expr::Kind kind = Expr::Kind::Const;
  DType type = DType::Float32;  // result type at trace time
  Scalar constant;              // Const
  std::int32_t var = -1;        // Var
  std::int32_t arg = -1;        // ArgLoad / ArgSize
  std::int32_t a = -1, b = -1, c = -1;
  BinOp bop = BinOp::Add;
  UnOp uop = UnOp::Neg;
};

/// One statement; expression operands are indices into FlatCodelet::exprs,
/// statement bodies are indices into FlatCodelet::lists (-1 = absent).
struct FlatStmt {
  Stmt::Kind kind = Stmt::Kind::Assign;
  std::int32_t var = -1;
  std::int32_t arg = -1;
  DType type = DType::Float32;  // StoreArg: the argument's trace-time dtype
  std::int32_t index = -1, value = -1, cond = -1;
  std::int32_t begin = -1, end = -1, step = -1;
  std::int32_t body = -1, elseBody = -1;
};

/// A flattened codelet: all expressions and statements of the tree pooled
/// into arrays, with statement sequences stored as index lists.
struct FlatCodelet {
  std::vector<FlatExpr> exprs;
  std::vector<FlatStmt> stmts;
  std::vector<std::vector<std::int32_t>> lists;  // stmt-id sequences
  std::int32_t root = -1;                        // top-level list id
  int numVars = 0;
  bool usesWorkers = false;
  std::size_t numArgs = 0;
};

/// Flattens a traced codelet tree. The result is self-contained (no
/// references back into `ir`).
FlatCodelet flattenCodelet(const CodeletIR& ir);

}  // namespace graphene::dsl
