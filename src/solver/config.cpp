// JSON-driven solver factory (§V: "The solver hierarchy and associated
// parameters are easily configured through a JSON file").
//
// Configs are validated strictly: an unknown key or a key of the wrong JSON
// type is an error that names the offending key and lists the keys the
// solver type accepts. A typo like "tolerence" therefore fails the build of
// the solver instead of silently running with the default.
#include "solver/solvers.hpp"
#include "support/error.hpp"

namespace graphene::solver {

using json::KeyKind;
using json::validateKeys;

namespace {

/// Largest iteration, sweep or period count a solver config accepts: the
/// device keeps such counters as Int32, where a larger one turns negative.
constexpr std::size_t kMaxSolverCount = 2147483647;

DType parseExtendedType(const std::string& s) {
  if (s == "doubleword" || s == "dw") return DType::DoubleWord;
  if (s == "float64" || s == "double" || s == "dp") return DType::Float64;
  if (s == "float32" || s == "float" || s == "none") return DType::Float32;
  GRAPHENE_CHECK(false, "unknown extended type '", s, "'");
  return DType::Float32;
}

}  // namespace

RobustnessOptions parseRobustness(const json::Value& config) {
  RobustnessOptions opts;
  if (!config.isObject() || !config.contains("robustness")) return opts;
  const json::Value& r = config.at("robustness");
  GRAPHENE_CHECK(r.isObject(), "'robustness' must be a JSON object");
  validateKeys(r, "'robustness' config",
               {{"maxRestarts", KeyKind::Number},
                {"divergenceFactor", KeyKind::Number},
                {"breakdownTolerance", KeyKind::Number},
                {"checkpointEvery", KeyKind::Number},
                {"maxRollbacks", KeyKind::Number},
                {"residualGrowthFactor", KeyKind::Number},
                {"abft", KeyKind::Bool},
                {"abftTolerance", KeyKind::Number}});
  auto count = [&](const char* key, std::size_t fallback) {
    return json::countOr(r, "robustness", key, fallback, kMaxSolverCount);
  };
  opts.maxRestarts = count("maxRestarts", opts.maxRestarts);
  opts.divergenceFactor = r.getOr("divergenceFactor", opts.divergenceFactor);
  opts.breakdownTolerance =
      r.getOr("breakdownTolerance", opts.breakdownTolerance);
  opts.checkpointEvery = count("checkpointEvery", opts.checkpointEvery);
  opts.maxRollbacks = count("maxRollbacks", opts.maxRollbacks);
  opts.residualGrowthFactor =
      r.getOr("residualGrowthFactor", opts.residualGrowthFactor);
  opts.abft = r.getOr("abft", opts.abft);
  opts.abftTolerance = r.getOr("abftTolerance", opts.abftTolerance);
  GRAPHENE_CHECK(opts.abftTolerance > 0.0,
                 "robustness.abftTolerance must be positive");
  GRAPHENE_CHECK(opts.divergenceFactor > 0.0,
                 "robustness.divergenceFactor must be positive");
  GRAPHENE_CHECK(opts.breakdownTolerance >= 0.0,
                 "robustness.breakdownTolerance must be non-negative");
  GRAPHENE_CHECK(opts.residualGrowthFactor > 1.0,
                 "robustness.residualGrowthFactor must exceed 1");
  return opts;
}

std::unique_ptr<Solver> makeSolver(const json::Value& config) {
  GRAPHENE_CHECK(config.isObject(), "solver config must be a JSON object");
  GRAPHENE_CHECK(config.contains("type"),
                 "solver config needs a 'type' key (bicgstab, cg, mpir, "
                 "gauss-seidel, richardson, jacobi, ilu, dilu, identity)");
  GRAPHENE_CHECK(config.at("type").isString(),
                 "key 'type' in solver config must be a string");
  const std::string type = config.at("type").asString();
  const std::string where = "'" + type + "' solver config";
  auto count = [&](const char* key, std::size_t fallback) {
    return json::countOr(config, type, key, fallback, kMaxSolverCount);
  };

  if (type == "identity" || type == "none") {
    validateKeys(config, where, {{"type", KeyKind::String}});
    return std::make_unique<IdentitySolver>();
  }
  if (type == "jacobi") {
    validateKeys(config, where,
                 {{"type", KeyKind::String},
                  {"iterations", KeyKind::Number},
                  {"omega", KeyKind::Number}});
    return std::make_unique<JacobiSolver>(
        count("iterations", 3), static_cast<float>(config.getOr("omega", 1.0)));
  }
  if (type == "gauss-seidel" || type == "gaussseidel" || type == "gs") {
    validateKeys(config, where,
                 {{"type", KeyKind::String},
                  {"sweeps", KeyKind::Number},
                  {"tolerance", KeyKind::Number},
                  {"maxIterations", KeyKind::Number}});
    return std::make_unique<GaussSeidelSolver>(
        count("sweeps", 1), config.getOr("tolerance", 0.0),
        count("maxIterations", 1000));
  }
  if (type == "ilu") {
    validateKeys(config, where, {{"type", KeyKind::String}});
    return std::make_unique<IluSolver>(IluSolver::Variant::Ilu0);
  }
  if (type == "dilu") {
    validateKeys(config, where, {{"type", KeyKind::String}});
    return std::make_unique<IluSolver>(IluSolver::Variant::Dilu);
  }
  if (type == "richardson") {
    validateKeys(config, where,
                 {{"type", KeyKind::String},
                  {"iterations", KeyKind::Number},
                  {"omega", KeyKind::Number}});
    return std::make_unique<RichardsonSolver>(
        count("iterations", 10),
        static_cast<float>(config.getOr("omega", 0.5)));
  }
  if (type == "bicgstab" || type == "cg") {
    if (type == "cg") {
      validateKeys(config, where,
                   {{"type", KeyKind::String},
                    {"maxIterations", KeyKind::Number},
                    {"tolerance", KeyKind::Number},
                    {"preconditioner", KeyKind::Object},
                    {"robustness", KeyKind::Object},
                    {"pipelined", KeyKind::Bool},
                    {"reduction", KeyKind::String},
                    {"residualReplaceEvery", KeyKind::Number}});
    } else {
      validateKeys(config, where,
                   {{"type", KeyKind::String},
                    {"maxIterations", KeyKind::Number},
                    {"tolerance", KeyKind::Number},
                    {"preconditioner", KeyKind::Object},
                    {"robustness", KeyKind::Object}});
    }
    std::unique_ptr<Solver> precond;
    if (config.contains("preconditioner")) {
      precond = makeSolver(config.at("preconditioner"));
    } else {
      precond = std::make_unique<IdentitySolver>();
    }
    const std::size_t maxIterations = count("maxIterations", 1000);
    const double tolerance = config.getOr("tolerance", 1e-9);
    if (type == "cg") {
      // "reduction" picks how the dot products reduce on pods: "auto"
      // (two-level on multi-IPU targets), "flat", or "two-level".
      const std::string red = config.getOr("reduction", std::string("auto"));
      graph::Graph::ReduceMode mode = graph::Graph::ReduceMode::Auto;
      if (red == "flat") {
        mode = graph::Graph::ReduceMode::Flat;
      } else if (red == "two-level" || red == "twolevel" ||
                 red == "hierarchical") {
        mode = graph::Graph::ReduceMode::TwoLevel;
      } else {
        GRAPHENE_CHECK(red == "auto", "key 'reduction' in ", where,
                       " must be auto, flat or two-level (got '", red, "')");
      }
      if (config.getOr("pipelined", false)) {
        const std::size_t replaceEvery = count("residualReplaceEvery", 16);
        return std::make_unique<PipelinedCgSolver>(
            maxIterations, tolerance, std::move(precond),
            parseRobustness(config), mode, replaceEvery);
      }
      GRAPHENE_CHECK(!config.contains("residualReplaceEvery"),
                     "key 'residualReplaceEvery' in ", where,
                     " requires \"pipelined\": true");
      return std::make_unique<CgSolver>(maxIterations, tolerance,
                                        std::move(precond),
                                        parseRobustness(config), mode);
    }
    return std::make_unique<BiCgStabSolver>(maxIterations, tolerance,
                                            std::move(precond),
                                            parseRobustness(config));
  }
  if (type == "mpir" || type == "ir") {
    validateKeys(config, where,
                 {{"type", KeyKind::String},
                  {"extendedType", KeyKind::String},
                  {"maxRefinements", KeyKind::Number},
                  {"tolerance", KeyKind::Number},
                  {"inner", KeyKind::Object},
                  {"robustness", KeyKind::Object}});
    GRAPHENE_CHECK(config.contains("inner"),
                   "mpir solver needs an 'inner' solver config");
    return std::make_unique<MpirSolver>(
        parseExtendedType(config.getOr("extendedType",
                                       std::string("doubleword"))),
        count("maxRefinements", 20),
        config.getOr("tolerance", 1e-13), makeSolver(config.at("inner")),
        parseRobustness(config));
  }
  GRAPHENE_CHECK(false, "unknown solver type '", type,
                 "' (valid: bicgstab, cg, mpir, ir, gauss-seidel, "
                 "richardson, jacobi, ilu, dilu, identity)");
  return nullptr;
}

std::unique_ptr<Solver> makeSolverFromString(const std::string& jsonText) {
  return makeSolver(json::parse(jsonText));
}

}  // namespace graphene::solver
