#include "core/ordering_engine.h"

#include <algorithm>
#include <utility>

#include "core/curve_order.h"
#include "core/recursive_bisection.h"
#include "core/spectral_lpm.h"
#include "util/string_util.h"

namespace spectral {

namespace {

constexpr std::string_view kSpectralName = "spectral";
constexpr std::string_view kSpectralMultilevelName = "spectral-multilevel";
constexpr std::string_view kBisectionName = "bisection";

/// "bisection": recursive spectral median-cut adapter.
class BisectionEngine : public OrderingEngine {
 public:
  std::string_view name() const override { return kBisectionName; }
  bool supports_graph_input() const override { return true; }

  StatusOr<OrderingResult> Order(const OrderingRequest& request) const override {
    if (Status s = CheckRequest(request, kBisectionName); !s.ok()) return s;
    RecursiveBisectionOptions options = request.options.bisection;
    options.base = request.EffectiveSpectralOptions();
    auto result =
        request.input == OrderingInputKind::kGraph
            ? RecursiveSpectralOrderGraph(*request.graph, request.points.get(),
                                          options)
            : RecursiveSpectralOrder(*request.points, options);
    if (!result.ok()) return result.status();

    OrderingResult out;
    out.order = std::move(result->order);
    out.method = "median-cut";
    out.num_solves = result->num_solves;
    out.matvecs = result->matvecs;
    out.depth = result->depth;
    out.detail = "solves=" + FormatInt(out.num_solves) +
                 " warm_solves=" + FormatInt(result->warm_solves) +
                 " matvecs=" + FormatInt(out.matvecs) +
                 " depth=" + FormatInt(out.depth);
    return out;
  }
};

/// Curve-family adapter: orders by curve index on the smallest legal
/// enclosing grid, reporting the padding in the diagnostics.
class CurveEngine : public OrderingEngine {
 public:
  explicit CurveEngine(CurveKind kind) : kind_(kind) {}

  std::string_view name() const override { return CurveKindName(kind_); }

  StatusOr<OrderingResult> Order(const OrderingRequest& request) const override {
    if (Status s = CheckRequest(request, name()); !s.ok()) return s;
    if (request.input != OrderingInputKind::kPoints) {
      return UnimplementedError(
          "engine '" + std::string(name()) +
          "' is geometry-only: it accepts kPoints requests, not graphs or "
          "affinity edges");
    }
    GridSpec grid = GridSpec::Uniform(1, 1);
    auto order = OrderByCurve(*request.points, kind_, &grid);
    if (!order.ok()) return order.status();

    OrderingResult out;
    out.order = std::move(*order);
    out.method = std::string(CurveKindName(kind_));
    out.grid_side = grid.side(0);
    out.grid_cells = grid.NumCells();
    out.detail = "grid_side=" + FormatInt(out.grid_side) +
                 " grid_cells=" + FormatInt(out.grid_cells);
    return out;
  }

 private:
  CurveKind kind_;
};

}  // namespace

Status CheckRequest(const OrderingRequest& request, std::string_view engine) {
  if (Status s = request.Validate(); !s.ok()) return s;
  if (request.engine != engine) {
    return InvalidArgumentError("request addressed to engine '" +
                                request.engine + "' given to engine '" +
                                std::string(engine) + "'");
  }
  return OkStatus();
}

std::vector<std::string> AllOrderingEngineNames() {
  std::vector<std::string> names = {std::string(kSpectralName),
                                    std::string(kSpectralMultilevelName),
                                    std::string(kBisectionName)};
  for (CurveKind kind : AllCurveKinds()) {
    names.emplace_back(CurveKindName(kind));
  }
  return names;
}

std::string_view CanonicalEngineName(std::string_view name) {
  return name == kSpectralMultilevelName ? kSpectralName : name;
}

StatusOr<std::unique_ptr<OrderingEngine>> MakeOrderingEngine(
    std::string_view name) {
  if (name == kSpectralName || name == kSpectralMultilevelName) {
    return MakeSpectralEngine(name);
  }
  if (name == kBisectionName) {
    return std::unique_ptr<OrderingEngine>(new BisectionEngine());
  }
  auto kind = CurveKindFromName(name);
  if (kind.ok()) {
    return std::unique_ptr<OrderingEngine>(new CurveEngine(*kind));
  }
  return NotFoundError("unknown ordering engine '" + std::string(name) +
                       "'; known engines: " +
                       StrJoin(AllOrderingEngineNames(), ", "));
}

}  // namespace spectral
