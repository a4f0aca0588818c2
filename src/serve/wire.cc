#include "serve/wire.h"

#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "space/grid.h"
#include "space/point_set.h"
#include "util/string_util.h"

namespace spectral {

namespace {

bool ParseDouble(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

bool ParseInt(const std::string& token, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(token.c_str(), &end, 10);
  return end != token.c_str() && *end == '\0';
}

// Payload limit beside kMaxPointDims: a GRID line may not expand into more
// cells than this.
constexpr int64_t kMaxWireGridCells = int64_t{1} << 24;

template <typename T>
bool Fits(int64_t v) {
  return v >= std::numeric_limits<T>::min() &&
         v <= std::numeric_limits<T>::max();
}

// "key=value" option tokens between the engine name and the payload tag.
// Unknown keys are an error: a typo silently ignored would serve the wrong
// order.
Status ApplyOrderOption(const std::string& token, WireRequest* out) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) {
    return InvalidArgumentError("bad option token '" + token +
                                "' (want key=value)");
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  if (key == "deadline") {
    if (!ParseDouble(value, &out->deadline_ms)) {
      return InvalidArgumentError("bad deadline '" + value + "'");
    }
    return OkStatus();
  }
  if (key == "connectivity") {
    if (value == "orthogonal") {
      out->request.options.spectral.graph.connectivity =
          GridConnectivity::kOrthogonal;
    } else if (value == "moore") {
      out->request.options.spectral.graph.connectivity =
          GridConnectivity::kMoore;
    } else {
      return InvalidArgumentError("bad connectivity '" + value + "'");
    }
    return OkStatus();
  }
  if (key == "radius") {
    int64_t radius = 0;
    if (!ParseInt(value, &radius) || radius < 1 || !Fits<int>(radius)) {
      return InvalidArgumentError("bad radius '" + value + "'");
    }
    out->request.options.spectral.graph.radius = static_cast<int>(radius);
    return OkStatus();
  }
  return InvalidArgumentError("unknown option '" + key + "'");
}

// "GRID <s0>x<s1>[x...]": the payload is the full grid's point set.
Status ParseGridPayload(std::istringstream& in, WireRequest* out) {
  std::string spec;
  if (!(in >> spec)) return InvalidArgumentError("GRID needs <s0>x<s1>...");
  std::vector<Coord> sides;
  int64_t cells = 1;
  for (const std::string& part : StrSplit(spec, 'x')) {
    int64_t side = 0;
    if (!ParseInt(part, &side) || side < 1 || !Fits<Coord>(side)) {
      return InvalidArgumentError("bad grid side '" + part + "'");
    }
    if (side > kMaxWireGridCells / cells) {
      return InvalidArgumentError("grid '" + spec + "' exceeds " +
                                  FormatInt(kMaxWireGridCells) + " cells");
    }
    cells *= side;
    sides.push_back(static_cast<Coord>(side));
  }
  if (sides.empty()) return InvalidArgumentError("empty grid spec");
  if (static_cast<int64_t>(sides.size()) > kMaxPointDims) {
    return InvalidArgumentError("grid '" + spec + "' has more than " +
                                FormatInt(kMaxPointDims) + " axes");
  }
  std::string extra;
  if (in >> extra) {
    return InvalidArgumentError("unexpected token '" + extra +
                                "' after grid spec");
  }
  out->request.points = std::make_shared<const PointSet>(
      PointSet::FullGrid(GridSpec(std::move(sides))));
  return OkStatus();
}

// "POINTS <dims> <n> <c...>": n*dims integer coordinates.
Status ParsePointsPayload(std::istringstream& in, WireRequest* out) {
  int64_t dims = 0;
  int64_t n = 0;
  if (!(in >> dims >> n) || dims < 1 || dims > kMaxPointDims || n < 0) {
    return InvalidArgumentError("POINTS needs <dims> (1.." +
                                FormatInt(kMaxPointDims) +
                                ") <n> <coords...>");
  }
  PointSet points(static_cast<int>(dims));
  std::vector<Coord> p(static_cast<size_t>(dims));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t a = 0; a < dims; ++a) {
      int64_t c = 0;
      if (!(in >> c)) {
        return InvalidArgumentError("POINTS payload truncated (want " +
                                    FormatInt(n) + " points of " +
                                    FormatInt(dims) + " coordinates)");
      }
      if (!Fits<Coord>(c)) {
        return InvalidArgumentError("POINTS coordinate " + FormatInt(c) +
                                    " out of range");
      }
      p[static_cast<size_t>(a)] = static_cast<Coord>(c);
    }
    points.Add(p);
  }
  std::string extra;
  if (in >> extra) {
    return InvalidArgumentError("unexpected token '" + extra +
                                "' after point list");
  }
  out->request.points = std::make_shared<const PointSet>(std::move(points));
  return OkStatus();
}

}  // namespace

StatusOr<WireRequest> ParseWireRequest(const std::string& line) {
  std::istringstream in(line);
  std::string command;
  if (!(in >> command)) return InvalidArgumentError("empty request line");

  WireRequest out;
  if (command == "QUIT") {
    out.command = WireCommand::kQuit;
    return out;
  }
  if (!(in >> out.id)) {
    return InvalidArgumentError(command + " needs a request id");
  }
  if (command == "STATS") {
    out.command = WireCommand::kStats;
    return out;
  }
  if (command == "HEALTH") {
    out.command = WireCommand::kHealth;
    return out;
  }
  if (command == "SNAPSHOT") {
    out.command = WireCommand::kSnapshot;
    if (!(in >> out.snapshot_path)) {
      return InvalidArgumentError("SNAPSHOT needs a file path");
    }
    return out;
  }
  if (command != "ORDER") {
    return InvalidArgumentError("unknown command '" + command + "'");
  }

  out.command = WireCommand::kOrder;
  std::string engine;
  if (!(in >> engine)) return InvalidArgumentError("ORDER needs an engine");
  out.request.engine = engine;
  out.request.input = OrderingInputKind::kPoints;

  // Options until the payload tag.
  std::string token;
  while (in >> token) {
    if (token == "GRID") {
      if (Status s = ParseGridPayload(in, &out); !s.ok()) return s;
      return out;
    }
    if (token == "POINTS") {
      if (Status s = ParsePointsPayload(in, &out); !s.ok()) return s;
      return out;
    }
    if (Status s = ApplyOrderOption(token, &out); !s.ok()) return s;
  }
  return InvalidArgumentError("ORDER needs a GRID or POINTS payload");
}

std::string FormatOrderedResponse(const std::string& id,
                                  const OrderingResult& result) {
  std::ostringstream out;
  out << "ORDERED " << id << ' ' << result.order.size();
  for (int64_t i = 0; i < result.order.size(); ++i) {
    out << ' ' << result.order.RankOf(i);
  }
  return out.str();
}

std::string FormatErrorResponse(const std::string& id, const Status& status) {
  return "ERROR " + id + " " + StatusCodeName(status.code()) + " " +
         status.message();
}

}  // namespace spectral
