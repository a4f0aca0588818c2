#include "core/serialization.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/fault.h"
#include "util/hash.h"

namespace spectral {

namespace {
constexpr char kOrderMagic[] = "spectral-lpm-order v1";
constexpr char kPointsMagic[] = "spectral-lpm-points v1";
constexpr char kCacheMagic[] = "spectral-lpm-cache v2";

// Reads one line and strips the expected "<keyword> " prefix; a bare
// keyword line (empty payload) is also accepted. Fails on EOF or mismatch.
Status ConsumeTaggedLine(std::istream& in, std::string_view keyword,
                         std::string* payload) {
  std::string line;
  if (!std::getline(in, line)) {
    return InvalidArgumentError("truncated snapshot: expected '" +
                                std::string(keyword) + "' line");
  }
  if (line == keyword) {
    payload->clear();
    return OkStatus();
  }
  const std::string prefix = std::string(keyword) + " ";
  if (line.rfind(prefix, 0) != 0) {
    return InvalidArgumentError("corrupt snapshot: expected '" +
                                std::string(keyword) + " ...', got '" + line +
                                "'");
  }
  *payload = line.substr(prefix.size());
  return OkStatus();
}

// Parses exactly 16 lowercase/uppercase hex digits.
bool ParseHex64(std::string_view hex, uint64_t* out) {
  if (hex.size() != 16) return false;
  uint64_t value = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

// 16-digit lowercase hex of `value` (the checksum trailer's payload).
std::string Hex64(uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

// Content hash of a snapshot body (everything before the checksum line).
uint64_t SnapshotChecksum(std::string_view body) {
  return Hasher().MixString(body).Finish().lo;
}
}  // namespace

Status WriteLinearOrder(const LinearOrder& order, std::ostream& out) {
  out << kOrderMagic << '\n' << order.size() << '\n';
  for (int64_t i = 0; i < order.size(); ++i) {
    out << order.RankOf(i) << '\n';
  }
  if (!out.good()) return InternalError("write failed");
  return OkStatus();
}

StatusOr<LinearOrder> ReadLinearOrder(std::istream& in) {
  std::string magic;
  std::getline(in, magic);
  if (magic != kOrderMagic) {
    return InvalidArgumentError("bad magic: expected '" +
                                std::string(kOrderMagic) + "'");
  }
  int64_t n = -1;
  in >> n;
  if (!in.good() || n < 0) return InvalidArgumentError("bad size");
  std::vector<int64_t> ranks(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    if (!(in >> ranks[static_cast<size_t>(i)])) {
      return InvalidArgumentError("truncated rank list");
    }
  }
  return LinearOrder::FromRanks(std::move(ranks));
}

Status WritePointSet(const PointSet& points, std::ostream& out) {
  out << kPointsMagic << '\n'
      << points.size() << ' ' << points.dims() << '\n';
  for (int64_t i = 0; i < points.size(); ++i) {
    const auto p = points[i];
    for (int a = 0; a < points.dims(); ++a) {
      out << (a > 0 ? " " : "") << p[static_cast<size_t>(a)];
    }
    out << '\n';
  }
  if (!out.good()) return InternalError("write failed");
  return OkStatus();
}

StatusOr<PointSet> ReadPointSet(std::istream& in) {
  std::string magic;
  std::getline(in, magic);
  if (magic != kPointsMagic) {
    return InvalidArgumentError("bad magic: expected '" +
                                std::string(kPointsMagic) + "'");
  }
  int64_t n = -1;
  int dims = -1;
  in >> n >> dims;
  if (!in.good() || n < 0 || dims < 1 || dims > kMaxPointDims) {
    return InvalidArgumentError("bad point set header");
  }
  PointSet points(dims);
  std::vector<Coord> p(static_cast<size_t>(dims));
  for (int64_t i = 0; i < n; ++i) {
    for (int a = 0; a < dims; ++a) {
      int64_t c;
      if (!(in >> c)) return InvalidArgumentError("truncated point list");
      if (c < std::numeric_limits<Coord>::min() ||
          c > std::numeric_limits<Coord>::max()) {
        return InvalidArgumentError("coordinate out of range");
      }
      p[static_cast<size_t>(a)] = static_cast<Coord>(c);
    }
    points.Add(p);
  }
  return points;
}

std::string WithSnapshotChecksum(std::string body) {
  body += "checksum " + Hex64(SnapshotChecksum(body)) + "\n";
  return body;
}

Status WriteOrderCacheSnapshot(std::span<const OrderCacheEntry> entries,
                               std::ostream& out) {
  // The body is rendered in memory first so the checksum trailer can cover
  // it; snapshots are bounded by the cache capacity, so this stays small.
  std::ostringstream body;
  body << kCacheMagic << '\n' << entries.size() << '\n';
  body << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const OrderCacheEntry& entry : entries) {
    const OrderingResult& r = entry.result;
    body << "entry " << entry.fingerprint.ToHex() << '\n';
    body << "method " << r.method << '\n';
    body << "detail " << r.detail << '\n';
    body << "metrics " << r.lambda2 << ' ' << r.num_components << ' '
         << r.matvecs << ' ' << r.restarts << ' ' << r.spmm_calls << ' '
         << r.reorth_panels << ' ' << r.num_solves << ' ' << r.depth << ' '
         << r.grid_side << ' ' << r.grid_cells << ' '
         << (r.converged ? 1 : 0) << '\n';
    body << "order " << r.order.size();
    for (int64_t i = 0; i < r.order.size(); ++i) {
      body << ' ' << r.order.RankOf(i);
    }
    body << '\n';
    body << "embedding " << r.embedding.size();
    for (double e : r.embedding) body << ' ' << e;
    body << '\n';
  }
  out << WithSnapshotChecksum(std::move(body).str());
  if (!out.good()) return InternalError("write failed");
  return OkStatus();
}

StatusOr<std::vector<OrderCacheEntry>> ReadOrderCacheSnapshot(
    std::istream& in) {
  // Slurp the whole stream: the checksum trailer covers every body byte, so
  // verification needs the text in hand before any field is parsed.
  std::ostringstream slurp;
  slurp << in.rdbuf();
  const std::string text = std::move(slurp).str();

  // The magic line is checked before the checksum so a wrong-version file
  // gets a version error, not a checksum one.
  const size_t magic_end = text.find('\n');
  if (magic_end == std::string::npos ||
      std::string_view(text).substr(0, magic_end) != kCacheMagic) {
    return InvalidArgumentError(
        "bad magic: expected '" + std::string(kCacheMagic) + "', got '" +
        text.substr(0, std::min(magic_end, text.find('\0'))) + "'");
  }

  // The trailer must be the final line: "checksum <16 hex>".
  const size_t trailer = text.rfind("checksum ");
  uint64_t declared_sum = 0;
  if (trailer == std::string::npos ||
      (trailer != 0 && text[trailer - 1] != '\n')) {
    return InvalidArgumentError("truncated snapshot: missing checksum trailer");
  }
  {
    std::string_view rest = std::string_view(text).substr(trailer + 9);
    if (!rest.empty() && rest.back() == '\n') rest.remove_suffix(1);
    if (!ParseHex64(rest, &declared_sum)) {
      return InvalidArgumentError("bad checksum trailer");
    }
  }
  const std::string_view body = std::string_view(text).substr(0, trailer);
  const uint64_t actual_sum = SnapshotChecksum(body);
  if (actual_sum != declared_sum) {
    return InvalidArgumentError("snapshot checksum mismatch: trailer says " +
                                Hex64(declared_sum) + ", body hashes to " +
                                Hex64(actual_sum));
  }

  std::istringstream body_in{std::string(body)};
  std::string line;
  std::getline(body_in, line);  // the magic, already checked
  if (!std::getline(body_in, line)) {
    return InvalidArgumentError("truncated snapshot: missing entry count");
  }
  char* end = nullptr;
  const long long declared = std::strtoll(line.c_str(), &end, 10);
  if (end == line.c_str() || *end != '\0' || declared < 0) {
    return InvalidArgumentError("bad entry count '" + line + "'");
  }

  std::vector<OrderCacheEntry> entries;
  entries.reserve(static_cast<size_t>(declared));
  std::string payload;
  for (long long i = 0; i < declared; ++i) {
    OrderCacheEntry entry;
    OrderingResult& r = entry.result;

    if (Status s = ConsumeTaggedLine(body_in, "entry", &payload); !s.ok()) {
      return s;
    }
    if (payload.size() != 32 ||
        !ParseHex64(std::string_view(payload).substr(0, 16),
                    &entry.fingerprint.hi) ||
        !ParseHex64(std::string_view(payload).substr(16, 16),
                    &entry.fingerprint.lo)) {
      return InvalidArgumentError("bad fingerprint '" + payload + "'");
    }
    if (Status s = ConsumeTaggedLine(body_in, "method", &r.method); !s.ok()) {
      return s;
    }
    if (Status s = ConsumeTaggedLine(body_in, "detail", &r.detail); !s.ok()) {
      return s;
    }

    if (Status s = ConsumeTaggedLine(body_in, "metrics", &payload); !s.ok()) {
      return s;
    }
    {
      std::istringstream metrics(payload);
      int64_t grid_side = 0;
      int converged = 1;
      metrics >> r.lambda2 >> r.num_components >> r.matvecs >> r.restarts >>
          r.spmm_calls >> r.reorth_panels >> r.num_solves >> r.depth >>
          grid_side >> r.grid_cells >> converged;
      if (metrics.fail() || (converged != 0 && converged != 1)) {
        return InvalidArgumentError("corrupt metrics line '" + payload + "'");
      }
      r.grid_side = static_cast<Coord>(grid_side);
      r.converged = converged == 1;
    }

    if (Status s = ConsumeTaggedLine(body_in, "order", &payload); !s.ok()) {
      return s;
    }
    {
      std::istringstream order_in(payload);
      int64_t n = -1;
      order_in >> n;
      if (order_in.fail() || n < 0) {
        return InvalidArgumentError("bad order size in snapshot");
      }
      std::vector<int64_t> ranks(static_cast<size_t>(n));
      for (int64_t k = 0; k < n; ++k) {
        if (!(order_in >> ranks[static_cast<size_t>(k)])) {
          return InvalidArgumentError("truncated order rank list");
        }
      }
      auto order = LinearOrder::FromRanks(std::move(ranks));
      if (!order.ok()) return order.status();
      r.order = *std::move(order);
    }

    if (Status s = ConsumeTaggedLine(body_in, "embedding", &payload); !s.ok()) {
      return s;
    }
    {
      std::istringstream embedding_in(payload);
      int64_t m = -1;
      embedding_in >> m;
      if (embedding_in.fail() || m < 0) {
        return InvalidArgumentError("bad embedding size in snapshot");
      }
      r.embedding.resize(static_cast<size_t>(m));
      for (int64_t k = 0; k < m; ++k) {
        if (!(embedding_in >> r.embedding[static_cast<size_t>(k)])) {
          return InvalidArgumentError("truncated embedding list");
        }
      }
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

namespace {

// write(2) until done; false on any unrecoverable error (EINTR retried).
bool WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Status SaveOrderCacheSnapshotToFile(std::span<const OrderCacheEntry> entries,
                                    const std::string& path,
                                    FaultInjector* faults) {
  std::ostringstream rendered;
  if (Status s = WriteOrderCacheSnapshot(entries, rendered); !s.ok()) return s;
  const std::string payload = std::move(rendered).str();

  // Crash-safe rotation: full payload to "<path>.tmp", fsync, then an
  // atomic rename over `path`. A crash (or injected fault) at any point
  // leaves the previous snapshot readable at `path` — at worst plus a
  // stray .tmp the next successful save overwrites.
  const std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return InternalError("cannot open " + tmp_path + ": " +
                         std::strerror(errno));
  }
  if (FaultFires(faults, "snapshot.write")) {
    // Model a mid-write crash: half the payload lands, the file is
    // abandoned without flush or rename.
    (void)WriteAll(fd, payload.data(), payload.size() / 2);
    ::close(fd);
    return InternalError("injected snapshot.write fault: abandoned "
                         "half-written " + tmp_path);
  }
  if (!WriteAll(fd, payload.data(), payload.size())) {
    const Status error =
        InternalError("write to " + tmp_path + " failed: " +
                      std::strerror(errno));
    ::close(fd);
    return error;
  }
  if (::fsync(fd) != 0) {
    const Status error = InternalError("fsync of " + tmp_path + " failed: " +
                                       std::strerror(errno));
    ::close(fd);
    return error;
  }
  if (::close(fd) != 0) {
    return InternalError("close of " + tmp_path + " failed: " +
                         std::strerror(errno));
  }
  if (FaultFires(faults, "snapshot.rename")) {
    return InternalError("injected snapshot.rename fault: flushed " +
                         tmp_path + " never renamed");
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return InternalError("rename " + tmp_path + " -> " + path + " failed: " +
                         std::strerror(errno));
  }
  return OkStatus();
}

StatusOr<std::vector<OrderCacheEntry>> LoadOrderCacheSnapshotFromFile(
    const std::string& path) {
  StatusOr<std::vector<OrderCacheEntry>> parsed = [&] {
    std::ifstream in(path);
    if (!in.is_open()) {
      return StatusOr<std::vector<OrderCacheEntry>>(
          NotFoundError("cannot open " + path));
    }
    return ReadOrderCacheSnapshot(in);
  }();
  if (parsed.ok() || parsed.status().code() == StatusCode::kNotFound) {
    return parsed;
  }
  // The file exists but is damaged: quarantine it so the next start is
  // clean (and cold) while the bytes stay around for inspection.
  const std::string quarantine = path + ".corrupt";
  if (std::rename(path.c_str(), quarantine.c_str()) != 0) {
    return Status(parsed.status().code(),
                  parsed.status().message() + " (quarantine to " +
                      quarantine + " failed: " + std::strerror(errno) + ")");
  }
  return Status(parsed.status().code(), parsed.status().message() +
                                            " (quarantined to " + quarantine +
                                            ")");
}

Status SaveLinearOrderToFile(const LinearOrder& order,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return InternalError("cannot open " + path);
  return WriteLinearOrder(order, out);
}

StatusOr<LinearOrder> LoadLinearOrderFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return NotFoundError("cannot open " + path);
  return ReadLinearOrder(in);
}

Status SavePointSetToFile(const PointSet& points, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return InternalError("cannot open " + path);
  return WritePointSet(points, out);
}

StatusOr<PointSet> LoadPointSetFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return NotFoundError("cannot open " + path);
  return ReadPointSet(in);
}

}  // namespace spectral
