#include "src/graph/io.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/strings.h"

namespace cgraph {
namespace {

constexpr uint64_t kBinaryMagic = 0x43475245444745ULL;  // "CGREDGE"

std::string LineError(const std::string& path, size_t line, const char* what) {
  std::ostringstream os;
  os << path << ":" << line << ": " << what;
  return os.str();
}

}  // namespace

Result<EdgeList> LoadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  EdgeList list;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') {
      continue;
    }
    const auto fields = SplitNonEmpty(stripped, " \t,");
    if (fields.size() != 2 && fields.size() != 3) {
      return Status::InvalidArgument(LineError(path, line_no, "expected 'src dst [weight]'"));
    }
    uint64_t src = 0;
    uint64_t dst = 0;
    if (!ParseUint64(fields[0], &src) || !ParseUint64(fields[1], &dst)) {
      return Status::InvalidArgument(LineError(path, line_no, "endpoints must be non-negative integers"));
    }
    if (src > kInvalidVertex - 1 || dst > kInvalidVertex - 1) {
      return Status::OutOfRange(LineError(path, line_no, "vertex id exceeds 32-bit range"));
    }
    double parsed = 1.0;
    if (fields.size() == 3 && !ParseDouble(fields[2], &parsed)) {
      return Status::InvalidArgument(LineError(path, line_no, "weight must be a finite number"));
    }
    // A finite double can still overflow the narrower Weight type.
    const Weight weight = static_cast<Weight>(parsed);
    if (!std::isfinite(weight)) {
      return Status::InvalidArgument(LineError(path, line_no, "weight out of range"));
    }
    list.Add(static_cast<VertexId>(src), static_cast<VertexId>(dst), weight);
  }
  return list;
}

Status SaveEdgeListText(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out << "# cgraph edge list: " << edges.num_vertices() << " vertices, " << edges.num_edges()
      << " edges\n";
  bool weighted = false;
  for (const Edge& e : edges.edges()) {
    if (e.weight != 1.0f) {
      weighted = true;
      break;
    }
  }
  for (const Edge& e : edges.edges()) {
    out << e.src << ' ' << e.dst;
    if (weighted) {
      out << ' ' << e.weight;
    }
    out << '\n';
  }
  out.flush();
  if (!out) {
    return Status::Internal("write failed for " + path);
  }
  return Status::Ok();
}

Result<EdgeList> LoadEdgeListBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  uint64_t magic = 0;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&num_vertices), sizeof(num_vertices));
  in.read(reinterpret_cast<char*>(&num_edges), sizeof(num_edges));
  if (!in || magic != kBinaryMagic) {
    return Status::InvalidArgument(path + ": not a cgraph binary edge list");
  }
  if (num_vertices > kInvalidVertex) {
    return Status::OutOfRange(path + ": vertex count exceeds 32-bit range");
  }
  std::vector<Edge> edges(num_edges);
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(num_edges * sizeof(Edge)));
  if (!in) {
    return Status::InvalidArgument(path + ": truncated edge payload");
  }
  return EdgeList(static_cast<VertexId>(num_vertices), std::move(edges));
}

Status SaveEdgeListBinary(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const uint64_t magic = kBinaryMagic;
  const uint64_t num_vertices = edges.num_vertices();
  const uint64_t num_edges = edges.num_edges();
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&num_vertices), sizeof(num_vertices));
  out.write(reinterpret_cast<const char*>(&num_edges), sizeof(num_edges));
  out.write(reinterpret_cast<const char*>(edges.edges().data()),
            static_cast<std::streamsize>(num_edges * sizeof(Edge)));
  out.flush();
  if (!out) {
    return Status::Internal("write failed for " + path);
  }
  return Status::Ok();
}

}  // namespace cgraph
