#include "net/io.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "latency/functions.h"

namespace staleflow {
namespace {

/// Full-precision double printing so round-trips are exact.
std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string latency_spec(const LatencyFunction& fn) {
  if (const auto* c = dynamic_cast<const ConstantLatency*>(&fn)) {
    return "constant " + num(c->constant_value());
  }
  if (const auto* a = dynamic_cast<const AffineLatency*>(&fn)) {
    return "affine " + num(a->offset()) + " " + num(a->slope());
  }
  if (const auto* m = dynamic_cast<const MonomialLatency*>(&fn)) {
    return "monomial " + num(m->coefficient()) + " " + num(m->degree());
  }
  if (const auto* p = dynamic_cast<const PolynomialLatency*>(&fn)) {
    std::string spec = "polynomial " + std::to_string(p->coefficients().size());
    for (const double c : p->coefficients()) spec.append(" ").append(num(c));
    return spec;
  }
  if (const auto* s = dynamic_cast<const ShiftedLinearLatency*>(&fn)) {
    return "shifted_linear " + num(s->slope()) + " " + num(s->threshold());
  }
  if (const auto* w = dynamic_cast<const PiecewiseLinearLatency*>(&fn)) {
    std::string spec = "pwl " + std::to_string(w->breakpoints().size());
    for (const auto& bp : w->breakpoints()) {
      spec.append(" ").append(num(bp.x)).append(" ").append(num(bp.y));
    }
    return spec;
  }
  if (const auto* b = dynamic_cast<const BprLatency*>(&fn)) {
    return "bpr " + num(b->free_flow_time()) + " " + num(b->alpha()) + " " +
           num(b->capacity()) + " " + num(b->power());
  }
  if (const auto* q = dynamic_cast<const MM1Latency*>(&fn)) {
    return "mm1 " + num(q->capacity());
  }
  throw std::invalid_argument(
      "serialize_instance: latency function '" + fn.describe() +
      "' is not expressible in the text format");
}

LatencyPtr parse_latency(std::istringstream& in, std::size_t line_no) {
  auto fail = [line_no](const std::string& why) -> std::invalid_argument {
    return std::invalid_argument("parse_instance: line " +
                                 std::to_string(line_no) + ": " + why);
  };
  std::string kind;
  if (!(in >> kind)) throw fail("missing latency spec");
  auto read = [&](double& out) {
    if (!(in >> out)) throw fail("missing latency parameter");
  };
  if (kind == "constant") {
    double c;
    read(c);
    return constant(c);
  }
  if (kind == "affine") {
    double a, b;
    read(a);
    read(b);
    return affine(a, b);
  }
  if (kind == "monomial") {
    double c, d;
    read(c);
    read(d);
    return monomial(c, d);
  }
  if (kind == "polynomial") {
    std::size_t k;
    if (!(in >> k)) throw fail("missing coefficient count");
    std::vector<double> coeffs(k);
    for (double& c : coeffs) read(c);
    return polynomial(std::move(coeffs));
  }
  if (kind == "shifted_linear") {
    double slope, threshold;
    read(slope);
    read(threshold);
    return shifted_linear(slope, threshold);
  }
  if (kind == "pwl") {
    std::size_t k;
    if (!(in >> k)) throw fail("missing breakpoint count");
    std::vector<PiecewiseLinearLatency::Breakpoint> points(k);
    for (auto& bp : points) {
      read(bp.x);
      read(bp.y);
    }
    return piecewise_linear(std::move(points));
  }
  if (kind == "bpr") {
    double t0, a, c, p;
    read(t0);
    read(a);
    read(c);
    read(p);
    return bpr(t0, a, c, p);
  }
  if (kind == "mm1") {
    double c;
    read(c);
    return mm1(c);
  }
  throw fail("unknown latency kind '" + kind + "'");
}

}  // namespace

std::string to_dot(const Instance& instance) {
  std::ostringstream os;
  os << "digraph staleflow {\n  rankdir=LR;\n";
  for (std::size_t v = 0; v < instance.graph().vertex_count(); ++v) {
    os << "  v" << v << " [shape=circle];\n";
  }
  for (std::size_t e = 0; e < instance.edge_count(); ++e) {
    const auto& edge = instance.graph().edge(EdgeId{e});
    os << "  v" << edge.from.value << " -> v" << edge.to.value
       << " [label=\"" << instance.latency(EdgeId{e}).describe() << "\"];\n";
  }
  for (std::size_t c = 0; c < instance.commodity_count(); ++c) {
    const Commodity& commodity = instance.commodity(CommodityId{c});
    os << "  // commodity " << c << ": v" << commodity.source.value
       << " -> v" << commodity.sink.value << " demand "
       << commodity.demand << "\n";
  }
  os << "}\n";
  return os.str();
}

std::string serialize_instance(const Instance& instance) {
  std::ostringstream os;
  os << "# staleflow instance\n";
  os << "vertices " << instance.graph().vertex_count() << "\n";
  for (std::size_t e = 0; e < instance.edge_count(); ++e) {
    const auto& edge = instance.graph().edge(EdgeId{e});
    os << "edge " << edge.from.value << " " << edge.to.value << " "
       << latency_spec(instance.latency(EdgeId{e})) << "\n";
  }
  for (std::size_t c = 0; c < instance.commodity_count(); ++c) {
    const Commodity& commodity = instance.commodity(CommodityId{c});
    os << "commodity " << commodity.source.value << " "
       << commodity.sink.value << " " << num(commodity.demand) << "\n";
  }
  return os.str();
}

Instance parse_instance(const std::string& text) {
  // Two-pass parse: first build the graph (vertices + edges), then attach
  // latencies and commodities through the builder.
  std::istringstream first(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t vertex_count = 0;
  bool have_vertices = false;

  struct EdgeLine {
    std::size_t from, to;
    std::string spec;
    std::size_t line_no;
  };
  struct CommodityLine {
    std::size_t source, sink;
    double demand;
  };
  std::vector<EdgeLine> edge_lines;
  std::vector<CommodityLine> commodity_lines;

  auto fail = [&line_no](const std::string& why) -> std::invalid_argument {
    return std::invalid_argument("parse_instance: line " +
                                 std::to_string(line_no) + ": " + why);
  };

  while (std::getline(first, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive) || directive[0] == '#') continue;
    if (directive == "vertices") {
      if (have_vertices) throw fail("duplicate 'vertices' directive");
      if (!(ls >> vertex_count) || vertex_count == 0) {
        throw fail("'vertices' needs a positive count");
      }
      have_vertices = true;
    } else if (directive == "edge") {
      if (!have_vertices) throw fail("'vertices' must come first");
      EdgeLine e;
      e.line_no = line_no;
      if (!(ls >> e.from >> e.to)) throw fail("edge needs two endpoints");
      if (e.from >= vertex_count || e.to >= vertex_count) {
        throw fail("edge endpoint out of range");
      }
      std::getline(ls, e.spec);
      edge_lines.push_back(std::move(e));
    } else if (directive == "commodity") {
      if (!have_vertices) throw fail("'vertices' must come first");
      CommodityLine c;
      if (!(ls >> c.source >> c.sink >> c.demand)) {
        throw fail("commodity needs source, sink, demand");
      }
      if (c.source >= vertex_count || c.sink >= vertex_count) {
        throw fail("commodity endpoint out of range");
      }
      commodity_lines.push_back(c);
    } else {
      throw fail("unknown directive '" + directive + "'");
    }
  }
  if (!have_vertices) {
    throw std::invalid_argument("parse_instance: no 'vertices' directive");
  }

  Graph g(vertex_count);
  std::vector<EdgeId> ids;
  ids.reserve(edge_lines.size());
  for (const EdgeLine& e : edge_lines) {
    ids.push_back(g.add_edge(VertexId{e.from}, VertexId{e.to}));
  }
  InstanceBuilder builder(std::move(g));
  for (std::size_t i = 0; i < edge_lines.size(); ++i) {
    std::istringstream spec(edge_lines[i].spec);
    builder.set_latency(ids[i], parse_latency(spec, edge_lines[i].line_no));
  }
  for (const CommodityLine& c : commodity_lines) {
    builder.add_commodity(VertexId{c.source}, VertexId{c.sink}, c.demand);
  }
  return std::move(builder).build();
}

void save_instance(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_instance: cannot open " + path);
  out << serialize_instance(instance);
  if (!out) throw std::runtime_error("save_instance: write failed " + path);
}

Instance load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_instance: cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_instance(buffer.str());
}

}  // namespace staleflow
