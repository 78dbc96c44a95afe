#include "sched/graph/graph.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace hydra {

size_t
layerDepth(const Step& step)
{
    switch (step.kind) {
      case ProcKind::Bootstrap:
        return 0;
      case ProcKind::NonLinear:
        // BSGS ladder of a degree-d polynomial: ceil(log2(d + 1))
        // rescales (degree 15 -> 4 levels).
        return std::bit_width(step.polyDegree);
      default:
        return 1;
    }
}

NetworkGraph
NetworkGraph::fromModel(const WorkloadModel& model)
{
    NetworkGraph g;
    g.name = model.name;
    g.logSlots = model.logSlots;
    g.maxLimbs = model.maxLimbs;
    g.nodes.reserve(model.steps.size());
    for (size_t i = 0; i < model.steps.size(); ++i) {
        LayerNode n;
        n.id = static_cast<uint32_t>(i);
        n.step = model.steps[i];
        g.nodes.push_back(std::move(n));
    }
    for (size_t i = 0; i + 1 < model.steps.size(); ++i)
        g.edges.push_back(GraphEdge{static_cast<uint32_t>(i),
                                    static_cast<uint32_t>(i + 1),
                                    model.steps[i].outputCts});
    g.annotateLevels();
    return g;
}

bool
NetworkGraph::topoOrder(std::vector<uint32_t>& order, SpecError& err) const
{
    order.clear();
    std::vector<size_t> indeg(nodes.size(), 0);
    for (const auto& e : edges)
        if (e.dst < nodes.size())
            ++indeg[e.dst];
    // Kahn with a smallest-id-first scan: deterministic, and a chain
    // graph comes out in authored order.  Node counts are model-sized
    // (hundreds), so the quadratic scan is irrelevant.
    std::vector<bool> done(nodes.size(), false);
    for (size_t picked = 0; picked < nodes.size(); ++picked) {
        size_t next = nodes.size();
        for (size_t i = 0; i < nodes.size(); ++i)
            if (!done[i] && indeg[i] == 0) {
                next = i;
                break;
            }
        if (next == nodes.size()) {
            err.message = "network graph has a dependency cycle";
            err.token = nodes.empty() ? name : nodes[0].step.name;
            for (size_t i = 0; i < nodes.size(); ++i)
                if (!done[i]) {
                    err.token = nodes[i].step.name;
                    break;
                }
            return false;
        }
        done[next] = true;
        order.push_back(static_cast<uint32_t>(next));
        for (const auto& e : edges)
            if (e.src == next && e.dst < nodes.size())
                --indeg[e.dst];
    }
    return true;
}

bool
NetworkGraph::validate(SpecError& err) const
{
    auto fail = [&](std::string msg, std::string token) {
        err.message = std::move(msg);
        err.token = std::move(token);
        return false;
    };
    if (name.empty())
        return fail("network graph wants a model name", "model");
    if (logSlots == 0 || logSlots > 20)
        return fail("network graph wants 1 <= logSlots <= 20",
                    strf("%zu", logSlots));
    if (maxLimbs == 0 || maxLimbs > 64)
        return fail("network graph wants 1 <= maxLimbs <= 64",
                    strf("%zu", maxLimbs));
    if (nodes.empty())
        return fail("network graph has no layers", name);
    for (size_t i = 0; i < nodes.size(); ++i) {
        const LayerNode& n = nodes[i];
        const Step& s = n.step;
        if (n.id != i)
            return fail("network graph node ids must be dense",
                        strf("%u", n.id));
        if (s.name.empty())
            return fail("layer wants a non-empty name", strf("#%zu", i));
        if (s.parallelism == 0)
            return fail("layer wants parallelism >= 1", s.name);
        if (s.limbs == 0 || s.limbs > maxLimbs)
            return fail("layer limbs must be in [1, maxLimbs]", s.name);
        if (s.kind == ProcKind::NonLinear && s.polyDegree == 0)
            return fail("non-linear layer wants a polynomial degree",
                        s.name);
        if (s.unitScale <= 0.0)
            return fail("layer wants unitScale > 0", s.name);
        if (s.outputCts == 0)
            return fail("layer wants outputCts >= 1", s.name);
    }
    for (const auto& e : edges) {
        if (e.src >= nodes.size() || e.dst >= nodes.size())
            return fail("edge references an unknown layer",
                        strf("%u->%u", e.src, e.dst));
        if (e.src == e.dst)
            return fail("edge forms a self-loop",
                        nodes[e.src].step.name);
        if (e.cts == 0)
            return fail("edge wants cts >= 1",
                        strf("%u->%u", e.src, e.dst));
    }
    std::vector<uint32_t> order;
    return topoOrder(order, err);
}

void
NetworkGraph::annotateLevels()
{
    std::vector<uint32_t> order;
    SpecError err;
    if (!topoOrder(order, err))
        fatal("NetworkGraph::annotateLevels on a cyclic graph: %s",
              err.describe().c_str());
    // levelOut[i] = level available after node i ran.
    std::vector<size_t> levelOut(nodes.size(), maxLimbs);
    for (uint32_t id : order) {
        LayerNode& n = nodes[id];
        size_t level = maxLimbs;
        bool hasPred = false;
        for (const auto& e : edges)
            if (e.dst == id) {
                level = hasPred ? std::min(level, levelOut[e.src])
                                : levelOut[e.src];
                hasPred = true;
            }
        n.levelIn = level;
        n.depth = layerDepth(n.step);
        n.rotations = static_cast<uint64_t>(n.step.perUnit.rotations) *
                      n.step.effectiveUnits();
        if (n.step.kind == ProcKind::Bootstrap)
            levelOut[id] = maxLimbs;
        else
            levelOut[id] = level > n.depth ? level - n.depth : 1;
    }
}

std::string
NetworkGraph::describe() const
{
    std::string s = strf("model %s: %zu layer(s), %zu edge(s), "
                         "2^%zu slots, %zu limbs\n",
                         name.c_str(), nodes.size(), edges.size(),
                         logSlots, maxLimbs);
    std::vector<uint32_t> order;
    SpecError err;
    if (!topoOrder(order, err))
        return s + "  <cyclic: " + err.describe() + ">\n";
    for (uint32_t id : order) {
        const LayerNode& n = nodes[id];
        s += strf("  %3u %-20s %-9s par %-7zu limbs %-2zu level %-2zu "
                  "depth %zu out %zu ct\n",
                  n.id, n.step.name.c_str(), procName(n.step.kind),
                  n.step.parallelism, n.step.limbs, n.levelIn, n.depth,
                  n.step.outputCts);
    }
    return s;
}

namespace {

/** Minimal JSON string escape (layer names are identifier-like, but a
 *  hand-written spec could sneak a quote in). */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += strf("\\%c", c);
        else if (static_cast<unsigned char>(c) < 0x20)
            out += strf("\\u%04x", c);
        else
            out += c;
    }
    return out;
}

} // namespace

std::string
NetworkGraph::toJson() const
{
    std::string s = strf("{\"model\":\"%s\",\"logSlots\":%zu,"
                         "\"maxLimbs\":%zu,\"nodes\":[",
                         jsonEscape(name).c_str(), logSlots, maxLimbs);
    for (size_t i = 0; i < nodes.size(); ++i) {
        const LayerNode& n = nodes[i];
        s += strf("%s{\"id\":%u,\"name\":\"%s\",\"kind\":\"%s\","
                  "\"parallelism\":%zu,\"limbs\":%zu,\"agg\":%d,"
                  "\"polyDegree\":%zu,\"unitScale\":%.17g,"
                  "\"outputCts\":%zu,\"levelIn\":%zu,\"depth\":%zu,"
                  "\"rotations\":%llu}",
                  i ? "," : "", n.id, jsonEscape(n.step.name).c_str(),
                  procName(n.step.kind), n.step.parallelism,
                  n.step.limbs, static_cast<int>(n.step.agg),
                  n.step.polyDegree, n.step.unitScale, n.step.outputCts,
                  n.levelIn, n.depth,
                  static_cast<unsigned long long>(n.rotations));
    }
    s += "],\"edges\":[";
    for (size_t i = 0; i < edges.size(); ++i)
        s += strf("%s{\"src\":%u,\"dst\":%u,\"cts\":%llu}",
                  i ? "," : "", edges[i].src, edges[i].dst,
                  static_cast<unsigned long long>(edges[i].cts));
    s += "]}";
    return s;
}

uint64_t
NetworkGraph::totalEdgeCts() const
{
    uint64_t sum = 0;
    for (const auto& e : edges)
        sum += e.cts;
    return sum;
}

} // namespace hydra
