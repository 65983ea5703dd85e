// The benchmark's independent computations: its own adjacency, serial
// BFS, components and PageRank, and the checks that compare the
// program's answers with them. Nothing here calls into the library.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"

namespace pb {

using fastbfs::vid_t;

RefGraph ref_graph(const Input& in) {
  RefGraph g;
  g.offsets.assign(static_cast<std::size_t>(in.n) + 1, 0);
  for (const Edge& e : in.edges) {
    if (e.u == e.v) continue;
    ++g.offsets[e.u + 1];
    ++g.offsets[e.v + 1];
  }
  for (vid_t v = 0; v < in.n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.targets.resize(g.offsets[in.n]);
  std::vector<std::uint64_t> fill(g.offsets.begin(), g.offsets.end() - 1);
  for (const Edge& e : in.edges) {
    if (e.u == e.v) continue;
    g.targets[fill[e.u]++] = e.v;
    g.targets[fill[e.v]++] = e.u;
  }
  return g;
}

RefTree ref_bfs(const RefGraph& g, vid_t root) {
  RefTree t;
  t.root = root;
  t.depth.assign(g.n(), kRefInf);
  std::vector<vid_t> queue;
  queue.reserve(g.n());
  t.depth[root] = 0;
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const vid_t u = queue[head];
    const std::uint16_t du = t.depth[u];
    t.edges += g.degree(u);
    t.max_depth = du;
    for (std::uint64_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
      const vid_t w = g.targets[i];
      if (t.depth[w] == kRefInf) {
        t.depth[w] = static_cast<std::uint16_t>(du + 1);
        queue.push_back(w);
      }
    }
  }
  t.visited = queue.size();
  return t;
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& f) {
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += threads) f(i);
    });
  }
  for (auto& th : pool) th.join();
}

std::vector<RefTree> ref_bfs_all(const RefGraph& g,
                                 const std::vector<vid_t>& roots,
                                 unsigned threads) {
  std::vector<RefTree> out(roots.size());
  parallel_for(roots.size(), threads,
               [&](std::size_t i) { out[i] = ref_bfs(g, roots[i]); });
  return out;
}

std::vector<vid_t> pick_roots(const RefGraph& g, unsigned count,
                              std::uint64_t seed) {
  std::vector<vid_t> roots;
  std::vector<bool> taken(g.n(), false);
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 0x726f6f74ull;
  while (roots.size() < count) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const auto v = static_cast<vid_t>((s >> 33) % g.n());
    if (taken[v] || g.degree(v) == 0) continue;
    taken[v] = true;
    roots.push_back(v);
  }
  return roots;
}

std::string check_summary(const RefTree& ref, std::uint64_t visited,
                          std::uint64_t edges, unsigned depth_reached) {
  char buf[256];
  if (visited != ref.visited || edges != ref.edges ||
      depth_reached != ref.max_depth) {
    std::snprintf(buf, sizeof buf,
                  "root %u: visited/edges/depth %llu/%llu/%u, expected "
                  "%llu/%llu/%u",
                  ref.root, static_cast<unsigned long long>(visited),
                  static_cast<unsigned long long>(edges), depth_reached,
                  static_cast<unsigned long long>(ref.visited),
                  static_cast<unsigned long long>(ref.edges), ref.max_depth);
    return buf;
  }
  return "";
}

std::string check_tree(const RefGraph& g, const RefTree& ref,
                       const std::uint64_t* packed, std::size_t n_packed,
                       std::uint64_t visited, std::uint64_t edges,
                       unsigned depth_reached) {
  constexpr std::uint64_t kUnreached = ~std::uint64_t{0};
  char buf[256];
  if (n_packed != g.n()) {
    std::snprintf(buf, sizeof buf, "root %u: tree of %zu vertices, expected %u",
                  ref.root, n_packed, g.n());
    return buf;
  }
  for (vid_t v = 0; v < g.n(); ++v) {
    const std::uint64_t w = packed[v];
    const std::uint16_t want = ref.depth[v];
    if (w == kUnreached) {
      if (want == kRefInf) continue;
      std::snprintf(buf, sizeof buf, "root %u: vertex %u unreached, depth %u expected",
                    ref.root, v, want);
      return buf;
    }
    const auto depth = static_cast<std::uint32_t>(w >> 32);
    const auto parent = static_cast<vid_t>(w & 0xffffffffu);
    if (depth != want) {
      std::snprintf(buf, sizeof buf, "root %u: vertex %u depth %u, expected %u",
                    ref.root, v, depth, want == kRefInf ? ~0u : unsigned{want});
      return buf;
    }
    if (v == ref.root) {
      if (parent != v) {
        std::snprintf(buf, sizeof buf, "root %u: root's parent is %u", v, parent);
        return buf;
      }
      continue;
    }
    bool ok = parent < g.n() && ref.depth[parent] + 1u == want;
    if (ok) {
      const auto first = g.targets.begin() + static_cast<std::ptrdiff_t>(g.offsets[v]);
      const auto last = g.targets.begin() + static_cast<std::ptrdiff_t>(g.offsets[v + 1]);
      ok = std::find(first, last, parent) != last;
    }
    if (!ok) {
      std::snprintf(buf, sizeof buf,
                    "root %u: parent %u of vertex %u is not a neighbour one "
                    "level up", ref.root, parent, v);
      return buf;
    }
  }
  return check_summary(ref, visited, edges, depth_reached);
}

std::vector<vid_t> ref_components(const RefGraph& g) {
  constexpr vid_t kNone = ~vid_t{0};
  std::vector<vid_t> label(g.n(), kNone);
  std::vector<vid_t> stack;
  for (vid_t s = 0; s < g.n(); ++s) {
    if (label[s] != kNone) continue;
    // Ascending scan: s is the smallest id of its component.
    label[s] = s;
    stack.push_back(s);
    while (!stack.empty()) {
      const vid_t u = stack.back();
      stack.pop_back();
      for (std::uint64_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
        const vid_t w = g.targets[i];
        if (label[w] == kNone) {
          label[w] = s;
          stack.push_back(w);
        }
      }
    }
  }
  return label;
}

std::vector<double> ref_pagerank(const RefGraph& g, double damping,
                                 unsigned iterations) {
  const vid_t n = g.n();
  const double base = (1.0 - damping) / n;
  std::vector<double> rank(n, 1.0 / n), contrib(n);
  for (unsigned it = 0; it < iterations; ++it) {
    for (vid_t v = 0; v < n; ++v) {
      contrib[v] = g.degree(v) > 0 ? rank[v] / static_cast<double>(g.degree(v)) : 0.0;
    }
    // Pull over the symmetric adjacency: arcs (u, v) are v's neighbours.
    for (vid_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (std::uint64_t i = g.offsets[v]; i < g.offsets[v + 1]; ++i) {
        sum += contrib[g.targets[i]];
      }
      rank[v] = base + damping * sum;
    }
  }
  return rank;
}

std::string check_csr(const RefGraph& g, const std::uint64_t* offsets,
                      const vid_t* targets, std::uint64_t n_targets) {
  char buf[256];
  if (n_targets != g.targets.size()) {
    std::snprintf(buf, sizeof buf, "CSR has %llu arcs, expected %llu",
                  static_cast<unsigned long long>(n_targets),
                  static_cast<unsigned long long>(g.targets.size()));
    return buf;
  }
  const auto mix = [](vid_t x) {
    std::uint64_t z = x + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    return z ^ (z >> 27);
  };
  for (vid_t v = 0; v < g.n(); ++v) {
    if (offsets[v + 1] - offsets[v] != g.degree(v)) {
      std::snprintf(buf, sizeof buf, "CSR degree of %u is %llu, expected %llu", v,
                    static_cast<unsigned long long>(offsets[v + 1] - offsets[v]),
                    static_cast<unsigned long long>(g.degree(v)));
      return buf;
    }
    std::uint64_t sum_a = 0, xor_a = 0, sum_b = 0, xor_b = 0;
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      sum_a += mix(targets[i]);
      xor_a ^= mix(targets[i]);
    }
    for (std::uint64_t i = g.offsets[v]; i < g.offsets[v + 1]; ++i) {
      sum_b += mix(g.targets[i]);
      xor_b ^= mix(g.targets[i]);
    }
    if (sum_a != sum_b || xor_a != xor_b) {
      std::snprintf(buf, sizeof buf, "CSR neighbours of %u differ", v);
      return buf;
    }
  }
  return "";
}

}  // namespace pb
