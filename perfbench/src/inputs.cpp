// The benchmark's inputs, generated here from the seed alone (the
// program receives only the resulting edge lists). RMAT edge lists are
// cached per (scale, edge factor, seed) because generating scale 20 takes
// seconds; generation and cache reads sit outside every timed section.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"

namespace pb {

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit_double(std::uint64_t& x) {
  return static_cast<double>(splitmix(x) >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kMagic = 0x31656764656270ull;  // "pbedge1"
constexpr std::size_t kBlock = 1u << 16;               // edges per rng stream
constexpr unsigned kGenThreads = 4;
constexpr std::size_t kCacheFilesKept = 8;

Input generate_rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed) {
  Input in;
  in.n = fastbfs::vid_t{1} << scale;
  const std::size_t m = static_cast<std::size_t>(edge_factor) << scale;
  in.edges.resize(m);

  // Seeded relabelling, as Graph500 does, so hubs are not the low ids.
  std::vector<fastbfs::vid_t> perm(in.n);
  for (fastbfs::vid_t v = 0; v < in.n; ++v) perm[v] = v;
  std::uint64_t ps = seed ^ 0x5eedull;
  for (fastbfs::vid_t i = in.n - 1; i > 0; --i) {
    const auto j = static_cast<fastbfs::vid_t>(splitmix(ps) % (i + 1));
    std::swap(perm[i], perm[j]);
  }

  // Each block of kBlock edges has its own stream, so the output does not
  // depend on the thread count.
  const std::size_t n_blocks = (m + kBlock - 1) / kBlock;
  const auto work = [&](unsigned t) {
    for (std::size_t b = t; b < n_blocks; b += kGenThreads) {
      std::uint64_t s = seed * 0x100000001b3ull + b;
      splitmix(s);
      const std::size_t end = std::min(m, (b + 1) * kBlock);
      for (std::size_t e = b * kBlock; e < end; ++e) {
        fastbfs::vid_t u = 0, v = 0;
        for (unsigned level = 0; level < scale; ++level) {
          const double r = unit_double(s);
          const fastbfs::vid_t bit = fastbfs::vid_t{1} << level;
          if (r < 0.57) {
          } else if (r < 0.76) {
            v |= bit;
          } else if (r < 0.95) {
            u |= bit;
          } else {
            u |= bit;
            v |= bit;
          }
        }
        in.edges[e] = {perm[u], perm[v]};
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kGenThreads; ++t) threads.emplace_back(work, t);
  for (auto& th : threads) th.join();
  return in;
}

bool read_cache(const std::string& path, Input& in, std::size_t m) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint64_t hdr[3] = {0, 0, 0};
  bool ok = std::fread(hdr, sizeof hdr, 1, f) == 1 && hdr[0] == kMagic &&
            hdr[2] == m;
  if (ok) {
    in.n = static_cast<fastbfs::vid_t>(hdr[1]);
    in.edges.resize(m);
    ok = std::fread(in.edges.data(), sizeof(Edge), m, f) == m;
  }
  std::fclose(f);
  return ok;
}

void write_cache(const std::string& path, const Input& in) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;  // caching is an optimisation only
  const std::uint64_t hdr[3] = {kMagic, in.n, in.edges.size()};
  bool ok = std::fwrite(hdr, sizeof hdr, 1, f) == 1 &&
            std::fwrite(in.edges.data(), sizeof(Edge), in.edges.size(), f) ==
                in.edges.size();
  // Flush to disk now: write-back of a large file during a later timed
  // section would show up in its timings.
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (ok) {
    std::rename(tmp.c_str(), path.c_str());
  } else {
    std::remove(tmp.c_str());
  }
}

/// Keeps the newest kCacheFilesKept cached edge lists.
void prune_cache(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<fs::file_time_type, fs::path>> files;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".edges") {
      files.emplace_back(e.last_write_time(ec), e.path());
    }
  }
  if (files.size() <= kCacheFilesKept) return;
  std::sort(files.begin(), files.end());
  for (std::size_t i = 0; i + kCacheFilesKept < files.size(); ++i) {
    fs::remove(files[i].second, ec);
  }
}

}  // namespace

Input rmat_input(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                 const std::string& data_dir) {
  const std::size_t m = static_cast<std::size_t>(edge_factor) << scale;
  char name[128];
  std::snprintf(name, sizeof name, "/rmat-%u-%u-s%llu.edges", scale,
                edge_factor, static_cast<unsigned long long>(seed));
  const std::string path = data_dir + name;
  Input in;
  if (read_cache(path, in, m)) return in;
  in = generate_rmat(scale, edge_factor, seed);
  std::error_code ec;
  std::filesystem::create_directories(data_dir, ec);
  write_cache(path, in);
  prune_cache(data_dir);
  return in;
}

Input grid_input(fastbfs::vid_t width, fastbfs::vid_t height) {
  Input in;
  in.n = width * height;
  in.edges.reserve(2 * static_cast<std::size_t>(in.n));
  for (fastbfs::vid_t y = 0; y < height; ++y) {
    for (fastbfs::vid_t x = 0; x < width; ++x) {
      const fastbfs::vid_t v = y * width + x;
      if (x + 1 < width) in.edges.push_back({v, v + 1});
      if (y + 1 < height) in.edges.push_back({v, v + width});
    }
  }
  return in;
}

}  // namespace pb
